// Shared plumbing of the tcpz benchmark program: options, the metric/check
// report that becomes the final JSON line, the run label, in-memory spans
// for traced runs, and small timing/statistics helpers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tcp/counters.hpp"

namespace tcpzb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Source identity recorded in the run label (run.py passes it).
  std::string commit = "unknown";
  /// Where a traced run writes its spans; empty = do not write.
  std::string span_dir;
};

/// Collects metrics and correctness checks; prints the final result line.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit);
  /// Records a named correctness check and prints PASS/FAIL for it.
  bool check(const std::string& what, bool ok);
  /// One benchmark operation (a scenario run, a rate step) and whether it
  /// held its invariants.
  void operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  [[nodiscard]] bool all_passed() const { return failures_ == 0; }
  [[nodiscard]] bool has(const std::string& name) const;
  /// Prints the result as the last stdout line: correct, attempted, failed
  /// and every metric with its unit.
  void print_result() const;

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  int failures_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Restricts this process (and the threads it starts later) to the last
/// `count` CPUs, so the simulator threads do not migrate between runs and
/// repetitions. Returns the CPU list, or "all" when there are too few CPUs.
std::string pin_to_last_cpus(int count);

/// Prints the run label (hardware, build, source, seed, shards, CPUs) as one
/// JSON line. Results whose labels differ are not comparable.
void print_label(const Options& opt, int shards, const std::string& transport,
                 const std::string& cpus);

/// In-memory span log for traced runs: name, start, end, parent and one id
/// per connection or phase. Written as JSON at exit by write().
class Spans {
 public:
  /// Opens a span and returns its index (pass it to end() and as parent).
  int begin(const char* name, int parent = -1, std::uint64_t id = 0);
  void end(int span);
  /// Adds an already-finished span with explicit times (seconds on the
  /// steady clock, as now_s() returns).
  void add(const char* name, int parent, std::uint64_t id, double start_s,
           double end_s);
  void write(const std::string& path) const;
  [[nodiscard]] bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;
    std::uint64_t id;
  };
  std::vector<Span> spans_;
  bool enabled_ = false;
};

/// The listener's mint-vs-verify mix and accept-queue drops (tcp.*).
void listener_metrics(const tcpz::tcp::ListenerCounters& c, Report& rep);

/// Steady-clock seconds.
[[nodiscard]] double now_s();
/// CPU seconds of the calling thread / of the whole process.
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Allocation counting (alloc_count.cpp): off by default; counts the
/// calling thread's operator new calls while on.
void count_allocations(bool on);
[[nodiscard]] std::uint64_t thread_allocations();

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample copy.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Set-up time, sampled in short batches spread over the whole run and
/// reported as the median. Each set-up is timed in process CPU time, not
/// wall time: the wall time also counts waiting for the set-up's threads to
/// be scheduled and for idle vCPUs to wake, which on a shared virtual
/// machine swings with other tenants' load; even the fastest wall-clock
/// set-up of a run spread by 0.30 (IQR/median) over five wire_storm runs.
/// Sample only while no other thread of the process runs.
class SetupSampler {
 public:
  /// `build` performs one complete set-up and tear-down.
  explicit SetupSampler(std::function<void()> build) : build_(std::move(build)) {}
  /// Times `build` repeatedly for `seconds` of wall time (at least 5 times).
  /// The first batch is preceded by three untimed warm-up calls.
  void sample(double seconds);
  /// The median set-up over all batches, CPU seconds.
  [[nodiscard]] double median_s() const;
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  /// Prints the sample count and quartiles, ms.
  void print() const;

 private:
  std::function<void()> build_;
  std::vector<double> samples_;
};

// Workload entry points (each fills the report and returns normally).
void run_botnet_flood(const Options& opt, Report& rep, Spans& spans);
void run_fleet_hybrid(const Options& opt, Report& rep, Spans& spans);
void run_wire_storm(const Options& opt, Report& rep, Spans& spans);

}  // namespace tcpzb
