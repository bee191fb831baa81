#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>

namespace tcpzb {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// The processor brand string, from CPUID (no file is read).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  model.erase(model.find_last_not_of(' ') + 1);
  return model.empty() ? "unknown" : model;
#else
  return "unknown";
#endif
}

double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

void Report::metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, value, unit});
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

bool Report::check(const std::string& what, bool ok) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures_;
  return ok;
}

void Report::print_result() const {
  std::string out = "{\"correct\": ";
  out += all_passed() && failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    char num[64];
    // %.17g keeps every digit; non-finite values are not valid JSON.
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += json_escape(m.name);
    out += "\": {\"value\": ";
    out += num;
    out += ", \"unit\": \"";
    out += m.unit;
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string pin_to_last_cpus(int count) {
  const auto n = static_cast<int>(std::thread::hardware_concurrency());
  if (count <= 0 || n <= count) return "all";
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string cpus;
  for (int c = n - count; c < n; ++c) {
    CPU_SET(c, &set);
    if (!cpus.empty()) cpus += ',';
    cpus += std::to_string(c);
  }
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpus : "all";
}

void print_label(const Options& opt, int shards, const std::string& transport,
                 const std::string& cpus) {
  std::printf(
      "label {\"workload\": \"%s\", \"cpu_model\": \"%s\", \"nproc\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"seed\": %llu, \"shards\": %d, \"cpus\": \"%s\", "
      "\"transport\": \"%s\"}\n",
      json_escape(opt.workload).c_str(), json_escape(cpu_model()).c_str(),
      std::thread::hardware_concurrency(), TCPZB_BUILD_TYPE,
      json_escape(TCPZB_COMPILER).c_str(), json_escape(opt.commit).c_str(),
      static_cast<unsigned long long>(opt.seed), shards, cpus.c_str(),
      json_escape(transport).c_str());
}

int Spans::begin(const char* name, int parent, std::uint64_t id) {
  if (!enabled_) return -1;
  spans_.push_back({name, now_s(), 0.0, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::end(int span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end_s = now_s();
}

void Spans::add(const char* name, int parent, std::uint64_t id, double start_s,
                double end_s) {
  if (enabled_) spans_.push_back({name, start_s, end_s, parent, id});
}

void Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "tcpzbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::fprintf(f, "{\"time_unit\": \"us\", \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"i\": %zu, \"name\": \"%s\", \"start\": %.3f, "
                 "\"end\": %.3f, \"parent\": %d, \"id\": %llu}\n",
                 i == 0 ? "" : ",", i, s.name, (s.start_s - t0) * 1e6,
                 (s.end_s - t0) * 1e6, s.parent,
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

void listener_metrics(const tcpz::tcp::ListenerCounters& c, Report& rep) {
  rep.metric("tcp.syns", static_cast<double>(c.syns_received), "count");
  rep.metric("tcp.challenge_share",
             c.syns_received ? static_cast<double>(c.challenges_sent) /
                                   static_cast<double>(c.syns_received)
                             : 0.0,
             "ratio");
  rep.metric("tcp.solutions_valid", static_cast<double>(c.solutions_valid), "count");
  rep.metric("tcp.solutions_invalid", static_cast<double>(c.solutions_invalid),
             "count");
  rep.metric("tcp.accept_drops",
             static_cast<double>(c.acks_ignored_accept_full +
                                 c.cookie_drops_accept_full),
             "count");
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SetupSampler::sample(double seconds) {
  // Each batch runs on the last CPU, so set-ups neither migrate nor land on
  // a different CPU from batch to batch; threads a set-up starts inherit it.
  cpu_set_t saved;
  const bool pinned = sched_getaffinity(0, sizeof saved, &saved) == 0;
  if (pinned) pin_to_last_cpus(1);
  if (samples_.empty()) {
    for (int i = 0; i < 3; ++i) build_();
  }
  const double start = now_s();
  for (int n = 0; n < 5 || now_s() - start < seconds; ++n) {
    const double t0 = process_cpu_s();
    build_();
    samples_.push_back(process_cpu_s() - t0);
  }
  if (pinned) sched_setaffinity(0, sizeof saved, &saved);
}

double SetupSampler::median_s() const { return median(samples_); }

void SetupSampler::print() const {
  std::printf("setups=%zu cpu_ms min=%.4f q1=%.4f median=%.4f q3=%.4f\n",
              samples_.size(), quantile(samples_, 0) * 1e3,
              quantile(samples_, 0.25) * 1e3, median_s() * 1e3,
              quantile(samples_, 0.75) * 1e3);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace tcpzb
