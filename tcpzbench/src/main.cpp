// tcpzbench — the repository benchmark program.
//
//   tcpzbench --workload <botnet_flood|fleet_hybrid|wire_storm> --seed N
//             --seconds S --trace <0|1> [--commit ID] [--span-dir DIR]
//
// Prints progress and a run label, then as the last stdout line one JSON
// object {correct, attempted, failed, metrics}. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set (README.md in
// this directory defines every metric and which layer it belongs to).
// Every workload emits every metric of its set: a layer a workload does not
// exercise reports 0, which is what it measured.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
  /// Workloads whose run exercises this layer: b(otnet_flood), f(leet_hybrid),
  /// w(ire_storm).
  const char* workloads;
};

constexpr LayerMetric kPerLayer[] = {
    {"scenario.wall_per_sim_s.pre", "s/s", "bf"},
    {"scenario.wall_per_sim_s.attack", "s/s", "bf"},
    {"scenario.wall_per_sim_s.post", "s/s", "bf"},
    {"scenario.collect_s", "s", "bf"},
    {"net.events", "count", "bf"},
    {"net.events_per_wall_s", "1/s", "bf"},
    {"alloc.per_event", "count", "bf"},
    {"tcp.syns", "count", "bfw"},
    {"tcp.challenge_share", "ratio", "bfw"},
    {"tcp.solutions_valid", "count", "bfw"},
    {"tcp.solutions_invalid", "count", "bfw"},
    {"tcp.accept_drops", "count", "bfw"},
    {"offense.attempts", "count", "bf"},
    {"offense.hash_ops", "count", "bf"},
    {"fleet.rotations", "count", "bf"},
    {"fleet.prev_epoch_valid", "count", "bf"},
    {"fleet.replay_hits", "count", "bf"},
    {"fleet.lb_no_backend_drops", "count", "bf"},
    {"par.speedup", "ratio", "f"},
    {"par.event_inflation", "ratio", "f"},
    {"par.rounds", "count", "f"},
    {"gen.lateness_p99_ms", "ms", "w"},
    {"gen.busy_pct", "%", "w"},
    {"gen.solve_us_p50", "us", "w"},
    {"gen.hashes_per_solve", "count", "w"},
    {"host.cpu_us_per_conn", "us", "w"},
    {"defense.on_syn_ns", "ns", "w"},
    {"defense.on_ack_ns", "ns", "w"},
    {"puzzle.make_challenge_ns", "ns", "w"},
    {"puzzle.verify_valid_ns", "ns", "w"},
    {"puzzle.verify_invalid_ns", "ns", "w"},
    {"wire.datagrams_per_wakeup", "count", "w"},
    {"wire.datagrams_per_conn", "count", "w"},
    {"wire.decode_errors", "count", "w"},
    {"wire.unroutable", "count", "w"},
    {"fail_pct", "%", "bfw"},
    {"connect_p50_ms", "ms", "bfw"},
    {"connect_p99_ms", "ms", "bfw"},
    {"connect_samples", "count", "bfw"},
    {"trace_overhead_pct", "%", "bfw"},
};

constexpr const char* kEndToEnd[] = {
    "sim_speed", "capacity_cps", "setup_s", "peak_rss_mb",
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tcpzbench: %s\nusage: tcpzbench --workload "
               "<botnet_flood|fleet_hybrid|wire_storm> --seed N --seconds S "
               "--trace <0|1> [--commit ID] [--span-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  tcpzb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--commit") {
      opt.commit = argv[++i];
    } else if (a == "--span-dir") {
      opt.span_dir = argv[++i];
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.seconds <= 0) usage("--seconds must be positive");

  char tag;
  void (*run)(const tcpzb::Options&, tcpzb::Report&, tcpzb::Spans&);
  if (opt.workload == "botnet_flood") {
    tag = 'b';
    run = tcpzb::run_botnet_flood;
  } else if (opt.workload == "fleet_hybrid") {
    tag = 'f';
    run = tcpzb::run_fleet_hybrid;
  } else if (opt.workload == "wire_storm") {
    tag = 'w';
    run = tcpzb::run_wire_storm;
  } else {
    usage("unknown workload");
  }

  tcpzb::Report rep;
  tcpzb::Spans spans;
  if (opt.trace) spans.enable();
  run(opt, rep, spans);

  if (opt.trace) {
    for (const LayerMetric& m : kPerLayer) {
      const bool exercised = std::strchr(m.workloads, tag) != nullptr;
      if (rep.has(m.name)) continue;
      if (exercised) {
        rep.check(std::string("per-layer metric emitted: ") + m.name, false);
      }
      rep.metric(m.name, 0.0, m.unit);  // the layer did no work here
    }
    if (!opt.span_dir.empty()) {
      spans.write(opt.span_dir + "/" + opt.workload + "-seed" +
                  std::to_string(opt.seed) + ".json");
    }
  } else {
    for (const char* name : kEndToEnd) {
      rep.check(std::string("end-to-end metric emitted: ") + name,
                rep.has(name));
    }
  }
  rep.print_result();
  return 0;
}
