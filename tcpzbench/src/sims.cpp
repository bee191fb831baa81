// The two simulator workloads.
//
// botnet_flood  bench/mega_botnet's spec on one shard through
//               scenario::Engine: 120 patched conn-flood bots against one
//               production-size Nash-puzzle server, 120 s scaled timeline.
// fleet_hybrid  par::run at 2 shards: a 3-replica scale-out fleet behind a
//               5-tuple balancer, secret rotation every 30 s (8 s overlap),
//               shared replay cache, 1M-user hybrid population (cohort 1e-3),
//               a patched conn-flood botnet, 600 s timeline.
//
// A plain run repeats the scenario for about --seconds, times set-ups
// between the repetitions, and reports the median speed and the median
// set-up; every repetition must reproduce the first one's event and counter
// digest. A traced run times one plain repetition and one
// instrumented one (run_until sliced at the attack window, allocation
// counting, spans) and derives the per-layer metrics from them.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "par/engine.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "workload/spec.hpp"

namespace tcpzb {
namespace {

using namespace tcpz;

scenario::Spec botnet_flood_spec(const Options& opt) {
  scenario::Spec spec;
  spec.seed = opt.seed;
  spec = spec.scaled();  // 120 s, attack 30-80 s
  spec.servers.policies = {defense::PolicySpec::puzzles()};
  scenario::AttackSpec atk;
  atk.count = 120;
  atk.strategy = offense::StrategySpec::conn_flood(/*patched=*/true);
  spec.attacks = {atk};
  // Production-size server, as in bench/mega_botnet.cpp.
  spec.servers.n_workers = 8192;
  spec.servers.service_rate = 8800.0;
  spec.servers.listen_backlog = 16'384;
  spec.servers.accept_backlog = 4096;
  return spec;
}

scenario::Spec fleet_hybrid_spec(const Options& opt) {
  scenario::Spec spec;
  spec.seed = opt.seed;
  // The 600 s timeline with the attack over 120-300 s: with the 60 s
  // protection hold, fewer than half of the legitimate connects are
  // challenged, so the connect p50 sits in the unchallenged mode and the
  // p99 in the challenged one, both stable across seeds.
  spec.attack_end = SimTime::seconds(300);
  // 1M mostly idle subscribers (~3.6 requests/user/hour, 1000 req/s in
  // all). A 1e-3 cohort gives 1000 discrete agents, ~600 connect samples.
  spec.workload.model = workload::ModelSpec::hybrid(1'000'000, 1e-3);
  spec.workload.model->request_rate = 1e-3;
  spec.workload.request_rate = 1e-3;
  const auto policy = defense::PolicySpec::puzzles();
  spec.servers.count = 3;
  spec.servers.policies = {policy, policy, policy};
  spec.fleet.enabled = true;
  spec.fleet.balance = fleet::BalancePolicy::kFiveTupleHash;
  spec.fleet.divide_capacity = false;  // scale-out: full capacity per replica
  spec.fleet.rotation_interval = SimTime::seconds(30);
  spec.fleet.rotation_overlap = SimTime::seconds(8);
  spec.fleet.shared_replay_cache = true;
  scenario::AttackSpec atk;
  atk.strategy = offense::StrategySpec::conn_flood(/*patched=*/true);
  spec.attacks = {atk};
  return spec;
}

// -- digests -----------------------------------------------------------------

struct Digest {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

/// Event and counter totals of a run: equal digests for equal (seed, shards)
/// are the determinism contract the benchmark relies on.
std::uint64_t digest(const scenario::Result& r) {
  Digest d;
  d.add(r.events_processed);
#define TCPZ_X(name, help) d.add(r.cluster.name);
  TCPZ_LISTENER_COUNTER_FIELDS(TCPZ_X)
#undef TCPZ_X
  const auto host = [&](const sim::HostReport& h) {
#define TCPZ_X(name, help) d.add(h.name);
    TCPZ_HOST_REPORT_TOTAL_FIELDS(TCPZ_X)
#undef TCPZ_X
  };
  for (const auto& c : r.clients) host(c);
  for (const auto& c : r.fluid) host(c);
  for (const auto& g : r.groups) {
    for (const auto& b : g.bots) host(b);
  }
  d.add(r.secret_rotations);
  d.add(r.replay_cache_hits);
  d.add(r.lb.no_backend_drops);
  return d.h;
}

// -- shared metric extraction -----------------------------------------------

struct Windows {
  std::size_t pre_lo, pre_hi, atk_lo, atk_hi;
};

/// Legitimate-client connect latency samples (discrete agents; fluid mass
/// carries no per-connection samples), simulated ms.
std::vector<double> connect_samples(const scenario::Result& r) {
  std::vector<double> all;
  for (const auto& c : r.clients) {
    const auto& s = c.conn_time_ms.sorted();
    all.insert(all.end(), s.begin(), s.end());
  }
  return all;
}

/// Legitimate connections established per simulated second inside the
/// attack window, fluid mass included.
double legit_cps_under_attack(const scenario::Result& r, const Windows& w) {
  double sum = 0;
  for (const auto& c : r.clients) sum += c.established.mean_rate(w.atk_lo, w.atk_hi);
  for (const auto& c : r.fluid) sum += c.established.mean_rate(w.atk_lo, w.atk_hi);
  return sum;
}

double fail_pct(const scenario::Result& r) {
  return (1.0 - r.client_success_ratio()) * 100.0;
}

/// Outcome metrics a user of the simulator sees; identical in every
/// repetition of a (seed, shards) run.
void outcome_metrics(const scenario::Result& r, const Windows& w, Report& rep,
                     bool trace) {
  const std::vector<double> conn = connect_samples(r);
  if (trace) {
    rep.metric("fail_pct", fail_pct(r), "%");
    rep.metric("connect_p50_ms", quantile(conn, 0.50), "ms");
    rep.metric("connect_p99_ms", quantile(conn, 0.99), "ms");
    rep.metric("connect_samples", static_cast<double>(conn.size()), "count");
  } else {
    rep.metric("capacity_cps", legit_cps_under_attack(r, w), "1/s");
  }
}

void layer_counts(const scenario::Result& r, const scenario::Spec& spec,
                  Report& rep) {
  listener_metrics(r.cluster, rep);
  std::uint64_t attempts = 0, solves = 0;
  for (const auto& g : r.groups) {
    for (const auto& b : g.bots) {
      attempts += b.total_attempts;
      solves += b.challenges_seen - b.solves_refused;
    }
  }
  rep.metric("offense.attempts", static_cast<double>(attempts), "count");
  // Bots solve through the simulated CPU model, which reports no hash
  // counter: this is solved challenges times the expected solve cost.
  rep.metric("offense.hash_ops",
             static_cast<double>(solves) *
                 spec.servers.difficulty.expected_solve_hashes(),
             "count");
  rep.metric("fleet.rotations", static_cast<double>(r.secret_rotations), "count");
  rep.metric("fleet.prev_epoch_valid",
             static_cast<double>(r.cluster.solutions_valid_prev_epoch), "count");
  rep.metric("fleet.replay_hits", static_cast<double>(r.replay_cache_hits),
             "count");
  rep.metric("fleet.lb_no_backend_drops",
             static_cast<double>(r.lb.no_backend_drops), "count");
}

// -- timed runs --------------------------------------------------------------

/// Wall seconds of each set-up batch: one before every repetition of a
/// plain run and one after the last.
constexpr double kSetupBatchS = 0.25;

/// Samples the scenario's set-up cost: building (and starting) the whole
/// scenario world on one thread.
SetupSampler setup_sampler(const scenario::Spec& spec) {
  return SetupSampler([&spec] { const scenario::Engine engine(spec); });
}

struct SlicedRun {
  scenario::Result result;
  double setup_s = 0, pre_s = 0, attack_s = 0, post_s = 0, collect_s = 0;
  std::uint64_t allocs = 0;  ///< sliced runs: allocations in run_until + collect
  [[nodiscard]] double run_collect_s() const {
    return pre_s + attack_s + post_s + collect_s;
  }
};

/// One 1-shard run through scenario::Engine. Sliced runs stop run_until at
/// the attack window edges (the same events execute either way) and count
/// the allocations of run_until + collect.
SlicedRun engine_run(const scenario::Spec& spec, bool sliced, Spans& spans,
                     int parent) {
  SlicedRun out;
  double t = now_s();
  const auto lap = [&](double& into, const char* name) {
    const double n = now_s();
    into = n - t;
    spans.add(name, parent, 0, t, n);
    t = n;
  };
  scenario::Engine engine(spec);
  lap(out.setup_s, "setup");
  count_allocations(sliced);
  const std::uint64_t a0 = thread_allocations();
  if (sliced) {
    engine.run_until(spec.attack_start);
    lap(out.pre_s, "pre");
    engine.run_until(spec.attack_end);
    lap(out.attack_s, "attack");
  }
  engine.run_until(spec.duration);
  lap(out.post_s, sliced ? "post" : "run");
  out.result = engine.collect();
  lap(out.collect_s, "collect");
  out.allocs = thread_allocations() - a0;
  count_allocations(false);
  return out;
}

Windows botnet_windows(const scenario::Spec& s) {
  const std::size_t a = s.attack_start_bin(), e = s.attack_end_bin();
  return {a / 2, a - 2, a + (e - a) / 4, e - 1};
}

Windows fleet_windows(const scenario::Spec& s) {
  return {2, s.attack_start_bin() - 2, s.attack_start_bin() + 3,
          s.attack_end_bin() - 1};
}

bool botnet_checks(const scenario::Result& r, const Windows& w, Report& rep) {
  const double success = r.client_wire_success_pct(w.atk_lo, w.atk_hi);
  const double attacker_cps = r.server_attacker_cps(0, w.atk_lo, w.atk_hi);
  const double bot_rate = r.bot_measured_rate(w.atk_lo, w.atk_hi);
  std::printf("client_wire_success_attack_pct=%.4f attacker_cps=%.3f "
              "bot_attempt_rate=%.1f events=%llu\n",
              success, attacker_cps, bot_rate,
              static_cast<unsigned long long>(r.events_processed));
  bool ok = rep.check("clients keep connecting under the flood (>= 85% in the "
                      "attack window)",
                      success >= 85.0);
  ok &= rep.check("attacker admission pinned by solver (<= 2% of attempts)",
                  attacker_cps <= 0.02 * bot_rate + 1.0);
  ok &= rep.check("flood was challenged",
                  r.cluster.challenges_sent > 0 &&
                      r.cluster.challenges_sent <= r.cluster.syns_received);
  return ok;
}

bool fleet_checks(const scenario::Result& r, const Windows& w, Report& rep) {
  const double pre = r.client_rx_mbps(w.pre_lo, w.pre_hi);
  const double atk = r.client_rx_mbps(w.atk_lo, w.atk_hi);
  std::printf("goodput_pre_mbps=%.4f goodput_attack_mbps=%.4f rotations=%llu "
              "events=%llu\n",
              pre, atk, static_cast<unsigned long long>(r.secret_rotations),
              static_cast<unsigned long long>(r.events_processed));
  bool ok = rep.check(
      "fleet holds >= 70% of its benign (pre-attack) goodput through the flood",
      pre > 0 && atk >= 0.7 * pre);
  ok &= rep.check("secret rotated during the run", r.secret_rotations > 0);
  ok &= rep.check("1M users modeled",
                  r.fluid_users + r.clients.size() >= 1'000'000u);
  return ok;
}

void print_digest(const char* what, std::uint64_t d) {
  std::printf("digest %s 0x%016llx\n", what, static_cast<unsigned long long>(d));
}

/// Repeats `once` (returns run+collect wall seconds and the digest) at
/// least once, and again while another repetition as long as the last one
/// still fits in `seconds`; checks every repetition reproduces the first
/// digest. Returns the per-rep walls.
template <typename F>
std::vector<double> repeat(double seconds, Report& rep, F once) {
  std::vector<double> walls;
  std::uint64_t first = 0;
  bool same = true;
  const double t0 = now_s();
  while (walls.empty() || now_s() - t0 + walls.back() <= seconds) {
    const auto [wall, d] = once(walls.empty());
    if (walls.empty()) first = d;
    const bool rep_same = d == first;
    same &= rep_same;
    rep.operation(rep_same);
    walls.push_back(wall);
  }
  std::printf("repetitions=%zu walls_s=", walls.size());
  for (const double w : walls) std::printf("%.3f ", w);
  std::printf("\n");
  rep.check("every repetition reproduces the first run's event and counter "
            "totals",
            same);
  return walls;
}

/// The plain run's own metrics: median speed over the repetitions, set-up
/// and peak memory.
void plain_metrics(const std::vector<double>& walls, const scenario::Spec& spec,
                   const SetupSampler& setup, Report& rep) {
  std::vector<double> speeds;
  for (const double wall : walls) speeds.push_back(spec.duration.to_seconds() / wall);
  setup.print();
  rep.metric("sim_speed", median(speeds), "s/s");
  rep.metric("setup_s", setup.median_s(), "s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Per-layer timings of a sliced 1-shard run.
void engine_metrics(const SlicedRun& t, const scenario::Spec& spec, Report& rep) {
  const double events = static_cast<double>(t.result.events_processed);
  rep.metric("scenario.wall_per_sim_s.pre", t.pre_s / spec.attack_start.to_seconds(),
             "s/s");
  rep.metric("scenario.wall_per_sim_s.attack",
             t.attack_s / (spec.attack_end - spec.attack_start).to_seconds(), "s/s");
  rep.metric("scenario.wall_per_sim_s.post",
             t.post_s / (spec.duration - spec.attack_end).to_seconds(), "s/s");
  rep.metric("scenario.collect_s", t.collect_s, "s");
  rep.metric("net.events", events, "count");
  rep.metric("net.events_per_wall_s", events / t.run_collect_s(), "1/s");
  rep.metric("alloc.per_event", static_cast<double>(t.allocs) / events, "count");
}

}  // namespace

void run_botnet_flood(const Options& opt, Report& rep, Spans& spans) {
  const scenario::Spec spec = botnet_flood_spec(opt);
  const Windows w = botnet_windows(spec);
  print_label(opt, 1, "simulated network (no sockets)", pin_to_last_cpus(1));

  if (!opt.trace) {
    SetupSampler setup = setup_sampler(spec);
    const auto walls = repeat(opt.seconds, rep, [&](bool first) {
      setup.sample(kSetupBatchS);
      SlicedRun run = engine_run(spec, false, spans, -1);
      if (first) {
        botnet_checks(run.result, w, rep);
        outcome_metrics(run.result, w, rep, false);
        print_digest("shards=1", digest(run.result));
      }
      return std::pair{run.run_collect_s(), digest(run.result)};
    });
    setup.sample(kSetupBatchS);
    plain_metrics(walls, spec, setup, rep);
    return;
  }

  const int root = spans.begin("botnet_flood", -1, opt.seed);
  const int plain_span = spans.begin("plain_run", root, 0);
  const SlicedRun plain = engine_run(spec, false, spans, plain_span);
  spans.end(plain_span);
  const int traced_span = spans.begin("traced_run", root, 1);
  const SlicedRun traced = engine_run(spec, true, spans, traced_span);
  spans.end(traced_span);
  spans.end(root);

  const scenario::Result& r = traced.result;
  print_digest("shards=1", digest(r));
  rep.operation(rep.check("sliced run_until reproduces the unsliced run",
                          digest(r) == digest(plain.result)));
  rep.operation(botnet_checks(r, w, rep));
  engine_metrics(traced, spec, rep);
  layer_counts(r, spec, rep);
  outcome_metrics(r, w, rep, true);
  rep.metric("trace_overhead_pct",
             (traced.run_collect_s() / plain.run_collect_s() - 1.0) * 100.0, "%");
}

void run_fleet_hybrid(const Options& opt, Report& rep, Spans& spans) {
  const scenario::Spec spec = fleet_hybrid_spec(opt);
  const Windows w = fleet_windows(spec);
  constexpr int kShards = 2;
  print_label(opt, kShards, "simulated network (no sockets)", "all");

  if (!opt.trace) {
    // par::run does not expose its set-up: setup_s is the time to build the
    // whole world on one thread with scenario::Engine, which is what the
    // shards' engines build between them.
    SetupSampler setup = setup_sampler(spec);
    const auto walls = repeat(opt.seconds, rep, [&](bool first) {
      setup.sample(kSetupBatchS);
      const scenario::Result r = par::run(spec, {.shards = kShards});
      if (first) {
        fleet_checks(r, w, rep);
        outcome_metrics(r, w, rep, false);
        print_digest("shards=2", digest(r));
      }
      return std::pair{r.wall_seconds, digest(r)};
    });
    setup.sample(kSetupBatchS);
    plain_metrics(walls, spec, setup, rep);
    return;
  }

  const int root = spans.begin("fleet_hybrid", -1, opt.seed);
  int s = spans.begin("par_run_2_shards", root, kShards);
  const scenario::Result sharded = par::run(spec, {.shards = kShards});
  spans.end(s);
  s = spans.begin("par_run_1_shard", root, 1);
  const scenario::Result single = par::run(spec, {.shards = 1});
  spans.end(s);
  s = spans.begin("traced_run_1_shard", root, 1);
  const SlicedRun traced = engine_run(spec, true, spans, s);
  spans.end(s);
  spans.end(root);

  const scenario::Result& r = traced.result;
  print_digest("shards=1", digest(r));
  print_digest("shards=2", digest(sharded));
  rep.operation(rep.check("sliced 1-shard Engine run reproduces par::run at 1 shard",
                          digest(r) == digest(single)));
  rep.operation(fleet_checks(sharded, w, rep));
  engine_metrics(traced, spec, rep);
  // Fleet and outcome counters of the run the end-to-end metrics describe.
  layer_counts(sharded, spec, rep);
  outcome_metrics(sharded, w, rep, true);
  rep.metric("par.speedup", single.wall_seconds / sharded.wall_seconds, "ratio");
  rep.metric("par.event_inflation",
             static_cast<double>(sharded.events_processed) /
                 static_cast<double>(r.events_processed),
             "ratio");
  // lookahead() of the full single-shard world equals the sharded one's
  // (the minimum link delay); the Engine exposes it, par::run does not.
  const scenario::Engine probe(spec);
  rep.metric("par.rounds",
             spec.duration.to_seconds() / probe.lookahead().to_seconds(), "count");
  rep.metric("trace_overhead_pct",
             (traced.run_collect_s() + traced.setup_s) / single.wall_seconds *
                     100.0 -
                 100.0,
             "%");
}

}  // namespace tcpzb
