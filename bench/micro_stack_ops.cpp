// Microbenchmarks of the non-crypto hot paths: listener SYN processing in
// each defence mode (the per-packet cost an attack packet imposes), the
// listener's retransmit tick over a full listen queue, the full-segment wire
// codec, flat vs node-based flow-table lookups, and the discrete-event core.
// These bound the packet rates the userspace stack itself can absorb.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <unordered_map>

#include "crypto/secret.hpp"
#include "net/simulator.hpp"
#include "puzzle/engine.hpp"
#include "tcp/listener.hpp"
#include "tcp/wire_format.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

using namespace tcpz;

namespace {

tcp::Segment make_syn(std::uint32_t saddr, std::uint16_t sport) {
  tcp::Segment s;
  s.saddr = saddr;
  s.daddr = tcp::ipv4(10, 1, 0, 1);
  s.sport = sport;
  s.dport = 80;
  s.seq = saddr ^ sport;
  s.flags = tcp::kSyn;
  s.options.mss = 1460;
  s.options.ts = tcp::TimestampsOption{1, 0};
  return s;
}

/// SYN processing cost per defence mode, with the queues saturated so the
/// defence path (drop / cookie / challenge) is the one measured. Every SYN
/// first misses in the listen queue; the 16,384-entry case shows that
/// lookup's cost once the table no longer sits in cache.
void BM_ListenerSynUnderAttack(benchmark::State& state) {
  const auto mode = static_cast<tcp::DefenseMode>(state.range(0));
  const auto backlog = static_cast<std::uint32_t>(state.range(1));
  tcp::ListenerConfig cfg;
  cfg.local_addr = tcp::ipv4(10, 1, 0, 1);
  cfg.local_port = 80;
  cfg.listen_backlog = backlog;
  cfg.accept_backlog = 64;
  cfg.mode = mode;
  cfg.difficulty = {2, 17};
  const auto secret = crypto::SecretKey::from_seed(1);
  auto engine = std::make_shared<puzzle::OraclePuzzleEngine>(
      secret, puzzle::EngineConfig{4, 4000, 100});
  tcp::Listener listener(cfg, secret, 1,
                         mode == tcp::DefenseMode::kPuzzles ? engine : nullptr);

  // Saturate the listen queue.
  SimTime now = SimTime::seconds(1);
  for (std::uint32_t i = 0; i < backlog; ++i) {
    (void)listener.on_segment(now, make_syn(tcp::ipv4(10, 2, 0, 1) + i, 1000));
  }

  Rng rng(2);
  std::uint32_t n = 0;
  for (auto _ : state) {
    const auto out = listener.on_segment(
        now, make_syn(tcp::ipv4(100, 64, 0, 0) +
                          static_cast<std::uint32_t>(rng.uniform_u64(1 << 20)),
                      static_cast<std::uint16_t>(1024 + (n++ % 60'000))));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ListenerSynUnderAttack)
    ->ArgNames({"mode", "backlog"})
    ->Args({static_cast<int>(tcp::DefenseMode::kNone), 64})
    ->Args({static_cast<int>(tcp::DefenseMode::kSynCookies), 64})
    ->Args({static_cast<int>(tcp::DefenseMode::kPuzzles), 64})
    ->Args({static_cast<int>(tcp::DefenseMode::kNone), 16'384});

/// One retransmit/expiry tick over a full 16,384-entry listen queue whose
/// deadlines are spread evenly over one SYN-ACK timeout of 100 ticks, so
/// ~1% of the entries are due per tick. Each due entry expires (no retries)
/// and, outside the timed region, a fresh SYN takes its slot with the
/// latest deadline, which keeps the queue full and the due share steady.
void BM_ListenerTickFullQueue(benchmark::State& state) {
  constexpr std::uint32_t kEntries = 16'384;
  constexpr int kTicksPerTimeout = 100;
  tcp::ListenerConfig cfg;
  cfg.local_addr = tcp::ipv4(10, 1, 0, 1);
  cfg.local_port = 80;
  cfg.listen_backlog = kEntries;
  cfg.accept_backlog = 64;
  cfg.mode = tcp::DefenseMode::kNone;
  cfg.synack_timeout = SimTime::seconds(1);
  cfg.max_synack_retries = 0;
  const auto secret = crypto::SecretKey::from_seed(1);
  tcp::Listener listener(cfg, secret, 1, nullptr);

  const SimTime tick =
      SimTime::nanoseconds(cfg.synack_timeout.nanos() / kTicksPerTimeout);
  const SimTime gap =
      SimTime::nanoseconds(cfg.synack_timeout.nanos() / kEntries);
  SimTime now = SimTime::seconds(1);
  std::uint32_t next = 0;
  const auto admit = [&](SimTime at) {
    const std::uint32_t i = next++;
    (void)listener.on_segment(
        at, make_syn(tcp::ipv4(10, 2, 0, 0) + i / 60'000,
                     static_cast<std::uint16_t>(1024 + i % 60'000)));
  };
  for (std::uint32_t i = 0; i < kEntries; ++i) admit(now + gap * i);
  now += cfg.synack_timeout;

  std::uint64_t expired = 0;
  for (auto _ : state) {
    now += tick;
    const auto before = listener.counters().half_open_expired;
    benchmark::DoNotOptimize(listener.on_tick(now));
    state.PauseTiming();
    const auto due = listener.counters().half_open_expired - before;
    expired += due;
    for (std::uint64_t k = 0; k < due; ++k) admit(now);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["due/tick"] = benchmark::Counter(
      static_cast<double>(expired) / static_cast<double>(state.iterations()));
  state.counters["depth"] =
      benchmark::Counter(static_cast<double>(listener.listen_depth()));
}
BENCHMARK(BM_ListenerTickFullQueue);

void BM_ListenerNormalHandshake(benchmark::State& state) {
  tcp::ListenerConfig cfg;
  cfg.local_addr = tcp::ipv4(10, 1, 0, 1);
  cfg.local_port = 80;
  cfg.listen_backlog = 1 << 16;
  cfg.accept_backlog = 1 << 16;
  const auto secret = crypto::SecretKey::from_seed(1);
  tcp::Listener listener(cfg, secret, 1, nullptr);

  const SimTime now = SimTime::seconds(1);
  std::uint32_t i = 0;
  for (auto _ : state) {
    const tcp::Segment syn =
        make_syn(tcp::ipv4(10, 2, 0, 0) + (i % 250), static_cast<std::uint16_t>(
                                                         1024 + (i / 250) % 60'000));
    ++i;
    const auto synack = listener.on_segment(now, syn);
    if (synack) {
      tcp::Segment ack;
      ack.saddr = syn.saddr;
      ack.daddr = syn.daddr;
      ack.sport = syn.sport;
      ack.dport = syn.dport;
      ack.seq = syn.seq + 1;
      ack.ack = synack->seq + 1;
      ack.flags = tcp::kAck;
      benchmark::DoNotOptimize(listener.on_segment(now, ack));
    }
    (void)listener.accept(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ListenerNormalHandshake);

// Flat vs node-based lookup on two per-packet tables: the listener's
// established-flow table at about 12k flows (every SYN looks its flow up and
// misses; a data segment hits) and a router's route table. The names start
// with "Listener" so CI's Listener smoke filter runs them.
using FlowTableFlat = FlatMap<tcp::FlowKey, tcp::AcceptedConnection,
                              tcp::FlowKeyHash>;
using FlowTableNode = std::unordered_map<tcp::FlowKey, tcp::AcceptedConnection,
                                         tcp::FlowKeyHash>;
using RouteTableFlat = FlatMap<std::uint32_t, std::uintptr_t, IntHash>;
using RouteTableNode = std::unordered_map<std::uint32_t, std::uintptr_t>;

template <typename K, typename V, typename H>
bool has_key(const FlatMap<K, V, H>& m, const K& k) {
  return m.find(k) != nullptr;
}
template <typename K, typename V, typename H>
bool has_key(const std::unordered_map<K, V, H>& m, const K& k) {
  return m.find(k) != m.end();
}

tcp::FlowKey table_flow(std::uint32_t i, std::uint16_t port_base) {
  return {tcp::ipv4(10, 2, 0, 0) + i / 50,
          static_cast<std::uint16_t>(port_base + i % 50),
          tcp::ipv4(10, 1, 0, 1), 80};
}

/// range(0): 1 looks up present flows, 0 absent ones.
template <typename Table>
void BM_ListenerEstablishedLookup(benchmark::State& state) {
  constexpr std::uint32_t kFlows = 12'288;
  const bool hit = state.range(0) != 0;
  Table table;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    table[table_flow(i, 1024)] = tcp::AcceptedConnection{};
  }
  const std::uint16_t probe_base = hit ? 1024 : 2048;
  std::uint32_t i = 0;
  for (auto _ : state) {
    // A stride coprime with kFlows walks the table out of insertion order.
    i = (i + 7'919) % kFlows;
    benchmark::DoNotOptimize(has_key(table, table_flow(i, probe_base)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_ListenerEstablishedLookup, FlowTableFlat)
    ->ArgName("hit")->Arg(1)->Arg(0);
BENCHMARK_TEMPLATE(BM_ListenerEstablishedLookup, FlowTableNode)
    ->ArgName("hit")->Arg(1)->Arg(0);

/// A router's exact-match route lookup, one per hop, over 512 host routes.
template <typename Table>
void BM_ListenerPathRouteLookup(benchmark::State& state) {
  constexpr std::uint32_t kRoutes = 512;
  Table table;
  for (std::uint32_t i = 0; i < kRoutes; ++i) {
    table[tcp::ipv4(10, 2, 0, 0) + i] = i;
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    i = (i + 101) % kRoutes;
    benchmark::DoNotOptimize(has_key(table, tcp::ipv4(10, 2, 0, 0) + i));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_ListenerPathRouteLookup, RouteTableFlat);
BENCHMARK_TEMPLATE(BM_ListenerPathRouteLookup, RouteTableNode);

void BM_WireEncodeDecode(benchmark::State& state) {
  tcp::Segment s = make_syn(tcp::ipv4(10, 2, 0, 1), 40'000);
  tcp::ChallengeOption c;
  c.k = 2;
  c.m = 17;
  c.sol_len = 4;
  c.preimage = {1, 2, 3, 4};
  s.options.challenge = c;
  for (auto _ : state) {
    const Bytes wire = tcp::encode_segment(s);
    benchmark::DoNotOptimize(tcp::decode_segment(wire));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WireEncodeDecode);

/// The link-delivery copy: one challenge-bearing segment copied by value
/// plus its wire-size charge, exactly what Link::transmit pays per packet.
/// With the inline option buffers this is a memcpy + arithmetic — zero heap.
void BM_SegmentCopyChallenge(benchmark::State& state) {
  tcp::Segment s = make_syn(tcp::ipv4(10, 2, 0, 1), 40'000);
  tcp::ChallengeOption c;
  c.k = 2;
  c.m = 17;
  c.sol_len = 8;
  c.embedded_ts = 1000;
  c.preimage = Bytes(8, 0x5a);
  s.options.challenge = c;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    tcp::Segment copy = s;  // NOLINT(performance-unnecessary-copy)
    benchmark::DoNotOptimize(copy);
    bytes += copy.wire_size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["wire_bytes/copy"] = benchmark::Counter(
      static_cast<double>(bytes) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SegmentCopyChallenge);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    net::Simulator sim;
    constexpr int kEvents = 10'000;
    int fired = 0;
    for (int i = 0; i < kEvents; ++i) {
      sim.schedule_at(SimTime::microseconds(i), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10'000);
}
BENCHMARK(BM_SimulatorEventThroughput);

}  // namespace

BENCHMARK_MAIN();
