// Deadline-expiry edge cases of the agents' periodic loops that the scenario
// workloads never reach, pinned with fixed seeds on scripted peers:
//
//  * a bot attempt whose solve runs past attempt_timeout keeps its slot
//    while the solve runs and completes normally;
//  * a bot attempt stalled in the solving state with no solve running (the
//    solver refused it) times out on the first tick past attempt_timeout;
//  * a solve that outlasts 3 x attempt_timeout is abandoned and timed out;
//  * a recycled source port is timed out on its own deadline, not on the
//    deadline of the earlier attempt that used the port;
//  * a server worker that receives its request after it was accepted (and
//    so queued for reaping) is served, not reaped, while idle workers are
//    reaped on their own deadline — including a recycled 4-tuple.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "offense/strategy.hpp"
#include "puzzle/engine.hpp"
#include "sim/attacker_agent.hpp"
#include "sim/server_agent.hpp"
#include "tcp/connector.hpp"

namespace tcpz::sim {
namespace {

using tcp::ipv4;

constexpr std::uint32_t kServerAddr = ipv4(10, 1, 0, 1);
constexpr std::uint32_t kPeerAddr = ipv4(10, 2, 0, 1);

SimTime ms(std::int64_t v) { return SimTime::milliseconds(v); }

/// Returns solutions at a scripted hash cost, one cost per solve call, so a
/// test fixes how long each admitted solve occupies the bot's solver lane.
/// Nothing verifies the (all-zero) solutions: the scripted server ignores
/// solution ACKs.
class ScriptedCostEngine final : public puzzle::PuzzleEngine {
 public:
  explicit ScriptedCostEngine(std::vector<std::uint64_t> costs)
      : costs_(std::move(costs)) {}

  puzzle::Challenge make_challenge(const puzzle::FlowBinding&, std::uint32_t,
                                   puzzle::Difficulty) const override {
    return {};
  }
  puzzle::Solution solve(const puzzle::Challenge& ch,
                         const puzzle::FlowBinding&, Rng&,
                         std::uint64_t& hash_ops_out) const override {
    hash_ops_out = costs_.at(next_++);
    puzzle::Solution s;
    s.timestamp = ch.timestamp;
    for (unsigned i = 0; i < ch.diff.k; ++i) {
      s.values.push_back(puzzle::SolutionValue(ch.sol_len, 0));
    }
    return s;
  }
  puzzle::VerifyOutcome verify(const puzzle::FlowBinding&,
                               const puzzle::Solution&, puzzle::Difficulty,
                               std::uint32_t) const override {
    return {};
  }
  const puzzle::EngineConfig& config() const override { return cfg_; }

 private:
  std::vector<std::uint64_t> costs_;
  mutable std::size_t next_ = 0;
  puzzle::EngineConfig cfg_;
};

struct Verdict {
  SimTime at;
  offense::Outcome outcome;
  bool operator==(const Verdict&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Verdict& v) {
    return os << "{" << v.at.nanos() << " ns, outcome "
              << static_cast<int>(v.outcome) << "}";
  }
};

/// A patched connection flood that launches `budget` attempts, idles the
/// remaining slots, and logs every verdict the agent reports.
class RecordingFlood final : public offense::AttackStrategy {
 public:
  RecordingFlood(std::uint64_t budget, std::vector<Verdict>* log)
      : budget_(budget), log_(log) {}
  const char* name() const override { return "recording_flood"; }
  offense::SlotDecision on_slot(const offense::BotView&) override {
    offense::SlotDecision d;
    if (launched_ == budget_) {
      d.action = offense::SlotAction::kIdle;
    } else {
      ++launched_;
    }
    return d;
  }
  void on_outcome(const offense::BotView& v,
                  offense::Outcome outcome) override {
    log_->push_back({v.now, outcome});
  }

 private:
  std::uint64_t budget_;
  std::uint64_t launched_ = 0;
  std::vector<Verdict>* log_;
};

/// The SYN-ACK a scripted server answers `syn` with, optionally carrying a
/// (k=1, m=8) challenge stamped with `now`.
tcp::Segment synack_for(const tcp::Segment& syn, SimTime now, bool challenge) {
  tcp::Segment r;
  r.saddr = syn.daddr;
  r.daddr = syn.saddr;
  r.sport = syn.dport;
  r.dport = syn.sport;
  r.seq = 0x5eed;
  r.ack = syn.seq + 1;
  r.flags = tcp::kSyn | tcp::kAck;
  r.options.mss = 1460;
  if (challenge) {
    tcp::ChallengeOption c;
    c.k = 1;
    c.m = 8;
    c.sol_len = 4;
    c.embedded_ts = static_cast<std::uint32_t>(now.nanos() / 1'000'000);
    c.preimage.resize(4);
    r.options.challenge = c;
  }
  return r;
}

/// One bot wired to one scripted server host over a direct link.
struct BotRig {
  net::Simulator sim;
  net::Topology topo{sim};
  net::Host* bot = topo.add_host("bot", kPeerAddr);
  net::Host* server = topo.add_host("server", kServerAddr);
  std::vector<Verdict> verdicts;

  explicit BotRig(SimTime delay) {
    net::LinkSpec link;
    link.delay = delay;
    topo.connect(bot, server, link);
    topo.compute_routes();
  }

  AttackerAgentConfig config(std::uint64_t budget, double rate) {
    AttackerAgentConfig cfg;
    cfg.targets = {{kServerAddr, 80}};
    cfg.strategy = [this, budget] {
      return std::make_unique<RecordingFlood>(budget, &verdicts);
    };
    cfg.rate = rate;
    cfg.attack_start = SimTime::seconds(1);
    cfg.attack_end = SimTime::seconds(12);
    return cfg;
  }
};

TEST(AttackerExpiry, SolvesPastTheTimeoutGetGraceButNotForever) {
  BotRig rig(ms(1));
  rig.server->set_handler([&rig](SimTime now, const tcp::Segment& seg) {
    if (seg.is_syn() && !seg.is_syn_ack()) {
      rig.server->send(synack_for(seg, now, /*challenge=*/true));
    }
  });
  // One attempt per second from t=2 s (timeout 1 s, ticks every 100 ms from
  // t=1 s). The single solver lane runs at 1000 ops/s:
  //  #1 (2 s)  admitted, 3.5 s solve -> busy until 5.502 s; outlasts
  //            3 x timeout and is timed out at the 5.1 s tick.
  //  #2 (3 s)  lane busy past the timeout -> refused; stalls in the solving
  //            state with no solve running and times out at the 4.1 s tick.
  //  #3 (4 s)  refused likewise; times out at the 5.1 s tick.
  //  #4 (5 s)  admitted behind #1's lane booking, 1.5 s solve -> done at
  //            7.002 s, 2 s after launch: it establishes.
  AttackerAgentConfig cfg = rig.config(4, 1.0);
  cfg.engine = std::make_shared<ScriptedCostEngine>(
      std::vector<std::uint64_t>{3'500, 1'500});
  cfg.cpu = {1'000.0, 2, 1};
  cfg.solve_ops_rate = 1'000.0;
  AttackerAgent agent(rig.sim, *rig.bot, cfg, 42);
  agent.start(SimTime::seconds(12));
  rig.sim.run_until(SimTime::seconds(12));

  // A challenge arrives one round trip after its SYN left: two 1 ms hops
  // plus the SYN's and the SYN-ACK's serialization at 1 Gb/s.
  const SimTime rtt = SimTime::nanoseconds(2'000'960);
  using offense::Outcome;
  const std::vector<Verdict> expect = {
      {ms(3'000) + rtt, Outcome::kSolveRefused},
      {ms(4'000) + rtt, Outcome::kSolveRefused},
      {ms(4'100), Outcome::kTimeout},
      {ms(5'100), Outcome::kTimeout},
      {ms(5'100), Outcome::kTimeout},
      {ms(7'000) + rtt, Outcome::kEstablished},
  };
  EXPECT_EQ(rig.verdicts, expect);
  const HostReport& r = agent.report();
  EXPECT_EQ(r.total_attempts, 4u);
  EXPECT_EQ(r.challenges_seen, 4u);
  EXPECT_EQ(r.solves_refused, 2u);
  EXPECT_EQ(r.total_failures, 3u);
  EXPECT_EQ(r.total_established, 1u);
}

TEST(AttackerExpiry, RecycledSourcePortKeepsItsOwnDeadline) {
  // 100k attempts/s from t=1 s: every source port in [1024, 65535] is used
  // once within 0.65 s, then port 1025 is used again (1024 and 1026 are
  // still busy). The server never answers ports 1024 and 1026 or the second
  // attempt on port 1025; everything else establishes at once. The first
  // two time out at the 2.1 s tick. The recycled attempt, launched at
  // ~1.645 s, must time out at the 2.7 s tick: neither early, on the
  // deadline of the attempt that held its port before, nor holding up the
  // port-1026 timeout queued behind that earlier attempt.
  BotRig rig(SimTime::microseconds(100));
  std::vector<int> syns_seen(65'536, 0);
  rig.server->set_handler(
      [&rig, &syns_seen](SimTime now, const tcp::Segment& seg) {
        if (!seg.is_syn() || seg.is_syn_ack()) return;
        const int nth = ++syns_seen[seg.sport];
        if (seg.sport == 1024 || seg.sport == 1026 ||
            (seg.sport == 1025 && nth == 2)) {
          return;
        }
        rig.server->send(synack_for(seg, now, /*challenge=*/false));
      });
  constexpr std::uint64_t kLaunches = (65'536 - 1'024) + 1;
  AttackerAgent agent(rig.sim, *rig.bot, rig.config(kLaunches, 100'000.0),
                      43);
  agent.start(SimTime::seconds(4));
  rig.sim.run_until(SimTime::seconds(4));

  std::vector<Verdict> timeouts;
  std::uint64_t established = 0;
  for (const Verdict& v : rig.verdicts) {
    if (v.outcome == offense::Outcome::kTimeout) timeouts.push_back(v);
    if (v.outcome == offense::Outcome::kEstablished) ++established;
  }
  const std::vector<Verdict> expect = {
      {ms(2'100), offense::Outcome::kTimeout},
      {ms(2'100), offense::Outcome::kTimeout},
      {ms(2'700), offense::Outcome::kTimeout},
  };
  EXPECT_EQ(timeouts, expect);
  EXPECT_EQ(established, kLaunches - 3);
  EXPECT_EQ(syns_seen[1025], 2);
  EXPECT_EQ(agent.report().total_attempts, kLaunches);
}

/// Drives scripted connections from one peer host against a ServerAgent:
/// per local port, when to connect and when to send a request.
struct ScriptedClients {
  struct Conn {
    std::unique_ptr<tcp::Connector> connector;
    int responses = 0;
  };

  net::Simulator& sim;
  net::Host& host;
  std::unordered_map<std::uint16_t, Conn> conns = {};

  void send_all(const std::vector<tcp::Segment>& segs) {
    for (const tcp::Segment& s : segs) host.send(s);
  }
  void connect_at(SimTime at, std::uint16_t port) {
    sim.schedule_at(at, [this, port] {
      tcp::ConnectorConfig cc;
      cc.local_addr = kPeerAddr;
      cc.local_port = port;
      cc.remote_addr = kServerAddr;
      cc.remote_port = 80;
      cc.solve_puzzles = false;
      Conn& c = conns[port];
      c.connector = std::make_unique<tcp::Connector>(cc, port);
      send_all(c.connector->start(sim.now()).segments);
    });
  }
  void request_at(SimTime at, std::uint16_t port) {
    sim.schedule_at(at, [this, port] {
      host.send(conns[port].connector->make_data_segment(sim.now(), 200));
    });
  }
  void on_segment(SimTime now, const tcp::Segment& seg) {
    Conn& c = conns[seg.dport];
    if (!c.connector) return;
    if (seg.payload_bytes > 0) {
      ++c.responses;
      return;
    }
    send_all(c.connector->on_segment(now, seg).segments);
  }
};

TEST(ServerExpiry, LateRequestsAreServedAndIdleWorkersReapedOnTheirDeadline) {
  net::Simulator sim;
  net::Topology topo(sim);
  net::Host* peer = topo.add_host("peer", kPeerAddr);
  net::Host* server_host = topo.add_host("server", kServerAddr);
  topo.connect(peer, server_host, net::LinkSpec{});
  topo.compute_routes();

  ServerAgentConfig cfg;
  cfg.listener.local_addr = kServerAddr;
  cfg.listener.policy = defense::PolicySpec::none().factory();
  cfg.service_rate = 20.0;
  cfg.n_workers = 16;
  ServerAgent server(sim, *server_host, cfg, crypto::SecretKey::from_seed(5),
                     7, nullptr);
  ScriptedClients clients{sim, *peer};
  peer->set_handler([&clients](SimTime now, const tcp::Segment& seg) {
    clients.on_segment(now, seg);
  });

  // Idle timeout 5 s, server ticks every 100 ms from t=0:
  //  5001  connects at 1 s, never asks: reaped at the 6.1 s tick.
  //  5002  connects at 1 s, asks at 4 s (after being queued for reaping).
  //  5003  connects at 1 s, asks at 6.095 s: past its idle deadline and
  //        just before the tick that would reap it. Service runs at 20/s,
  //        so the request is still waiting at that tick: it is served, not
  //        reaped.
  //  5004  connects at 1.5 s and asks at 2 s (served, closed), then
  //        reconnects on the same 4-tuple at 2.5 s and idles: reaped on its
  //        second acceptance's deadline (accepted by the 2.6 s tick, reaped
  //        by the 7.7 s one), not on the first's.
  clients.connect_at(ms(1'000), 5001);
  clients.connect_at(ms(1'000), 5002);
  clients.connect_at(ms(1'000), 5003);
  clients.connect_at(ms(1'500), 5004);
  clients.request_at(ms(2'000), 5004);
  clients.connect_at(ms(2'500), 5004);
  clients.request_at(ms(4'000), 5002);
  clients.request_at(ms(6'095), 5003);

  std::vector<int> busy;
  for (const std::int64_t t : {5'950, 6'099, 6'101, 7'550, 7'750}) {
    sim.schedule_at(ms(t), [&busy, &server] {
      busy.push_back(server.busy_workers());
    });
  }
  server.start(SimTime::seconds(10));
  sim.run_until(SimTime::seconds(10));

  EXPECT_EQ(busy, (std::vector<int>{3, 3, 2, 1, 0}));
  EXPECT_EQ(clients.conns[5001].responses, 0);
  EXPECT_EQ(clients.conns[5002].responses, 1);
  EXPECT_EQ(clients.conns[5003].responses, 1);
  EXPECT_EQ(clients.conns[5004].responses, 1);
  EXPECT_EQ(server.listener().counters().established_total, 5u);
}

}  // namespace
}  // namespace tcpz::sim
