// The real-socket workload: wire::Host under a stepped legitimate load with a
// fixed-rate attack flood beside it, all on loopback UDP.
//
// Three threads: the host's loop and two instances of the benchmark's own
// open-loop generator. Each generator launches legitimate patched connects
// (tcp::Connector over the tcp/wire_format codec, real SHA-256 solving) at
// fixed due times and measures each from its due time to established, so
// a late generator and a slow host both show up as latency rather than as
// a lower offered rate. Beside them each generator emits its half of the
// flood: spoofed-source SYNs (the host mints a challenge and answers into
// the void) alternating with bogus-solution connects (the challenge is
// answered with random solution bytes, redrawn until they certainly fail,
// which the host must verify and reject).
// Socket I/O is batched (sendmmsg/recvmmsg) so the generators are cheaper
// per connection than the host they load.
//
// Each measurement step builds a fresh Host, runs both generators for the
// step length, waits until the host has read every datagram they sent (a
// probe SYN answered last), then stops the host and reads its counters. A
// plain run measures set-up and then rounds of one reference-rate step and
// a sweep of rising rates below the knee; a traced run measures the
// reference rate twice, plain and with timing decorators around the defense
// policy and puzzle engine.
//
// Capacity is measured in host CPU time, not found as a wall-clock knee. On
// a shared virtual machine the hypervisor took 20-26% of the vCPUs' time
// under this load, in phases of seconds to minutes. The wall-clock knee (the
// highest rate meeting latency and loss limits) moved between 33k and 57k
// conn/s within minutes, while the host thread's CPU time for a step at a
// given rate stayed within about 10%. So the run fits the host thread's CPU
// share against the offered rate over all its sweep steps, and the capacity
// is the rate at which that share would reach one whole CPU.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "puzzle/engine.hpp"
#include "tcp/connector.hpp"
#include "tcp/wire_format.hpp"
#include "util/rng.hpp"
#include "wire/host.hpp"

namespace tcpzb {
namespace {

using namespace tcpz;

// -- fixed workload parameters ------------------------------------------------

/// Always-challenge puzzles at k=2 and the smallest m: the host's verify
/// cost is O(k) and independent of m, and at m=1 a legitimate solve costs
/// the generators about 4 hashes instead of 2^(m+1), which keeps them well
/// below the host's knee. Random bytes solve a value with probability 1/2
/// here, so the flood's bogus solutions are redrawn until they fail (see
/// Generator::handle).
constexpr puzzle::Difficulty kDifficulty{2, 1};
/// Legitimate rate at which latency is reported; well below the knee.
constexpr double kReferenceRate = 4000.0;
/// Legitimate rates of one capacity sweep. The highest stays well below the
/// slowest wall-clock knee seen on a 4-vCPU guest (about 33k conn/s in a
/// heavily stolen stretch): at 20k conn/s the host fell 50-110 ms behind in
/// such stretches, close to what the socket buffer holds.
constexpr double kSweepRates[] = {4000.0, 8000.0, 12000.0, 16000.0};
/// Emission length of one step (the generators then drain in-flight
/// attempts).
constexpr double kStepS = 0.5;
/// Sweep rounds a plain run takes at the least.
constexpr int kMinRounds = 3;
/// Attack flood, slots per second over both generators: half spoofed SYNs,
/// half bogus-solution connects.
constexpr double kFloodRate = 10000.0;
constexpr int kGenerators = 2;
/// Generator validity guard: at the capacity, the busier generator's CPU
/// share, fitted over the same sweep steps, must stay at or below this.
/// Otherwise the generators could not have offered that load, and the
/// figure would not be the host's.
constexpr double kBusyLimitPct = 95.0;

/// Socket buffer size asked for on every socket of the workload, the host's
/// included (the kernel caps it at net.core.rmem_max / wmem_max). At the
/// default (about 200 KiB, a millisecond of traffic here) every vCPU stall
/// of a millisecond or more overflowed a buffer, and the knee measured how
/// often the machine stalled: losses began at 9k conn/s, and the knee fell
/// by 37% between two sets of runs of the same code. With a few MiB a stall
/// below the knee only delays datagrams, and the host reads every one.
constexpr int kSocketBufferBytes = 4 << 20;

const std::uint32_t kHostAddr = tcp::ipv4(10, 1, 0, 1);
constexpr std::uint16_t kFirstPort = 10'000;
/// Local port of the probe SYN that ends a step (below every attempt port).
constexpr std::uint16_t kProbePort = kFirstPort - 1;
/// How long a generator waits for the probe's answer.
constexpr double kProbeTimeoutS = 2.0;
const SimTime kAttemptTimeout = SimTime::milliseconds(600);

puzzle::EngineConfig engine_config() {
  puzzle::EngineConfig cfg;
  cfg.sol_len = 4;
  return cfg;
}

/// The host under test: always-challenge puzzles at kDifficulty.
wire::HostConfig host_config() {
  auto policy = defense::PolicySpec::puzzles();
  policy.always_challenge = true;
  wire::HostConfig hc;
  hc.listener.local_addr = kHostAddr;
  hc.listener.local_port = 80;
  hc.listener.difficulty = kDifficulty;
  hc.listener.listen_backlog = 4096;
  // Room for every connection of a step. The host drains its socket until
  // it is empty before it serves its timer, so while it is behind it does
  // not drain the accept queue either; with 4096 slots, stretches where
  // the host fell 50 ms behind at 20k conn/s filled the queue, and the
  // listener ignored final ACKs (the section 5 deception) in 6 of 10 runs.
  hc.listener.accept_backlog = 16'384;
  hc.listener.policy = policy.factory();
  return hc;
}

/// Asks for kSocketBufferBytes of receive and send buffer on `fd`; returns
/// the receive buffer the kernel granted.
int widen_buffers(int fd) {
  const int want = kSocketBufferBytes;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &want, sizeof want);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &want, sizeof want);
  int got = 0;
  socklen_t len = sizeof got;
  (void)::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &got, &len);
  return got;
}

/// wire::HostConfig has no socket-buffer option, so this finds the host's
/// UDP socket among the process's descriptors by its bound port and widens
/// it, as an operator would through net.core.rmem_default. Returns the
/// granted receive buffer, or 0 when no socket is bound to `port`.
int widen_host_buffers(std::uint16_t port) {
  for (int fd = 0; fd < 1024; ++fd) {
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    int type = 0;
    socklen_t tlen = sizeof type;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
        addr.sin_family == AF_INET && ntohs(addr.sin_port) == port &&
        ::getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &tlen) == 0 &&
        type == SOCK_DGRAM) {
      return widen_buffers(fd);
    }
  }
  return 0;
}

// -- timing decorators --------------------------------------------------------

struct NsStat {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  [[nodiscard]] double mean() const {
    return calls ? static_cast<double>(ns) / static_cast<double>(calls) : 0.0;
  }
};

/// Only the host thread touches these; read them after Host::join().
struct LayerTimes {
  NsStat on_syn, on_ack, make_challenge, verify_valid, verify_invalid;
};

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class TimedPolicy final : public defense::DefensePolicy {
 public:
  TimedPolicy(std::unique_ptr<defense::DefensePolicy> inner, LayerTimes* times)
      : inner_(std::move(inner)), times_(times) {}
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void observe(SimTime now, const defense::QueueView& q) override {
    inner_->observe(now, q);
  }
  [[nodiscard]] defense::SynDecision on_syn(SimTime now,
                                            const defense::QueueView& q) override {
    const std::uint64_t t0 = steady_ns();
    const auto d = inner_->on_syn(now, q);
    record(times_->on_syn, t0);
    return d;
  }
  [[nodiscard]] defense::AckDecision on_ack(
      SimTime now, const defense::QueueView& q) const override {
    const std::uint64_t t0 = steady_ns();
    const auto d = inner_->on_ack(now, q);
    record(times_->on_ack, t0);
    return d;
  }
  [[nodiscard]] defense::TickDecision on_tick(
      SimTime now, const defense::QueueView& q,
      const tcp::ListenerCounters& counters) override {
    return inner_->on_tick(now, q, counters);
  }
  [[nodiscard]] bool protection_active(const defense::QueueView& q) const override {
    return inner_->protection_active(q);
  }
  [[nodiscard]] bool requires_engine() const override {
    return inner_->requires_engine();
  }

 private:
  static void record(NsStat& s, std::uint64_t t0) {
    s.ns += steady_ns() - t0;
    ++s.calls;
  }
  std::unique_ptr<defense::DefensePolicy> inner_;
  LayerTimes* times_;
};

class TimedEngine final : public puzzle::PuzzleEngine {
 public:
  TimedEngine(std::shared_ptr<const puzzle::PuzzleEngine> inner, LayerTimes* times)
      : inner_(std::move(inner)), times_(times) {}
  [[nodiscard]] puzzle::Challenge make_challenge(const puzzle::FlowBinding& flow,
                                                 std::uint32_t timestamp_ms,
                                                 puzzle::Difficulty diff) const override {
    const std::uint64_t t0 = steady_ns();
    auto c = inner_->make_challenge(flow, timestamp_ms, diff);
    times_->make_challenge.ns += steady_ns() - t0;
    ++times_->make_challenge.calls;
    return c;
  }
  [[nodiscard]] puzzle::Solution solve(const puzzle::Challenge& challenge,
                                       const puzzle::FlowBinding& flow, Rng& rng,
                                       std::uint64_t& hash_ops_out) const override {
    return inner_->solve(challenge, flow, rng, hash_ops_out);
  }
  [[nodiscard]] puzzle::VerifyOutcome verify(const puzzle::FlowBinding& flow,
                                             const puzzle::Solution& solution,
                                             puzzle::Difficulty diff,
                                             std::uint32_t now_ms) const override {
    const std::uint64_t t0 = steady_ns();
    const auto v = inner_->verify(flow, solution, diff, now_ms);
    NsStat& s = v.ok ? times_->verify_valid : times_->verify_invalid;
    s.ns += steady_ns() - t0;
    ++s.calls;
    return v;
  }
  [[nodiscard]] const puzzle::EngineConfig& config() const override {
    return inner_->config();
  }

 private:
  std::shared_ptr<const puzzle::PuzzleEngine> inner_;
  LayerTimes* times_;
};

// -- the open-loop generator ---------------------------------------------------

struct GenResult {
  std::uint64_t attempts = 0;     ///< legitimate attempts due in the step
  std::uint64_t established = 0;  ///< legitimate handshakes completed
  std::uint64_t failed = 0;
  std::uint64_t solves = 0;
  std::uint64_t hash_ops = 0;
  std::uint64_t bogus_acks = 0;
  std::uint64_t spoofed_syns = 0;
  std::uint64_t decode_errors = 0;
  /// Legit due -> established in completion order; failures at the attempt
  /// timeout.
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;  ///< due -> SYN handed to the socket
  std::vector<double> solve_us;
  double cpu_s = 0;      ///< generator thread CPU over the step (summed)
  double max_cpu_s = 0;  ///< the busier generator thread's CPU
  double wall_s = 0;     ///< step wall time, emission plus drain
  double busy_pct = 0;   ///< the busier generator's CPU share of its wall time
  bool probe_answered = true;  ///< the host answered every generator's probe

  [[nodiscard]] double fail_pct() const {
    return attempts ? 100.0 * static_cast<double>(failed) /
                          static_cast<double>(attempts)
                    : 0.0;
  }
  void merge(const GenResult& o) {
    attempts += o.attempts;
    established += o.established;
    failed += o.failed;
    solves += o.solves;
    hash_ops += o.hash_ops;
    bogus_acks += o.bogus_acks;
    spoofed_syns += o.spoofed_syns;
    decode_errors += o.decode_errors;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    lateness_ms.insert(lateness_ms.end(), o.lateness_ms.begin(), o.lateness_ms.end());
    solve_us.insert(solve_us.end(), o.solve_us.begin(), o.solve_us.end());
    cpu_s += o.cpu_s;
    max_cpu_s = std::max(max_cpu_s, o.max_cpu_s);
    wall_s = std::max(wall_s, o.wall_s);
    busy_pct = std::max(busy_pct, o.busy_pct);
    probe_answered = probe_answered && o.probe_answered;
  }
};

/// One generator thread's load: legitimate connects at `legit_rate` and
/// flood slots at `flood_rate` for `seconds`.
struct Load {
  double legit_rate = 0;
  double flood_rate = 0;
  double seconds = 0;
};

class Generator {
 public:
  /// Generator `index` sends from its own socket and model addresses
  /// (10.2.0.index+1 for legitimate connects, 10.3.0.index+1 for bogus ones).
  Generator(int index, std::uint64_t seed)
      : legit_addr_(tcp::ipv4(10, 2, 0, static_cast<unsigned>(index + 1))),
        bogus_addr_(tcp::ipv4(10, 3, 0, static_cast<unsigned>(index + 1))),
        rng_(seed),
        solver_(crypto::SecretKey::from_seed(seed ^ 0x9e3779b97f4a7c15ull),
                engine_config()),
        // One slot per local port, built up front: the memory an attempt
        // needs does not depend on the offered rate.
        slots_(65'536) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    if (fd_ < 0) throw std::runtime_error("generator: socket failed");
    buffer_bytes_ = widen_buffers(fd_);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("generator: bind failed");
    }
  }
  ~Generator() { ::close(fd_); }
  /// Receive buffer the kernel granted this generator's socket, bytes.
  [[nodiscard]] int buffer_bytes() const { return buffer_bytes_; }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Runs one step against the host on `host_port`, then drains in-flight
  /// attempts. With `spans` set every legitimate connect becomes a span
  /// under `parent` (the Spans log is single-threaded: pass it to one
  /// generator only).
  GenResult run(std::uint16_t host_port, const wire::Clock& clock, Load load,
                Spans* spans, int parent);

 private:
  /// An in-flight attempt, stored at the index of its local port.
  struct Slot {
    std::optional<tcp::Connector> conn;
    SimTime due;
    std::uint32_t active_pos = 0;  ///< index into active_
    std::uint32_t seq = 0;         ///< attempt number within the step
    bool busy = false;
    bool bogus = false;
  };

  bool launch(SimTime due, std::uint32_t seq, bool bogus, SimTime now);
  void spoof_syn(SimTime now);
  bool await_host(const wire::Clock& clock);
  void handle(std::uint16_t port, tcp::ConnectorOutput out,
              const wire::Clock& clock);
  void finish(std::uint16_t port, bool ok, SimTime at);
  void queue(const std::vector<tcp::Segment>& segs);
  void flush();
  void receive(const wire::Clock& clock);

  std::uint32_t legit_addr_;
  std::uint32_t bogus_addr_;
  int fd_ = -1;
  int buffer_bytes_ = 0;
  sockaddr_in host_{};
  Rng rng_;
  puzzle::Sha256PuzzleEngine solver_;
  std::vector<Slot> slots_;
  std::uint16_t port_cursor_ = kFirstPort;
  std::vector<std::uint16_t> active_;  ///< ports of unfinished attempts
  std::vector<Bytes> outbox_;
  GenResult res_;
  bool probe_answered_ = false;
  Spans* spans_ = nullptr;
  int parent_ = -1;
  double span_epoch_ = 0;  ///< steady seconds at SimTime zero of the clock
};

bool Generator::launch(SimTime due, std::uint32_t seq, bool bogus, SimTime now) {
  std::uint16_t port = 0;
  for (int tries = 0;; ++tries) {
    if (tries == 65'536 - kFirstPort) return false;  // every port in flight
    port = port_cursor_;
    port_cursor_ = port_cursor_ == 65'535
                       ? kFirstPort
                       : static_cast<std::uint16_t>(port_cursor_ + 1);
    if (!slots_[port].busy) break;
  }
  Slot& s = slots_[port];
  tcp::ConnectorConfig cfg;
  cfg.local_addr = bogus ? bogus_addr_ : legit_addr_;
  cfg.local_port = port;
  cfg.remote_addr = kHostAddr;
  cfg.remote_port = 80;
  cfg.solve_puzzles = true;
  cfg.syn_timeout = SimTime::milliseconds(150);
  cfg.max_syn_retries = 2;
  s.conn.emplace(cfg, rng_.next());
  s.due = due;
  s.seq = seq;
  s.busy = true;
  s.bogus = bogus;
  s.active_pos = static_cast<std::uint32_t>(active_.size());
  active_.push_back(port);
  if (!bogus) res_.lateness_ms.push_back((now - due).to_millis());
  queue(s.conn->start(now).segments);
  return true;
}

void Generator::spoof_syn(SimTime now) {
  // A SYN from a random 10.200/16 source: the host challenges it and sends
  // the challenge back along the learned route, where nobody owns it.
  tcp::ConnectorConfig cfg;
  cfg.local_addr = tcp::ipv4(10, 200, static_cast<unsigned>(rng_.uniform_u64(256)),
                             static_cast<unsigned>(rng_.uniform_u64(256)));
  cfg.local_port = static_cast<std::uint16_t>(1024 + rng_.uniform_u64(60'000));
  cfg.remote_addr = kHostAddr;
  cfg.remote_port = 80;
  tcp::Connector c(cfg, rng_.next());
  queue(c.start(now).segments);
  ++res_.spoofed_syns;
}

/// Sends a SYN from kProbePort and waits for the host's answer. The host
/// reads its socket in arrival order, so once it answers the probe it has
/// read every datagram this generator sent before it: a step's counters
/// then hold the whole step, and host established can equal generator
/// established exactly.
bool Generator::await_host(const wire::Clock& clock) {
  tcp::ConnectorConfig cfg;
  cfg.local_addr = legit_addr_;
  cfg.local_port = kProbePort;
  cfg.remote_addr = kHostAddr;
  cfg.remote_port = 80;
  tcp::Connector probe(cfg, rng_.next());
  probe_answered_ = false;
  queue(probe.start(clock.now()).segments);
  flush();
  const double deadline = now_s() + kProbeTimeoutS;
  while (!probe_answered_ && now_s() < deadline) {
    pollfd pfd{fd_, POLLIN, 0};
    (void)::poll(&pfd, 1, 10);
    receive(clock);
  }
  return probe_answered_;
}

void Generator::handle(std::uint16_t port, tcp::ConnectorOutput out,
                       const wire::Clock& clock) {
  for (;;) {
    queue(out.segments);
    if (out.established || out.failed) {
      finish(port, out.established, clock.now());
      return;
    }
    if (!out.solve) return;
    Slot& s = slots_[port];
    puzzle::Solution sol;
    if (s.bogus) {
      // Random bytes of the declared shape, echoing the challenge's
      // timestamp so the host's verify reaches the solution check. The
      // first value is redrawn while it happens to solve, so every bogus
      // ACK is certainly invalid and the host must admit none of them.
      sol.timestamp = out.solve->timestamp;
      for (unsigned v = 0; v < out.solve->diff.k; ++v) {
        puzzle::SolutionValue value(out.solve->sol_len, 0);
        do {
          for (auto& b : value) b = static_cast<std::uint8_t>(rng_.next());
        } while (v == 0 && puzzle::Sha256PuzzleEngine::candidate_matches(
                               *out.solve, 1, {value.data(), value.size()}));
        sol.values.push_back(value);
      }
      ++res_.bogus_acks;
    } else {
      const double t0 = now_s();
      std::uint64_t ops = 0;
      sol = solver_.solve(*out.solve, s.conn->flow_binding(), rng_, ops);
      res_.solve_us.push_back((now_s() - t0) * 1e6);
      res_.hash_ops += ops;
      ++res_.solves;
    }
    out = s.conn->on_solved(clock.now(), sol);
  }
}

void Generator::finish(std::uint16_t port, bool ok, SimTime at) {
  Slot& s = slots_[port];
  s.busy = false;
  const std::uint16_t last = active_.back();
  active_[s.active_pos] = last;
  slots_[last].active_pos = s.active_pos;
  active_.pop_back();
  if (s.bogus) return;
  if (ok) {
    ++res_.established;
    res_.latency_ms.push_back((at - s.due).to_millis());
    if (spans_ != nullptr) {
      spans_->add("connect", parent_, s.seq, span_epoch_ + s.due.to_seconds(),
                  span_epoch_ + at.to_seconds());
    }
  } else {
    // A failed attempt misses any latency limit: it counts at the attempt
    // timeout.
    ++res_.failed;
    res_.latency_ms.push_back(kAttemptTimeout.to_millis());
  }
}

void Generator::queue(const std::vector<tcp::Segment>& segs) {
  for (const auto& s : segs) outbox_.push_back(tcp::encode_segment(s));
}

void Generator::flush() {
  constexpr std::size_t kBatch = 64;
  mmsghdr msgs[kBatch];
  iovec iov[kBatch];
  std::size_t sent = 0;
  while (sent < outbox_.size()) {
    const std::size_t n = std::min(kBatch, outbox_.size() - sent);
    for (std::size_t j = 0; j < n; ++j) {
      iov[j] = {outbox_[sent + j].data(), outbox_[sent + j].size()};
      msgs[j] = {};
      msgs[j].msg_hdr.msg_name = &host_;
      msgs[j].msg_hdr.msg_namelen = sizeof host_;
      msgs[j].msg_hdr.msg_iov = &iov[j];
      msgs[j].msg_hdr.msg_iovlen = 1;
    }
    const int r = ::sendmmsg(fd_, msgs, static_cast<unsigned>(n), 0);
    // A full socket buffer loses the rest of the batch, like a lossy link;
    // the connectors retransmit.
    sent += r > 0 ? static_cast<std::size_t>(r) : n;
  }
  outbox_.clear();
}

void Generator::receive(const wire::Clock& clock) {
  constexpr std::size_t kBatch = 64;
  static thread_local std::uint8_t bufs[kBatch][2048];
  mmsghdr msgs[kBatch];
  iovec iov[kBatch];
  for (;;) {
    for (std::size_t j = 0; j < kBatch; ++j) {
      iov[j] = {bufs[j], sizeof bufs[j]};
      msgs[j] = {};
      msgs[j].msg_hdr.msg_iov = &iov[j];
      msgs[j].msg_hdr.msg_iovlen = 1;
    }
    const int n = ::recvmmsg(fd_, msgs, kBatch, MSG_DONTWAIT, nullptr);
    if (n <= 0) return;
    const SimTime now = clock.now();
    for (int j = 0; j < n; ++j) {
      const auto dec = tcp::decode_segment(
          std::span<const std::uint8_t>(bufs[j], msgs[j].msg_len));
      if (!dec.segment) {
        ++res_.decode_errors;
        continue;
      }
      const tcp::Segment& seg = *dec.segment;
      if (seg.dport == kProbePort && seg.daddr == legit_addr_) {
        probe_answered_ = true;
        continue;
      }
      const Slot& s = slots_[seg.dport];
      // Spoofed-SYN backscatter, or a late reply to a finished attempt.
      if (!s.busy || seg.daddr != (s.bogus ? bogus_addr_ : legit_addr_)) continue;
      handle(seg.dport, slots_[seg.dport].conn->on_segment(now, seg), clock);
    }
    flush();
    if (static_cast<std::size_t>(n) < kBatch) return;
  }
}

GenResult Generator::run(std::uint16_t host_port, const wire::Clock& clock,
                         Load load, Spans* spans, int parent) {
  host_ = {};
  host_.sin_family = AF_INET;
  host_.sin_port = htons(host_port);
  host_.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  res_ = GenResult{};
  spans_ = spans != nullptr && spans->enabled() && parent >= 0 ? spans : nullptr;
  parent_ = parent;
  span_epoch_ = now_s() - clock.now().to_seconds();

  // Legitimate attempt i is due at i / legit_rate; flood slot j at
  // (j + 0.5) / flood_rate, alternating spoofed SYN (even j) and bogus
  // connect (odd j).
  const auto n_legit = static_cast<std::uint32_t>(std::llround(load.legit_rate * load.seconds));
  const auto n_flood = static_cast<std::uint32_t>(std::llround(load.flood_rate * load.seconds));
  res_.attempts = n_legit;
  res_.latency_ms.reserve(n_legit);
  res_.lateness_ms.reserve(n_legit);
  const SimTime tick_every = SimTime::milliseconds(10);
  const double cpu0 = thread_cpu_s();
  const double wall0 = now_s();
  const SimTime t0 = clock.now() + SimTime::milliseconds(2);
  const auto legit_due = [&](std::uint32_t i) {
    return t0 + SimTime::from_seconds(static_cast<double>(i) / load.legit_rate);
  };
  const auto flood_due = [&](std::uint32_t j) {
    return t0 + SimTime::from_seconds((static_cast<double>(j) + 0.5) / load.flood_rate);
  };
  const SimTime hard_stop = t0 + SimTime::from_seconds(load.seconds) +
                            kAttemptTimeout + SimTime::milliseconds(200);
  std::uint32_t next_legit = 0, next_flood = 0;
  SimTime next_tick = t0 + tick_every;

  for (;;) {
    SimTime now = clock.now();
    // Launch everything due, a bounded batch at a time so replies keep
    // flowing while a late generator catches up.
    for (int b = 0; b < 256; ++b) {
      const bool legit_ready = next_legit < n_legit && legit_due(next_legit) <= now;
      const bool flood_ready = next_flood < n_flood && flood_due(next_flood) <= now;
      if (!legit_ready && !flood_ready) break;
      if (legit_ready &&
          (!flood_ready || legit_due(next_legit) <= flood_due(next_flood))) {
        if (!launch(legit_due(next_legit), next_legit, false, now)) break;
        ++next_legit;
      } else {
        if (next_flood % 2 == 0) {
          spoof_syn(now);
        } else if (!launch(flood_due(next_flood), next_flood, true, now)) {
          break;
        }
        ++next_flood;
      }
    }
    flush();
    receive(clock);

    now = clock.now();
    if (now >= next_tick) {
      // Iterate a snapshot: finishing an attempt reorders active_.
      const std::vector<std::uint16_t> snapshot = active_;
      for (const std::uint16_t port : snapshot) {
        Slot& s = slots_[port];
        if (now - s.due >= kAttemptTimeout) {
          finish(port, false, now);
        } else {
          handle(port, s.conn->on_tick(now), clock);
        }
      }
      flush();
      next_tick = now + tick_every;
    }
    const bool all_launched = next_legit == n_legit && next_flood == n_flood;
    if (all_launched && active_.empty()) break;
    if (now >= hard_stop) {
      const std::vector<std::uint16_t> snapshot = active_;
      for (const std::uint16_t port : snapshot) finish(port, false, now);
      // Never launched: the generator could not keep up.
      res_.failed += n_legit - next_legit;
      res_.latency_ms.insert(res_.latency_ms.end(), n_legit - next_legit,
                             kAttemptTimeout.to_millis());
      break;
    }

    SimTime wake = next_tick;
    if (next_legit < n_legit) wake = std::min(wake, legit_due(next_legit));
    if (next_flood < n_flood) wake = std::min(wake, flood_due(next_flood));
    const SimTime wait = wake - clock.now();
    if (wait > SimTime::zero()) {
      pollfd pfd{fd_, POLLIN, 0};
      const timespec ts{static_cast<time_t>(wait.nanos() / 1'000'000'000),
                        static_cast<long>(wait.nanos() % 1'000'000'000)};
      (void)::ppoll(&pfd, 1, &ts, nullptr);
    }
  }
  res_.probe_answered = await_host(clock);
  res_.cpu_s = thread_cpu_s() - cpu0;
  res_.max_cpu_s = res_.cpu_s;
  res_.wall_s = now_s() - wall0;
  res_.busy_pct = res_.wall_s > 0 ? 100.0 * res_.cpu_s / res_.wall_s : 0.0;
  spans_ = nullptr;
  return std::move(res_);
}

// -- measurement steps ---------------------------------------------------------

struct Step {
  double rate = 0;     ///< offered legitimate conn/s
  double seconds = 0;  ///< emission length
  GenResult gen;
  tcp::ListenerCounters host;
  wire::HostStats wire;
  LayerTimes times;
  double host_cpu_s = 0;

  [[nodiscard]] double p(double q) const { return quantile(gen.latency_ms, q); }
  /// The host thread's CPU per second of offered load.
  [[nodiscard]] double host_share() const { return host_cpu_s / seconds; }
  /// The busier generator thread's CPU per second of offered load.
  [[nodiscard]] double generator_share() const { return gen.max_cpu_s / seconds; }
};

/// Least-squares line y = a + b x.
struct Line {
  double a = 0, b = 0;
};

Line fit(const std::vector<double>& x, const std::vector<double>& y) {
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return {(sy - b * sx) / n, b};
}

/// The steps of every capacity sweep of a run: offered rate, host thread
/// CPU share and busier generator's CPU share.
struct SweepPoints {
  std::vector<double> rate, host, gen;

  /// The legitimate rate at which the fitted host share reaches one whole
  /// CPU; 0 when the host's CPU did not rise with the rate.
  [[nodiscard]] double capacity() const {
    const Line h = fit(rate, host);
    return h.b > 0 ? (1.0 - h.a) / h.b : 0.0;
  }
  /// The fitted busier-generator CPU share at `cps`, percent.
  [[nodiscard]] double generator_busy_pct(double cps) const {
    const Line g = fit(rate, gen);
    return 100.0 * (g.a + g.b * cps);
  }
};

class Bench {
 public:
  Bench(const Options& opt, Report& rep, Spans& spans)
      : opt_(opt), rep_(rep), spans_(spans) {
    for (int g = 0; g < kGenerators; ++g) {
      gens_.push_back(std::make_unique<Generator>(g, opt.seed * 1000 + g));
    }
  }

  /// Socket receive buffer the kernel grants (the same on every socket).
  [[nodiscard]] int buffer_bytes() const { return gens_[0]->buffer_bytes(); }

  /// One step at `rate` legit conn/s for `seconds`; `timed` installs the
  /// timing decorators.
  Step step(double rate, double seconds, bool timed, int parent) {
    Step s;
    s.rate = rate;
    s.seconds = seconds;
    const crypto::SecretKey secret = crypto::SecretKey::from_seed(opt_.seed);
    std::shared_ptr<const puzzle::PuzzleEngine> engine =
        std::make_shared<puzzle::Sha256PuzzleEngine>(secret, engine_config());
    wire::HostConfig hc = host_config();
    if (timed) {
      engine = std::make_shared<TimedEngine>(engine, &s.times);
      hc.listener.policy = [inner = hc.listener.policy, times = &s.times] {
        return std::make_unique<TimedPolicy>(inner(), times);
      };
    }
    wire::Host host(hc, secret, opt_.seed, engine);
    if (widen_host_buffers(host.bound_port()) == 0) {
      throw std::runtime_error("wire_storm: host socket not found");
    }

    const Load load{rate / kGenerators, kFloodRate / kGenerators, seconds};
    const int span = spans_.begin("step", parent, static_cast<std::uint64_t>(rate));
    const double cpu0 = process_cpu_s();
    host.start();
    GenResult others;
    std::thread helper([&] {
      for (int g = 1; g < kGenerators; ++g) {
        others.merge(gens_[g]->run(host.bound_port(), host.clock(), load, nullptr, -1));
      }
    });
    s.gen = gens_[0]->run(host.bound_port(), host.clock(), load, &spans_, span);
    helper.join();
    s.gen.merge(others);
    host.stop();
    host.join();
    s.host_cpu_s = process_cpu_s() - cpu0 - s.gen.cpu_s;
    spans_.end(span);
    s.host = host.counters();
    s.wire = host.stats();

    // Invariants of every step: the codec rejects nothing, every SYN is
    // challenged, every admission is a verified solution, and, once the host
    // has read everything (the probes), it admitted exactly the connections
    // the legitimate generators completed: no bogus ACK, no lost final ACK.
    const bool ok = s.gen.probe_answered && s.wire.decode_errors == 0 &&
                    s.gen.decode_errors == 0 &&
                    s.host.challenges_sent == s.host.syns_received &&
                    s.host.solutions_valid == s.host.established_total &&
                    s.host.established_total == s.gen.established;
    rep_.operation(ok);
    invariants_ok_ &= ok;
    std::printf("step rate=%.0f attempts=%llu est=%llu host_est=%llu fail=%.3f%% "
                "p50=%.3fms p99=%.3fms late_p99=%.3fms gen_busy=%.1f%% "
                "wall=%.3fs host_cpu=%.3fs bogus=%llu spoofed=%llu "
                "ignored_full=%llu%s\n",
                rate, static_cast<unsigned long long>(s.gen.attempts),
                static_cast<unsigned long long>(s.gen.established),
                static_cast<unsigned long long>(s.host.established_total),
                s.gen.fail_pct(), s.p(0.5), s.p(0.99),
                quantile(s.gen.lateness_ms, 0.99), s.gen.busy_pct, s.gen.wall_s,
                s.host_cpu_s, static_cast<unsigned long long>(s.gen.bogus_acks),
                static_cast<unsigned long long>(s.gen.spoofed_syns),
                static_cast<unsigned long long>(s.host.acks_ignored_accept_full),
                ok ? "" : " (INVARIANT BROKEN)");
    return s;
  }

  /// A capacity sweep: one step at each of kSweepRates, added to `points`.
  void sweep(SweepPoints& points) {
    for (const double r : kSweepRates) {
      const Step s = step(r, kStepS, false, -1);
      points.rate.push_back(r);
      points.host.push_back(s.host_share());
      points.gen.push_back(s.generator_share());
    }
  }

  /// The checks over every step taken: the invariants held, and at the
  /// reference rate the flood ran and its bogus solutions were rejected.
  void step_checks(const std::vector<Step>& refs) {
    bool flooded = true;
    for (const Step& s : refs) {
      flooded &= s.gen.bogus_acks > 0 && s.gen.spoofed_syns > 0 &&
                 s.host.solutions_invalid > 0;
    }
    rep_.check("every step: zero decode errors, every SYN challenged, every "
               "admission a verified solution, host established == generator "
               "established (no bogus ACK admitted, no final ACK lost)",
               invariants_ok_);
    rep_.check("reference rate: the flood ran and its bogus solutions were rejected",
               flooded);
  }

 private:
  const Options& opt_;
  Report& rep_;
  Spans& spans_;
  std::vector<std::unique_ptr<Generator>> gens_;
  bool invariants_ok_ = true;
};

double host_cpu_us_per_conn(const Step& s) {
  return s.host.established_total
             ? s.host_cpu_s * 1e6 / static_cast<double>(s.host.established_total)
             : 0.0;
}

}  // namespace

void run_wire_storm(const Options& opt, Report& rep, Spans& spans) {
  Bench bench(opt, rep, spans);
  print_label(opt, 1,
              "loopback UDP on 127.0.0.1 (not a real link), socket buffers " +
                  std::to_string(bench.buffer_bytes()) + " bytes",
              "all");

  if (opt.trace) {
    const int root = spans.begin("wire_storm", -1, opt.seed);
    // One longer reference step without and one with the decorators.
    const Step plain = bench.step(kReferenceRate, 4 * kStepS, false, root);
    const Step timed = bench.step(kReferenceRate, 4 * kStepS, true, root);
    spans.end(root);
    bench.step_checks({plain, timed});
    const LayerTimes& t = timed.times;
    rep.metric("gen.lateness_p99_ms", quantile(plain.gen.lateness_ms, 0.99), "ms");
    rep.metric("gen.busy_pct", plain.gen.busy_pct, "%");
    rep.metric("gen.solve_us_p50", quantile(plain.gen.solve_us, 0.5), "us");
    rep.metric("gen.hashes_per_solve",
               plain.gen.solves ? static_cast<double>(plain.gen.hash_ops) /
                                      static_cast<double>(plain.gen.solves)
                                : 0.0,
               "count");
    rep.metric("host.cpu_us_per_conn", host_cpu_us_per_conn(plain), "us");
    rep.metric("defense.on_syn_ns", t.on_syn.mean(), "ns");
    rep.metric("defense.on_ack_ns", t.on_ack.mean(), "ns");
    rep.metric("puzzle.make_challenge_ns", t.make_challenge.mean(), "ns");
    rep.metric("puzzle.verify_valid_ns", t.verify_valid.mean(), "ns");
    rep.metric("puzzle.verify_invalid_ns", t.verify_invalid.mean(), "ns");
    const double est = static_cast<double>(plain.host.established_total);
    rep.metric("wire.datagrams_per_wakeup",
               plain.wire.wakeups ? static_cast<double>(plain.wire.rx_datagrams) /
                                        static_cast<double>(plain.wire.wakeups)
                                  : 0.0,
               "count");
    rep.metric("wire.datagrams_per_conn",
               est > 0 ? static_cast<double>(plain.wire.rx_datagrams +
                                             plain.wire.tx_datagrams) /
                             est
                       : 0.0,
               "count");
    rep.metric("wire.decode_errors", static_cast<double>(plain.wire.decode_errors),
               "count");
    rep.metric("wire.unroutable", static_cast<double>(plain.wire.unroutable), "count");
    listener_metrics(plain.host, rep);
    rep.metric("fail_pct", plain.gen.fail_pct(), "%");
    rep.metric("connect_p50_ms", plain.p(0.50), "ms");
    rep.metric("connect_p99_ms", plain.p(0.99), "ms");
    rep.metric("connect_samples", static_cast<double>(plain.gen.latency_ms.size()),
               "count");
    rep.metric("trace_overhead_pct",
               (host_cpu_us_per_conn(timed) / host_cpu_us_per_conn(plain) - 1.0) *
                   100.0,
               "%");
    return;
  }

  const double t_start = now_s();
  // Set-up: build, start and stop a host (socket, epoll, timer, loop
  // thread), sampled in a short batch before every round.
  constexpr double kSetupBatchS = 0.1;
  SetupSampler setup([&] {
    const crypto::SecretKey secret = crypto::SecretKey::from_seed(opt.seed);
    wire::Host host(host_config(), secret, opt.seed,
                    std::make_shared<puzzle::Sha256PuzzleEngine>(secret,
                                                                 engine_config()));
    host.start();
    host.stop();
    host.join();
  });

  // Rounds of one reference step and one capacity sweep, each step on a
  // fresh host, while another round as long as the last still fits. The
  // capacity is one fit over every sweep step of the run: a single sweep's
  // four points extrapolated to the capacity varied by a third.
  std::vector<Step> refs;
  SweepPoints points;
  double ref_seconds = 0, ref_host_cpu = 0, round_s = 0;
  for (int round = 0; round < kMinRounds || now_s() - t_start + round_s < opt.seconds;
       ++round) {
    const double round_start = now_s();
    setup.sample(kSetupBatchS);
    refs.push_back(bench.step(kReferenceRate, kStepS, false, -1));
    ref_seconds += refs.back().seconds;
    ref_host_cpu += refs.back().host_cpu_s;
    bench.sweep(points);
    round_s = now_s() - round_start;
  }
  bench.step_checks(refs);
  const double capacity = points.capacity();
  const double gen_busy = points.generator_busy_pct(capacity);
  std::printf("capacity: %.0f conn/s at one host CPU over %zu sweep steps, "
              "busier generator %.1f%% there%s\n",
              capacity, points.rate.size(), gen_busy,
              gen_busy <= kBusyLimitPct ? "" : " GENERATOR-BOUND");
  rep.check("the host's CPU rose with the rate, and reached one whole CPU "
            "above the highest rate swept",
            capacity > kSweepRates[std::size(kSweepRates) - 1]);
  rep.check("generator validity guard at the capacity (busier generator <= "
            "95% CPU there): the host, not the generator, was the limit",
            gen_busy <= kBusyLimitPct);

  // Real-time factor: wire seconds served per second of host-thread CPU.
  rep.metric("sim_speed", ref_seconds / ref_host_cpu, "s/s");
  rep.metric("capacity_cps", capacity, "1/s");
  setup.print();
  rep.metric("setup_s", setup.median_s(), "s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace tcpzb
