// wire::Host — the defense layer on an actual socket.
//
// Hosts an *unmodified* tcp::Listener (and through it an unmodified
// defense::DefensePolicy) behind a non-blocking epoll loop: a real UDP
// socket carries the full wire format of tcp/wire_format.hpp (20-byte TCP
// header, challenge/solution options, genuine checksum) over loopback, a
// timerfd drives on_tick() at the configured cadence, and an eventfd stops
// the loop. The listener still owns the userspace listen/accept queue pair
// sized by its ListenerConfig; the host only moves bytes and time.
//
// UDP encapsulation instead of raw TCP sockets is deliberate: the paper's
// artifact was a kernel patch, and without CAP_NET_RAW the closest runnable
// equivalent is the byte-exact segment codec on real sockets with real
// scheduling. What IS real here: the wire encoding of every option, the
// stateless challenge/cookie round trips, wall-clock time (via wire::Clock),
// kernel socket buffers and thread scheduling. What is NOT: congestion
// control, retransmission of data, path MTU — none of which the handshake
// defenses touch.
//
// Return routing is learned, not configured. Every segment the listener
// emits in reply to a datagram goes back to that datagram's UDP source, so
// a challenge response needs no per-flow state, only the packet in hand —
// exactly how the listener's statelessness is meant to work. The only
// unsolicited output is the on_tick() SYN-ACK retransmit of a half-open
// flow, so the host keeps a learned route for a flow exactly while the
// listener holds its listen-queue slot. Host memory therefore tracks
// listener state, not the number of (spoofed) sources that sent a SYN.
//
// Threading contract: everything inside run() — the listener, the policy,
// the route map, TCPZ_TRACE sites — is touched only by the host thread.
// Callers may use bound_port()/clock() at any time; counters(), stats(),
// listener() and publish_metrics() only before start() or after join().
// The global obs::Recorder is single-writer; in a wire run the host thread
// is that writer (Connector and the offense strategies have no trace
// sites), so install the recorder before start() and read it after join().
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <memory>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "crypto/secret.hpp"
#include "obs/registry.hpp"
#include "puzzle/engine.hpp"
#include "tcp/listener.hpp"
#include "wire/clock.hpp"

namespace tcpz::wire {

/// Transport/loop statistics, the wire analogue of shim::TransportStats.
struct HostStats {
  std::uint64_t rx_datagrams = 0;
  std::uint64_t tx_datagrams = 0;
  std::uint64_t tx_errors = 0;      ///< sendto failed or sent a short datagram
  std::uint64_t decode_errors = 0;  ///< datagrams the wire codec rejected
  std::uint64_t unroutable = 0;     ///< retransmits with no learned route
  std::uint64_t ticks = 0;          ///< timerfd firings processed
  std::uint64_t wakeups = 0;        ///< epoll_wait returns
  std::uint64_t accepted = 0;       ///< connections drained via accept()
  std::uint64_t routes = 0;         ///< learned return paths held right now
};

struct HostConfig {
  /// The listener this host embodies (policy, backlogs, difficulty — all of
  /// it; local_addr is the model address peers aim their daddr at).
  tcp::ListenerConfig listener;
  /// Real UDP port to bind on 127.0.0.1; 0 picks an ephemeral one.
  std::uint16_t udp_port = 0;
  /// on_tick()/accept-drain cadence. Wall-clock milliseconds, not sim time:
  /// this is the granularity of SYN-ACK retransmission and policy control.
  SimTime tick_interval = SimTime::milliseconds(10);
  /// Application accept() draining, the wire stand-in for the simulator's
  /// service rate µ: negative = drain everything every tick (capacity
  /// benchmarking), 0 = never accept (fills the accept queue — the §5
  /// deception scenarios), positive = that many accepts per second.
  double accept_rate = -1.0;
  /// Release listener state for a connection as soon as it is accepted, so
  /// long storms don't grow the established map without bound.
  bool close_after_accept = true;
};

/// Non-blocking epoll host for one listener. Construction binds the socket
/// and creates the timers; start() spawns the loop thread.
class Host {
 public:
  /// Datagrams served per wakeup of the socket before the loop returns to
  /// epoll_wait. A socket that never runs dry would otherwise starve the
  /// timer: no on_tick(), so no accept() draining, so a full accept queue
  /// and ignored final ACKs — the §5 deception, caused by the event loop
  /// rather than the policy. epoll is level-triggered, so a socket with a
  /// backlog is reported again on the very next wait.
  static constexpr int kMaxDatagramsPerWakeup = 64;

  /// Engine may be null unless the policy needs one (same contract as
  /// tcp::Listener). Throws std::runtime_error on socket/epoll errors.
  Host(HostConfig cfg, crypto::SecretKey secret, std::uint64_t seed,
       std::shared_ptr<const puzzle::PuzzleEngine> engine = nullptr);
  ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  void start();
  /// Signals the loop to exit (idempotent, callable from any thread).
  void stop();
  /// Waits for the loop thread; after this the listener is safe to read.
  void join();

  [[nodiscard]] std::uint16_t bound_port() const { return bound_port_; }
  [[nodiscard]] const Clock& clock() const { return clock_; }

  // -- host-thread-quiescent accessors (before start() / after join()) -------
  [[nodiscard]] tcp::Listener& listener() { return listener_; }
  [[nodiscard]] const tcp::ListenerCounters& counters() const {
    return listener_.counters();
  }
  [[nodiscard]] const HostStats& stats() const { return stats_; }
  /// Registers the listener counters plus every HostStats field (wire.*)
  /// under `labels` — the same metrics JSON shape a sim run produces.
  void publish_metrics(obs::Registry& reg, std::string_view labels) const;

 private:
  void run();
  void drain_udp();
  void on_tick();
  void drain_accepts(SimTime now);
  void transmit(const tcp::Segment& seg, const sockaddr_in& to);

  HostConfig cfg_;
  Clock clock_;
  tcp::Listener listener_;

  int udp_fd_ = -1;
  int timer_fd_ = -1;
  int stop_fd_ = -1;
  int epoll_fd_ = -1;
  std::uint16_t bound_port_ = 0;

  /// Learned return paths of the half-open flows: flow -> UDP source of its
  /// last datagram.
  std::unordered_map<tcp::FlowKey, sockaddr_in, tcp::FlowKeyHash> routes_;
  HostStats stats_;
  double accept_tokens_ = 0;

  std::thread thread_;
  std::atomic<bool> stopping_{false};
};

}  // namespace tcpz::wire
