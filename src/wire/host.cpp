#include "wire/host.hpp"

#include <arpa/inet.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"
#include "tcp/wire_format.hpp"

namespace tcpz::wire {
namespace {

[[noreturn]] void fail(const char* what, int err) {
  throw std::runtime_error(std::string("wire::Host: ") + what + ": " +
                           std::strerror(err));
}

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// The listener-side flow key of a segment the listener sends.
tcp::FlowKey flow_of_outgoing(const tcp::Segment& seg) {
  return {seg.daddr, seg.dport, seg.saddr, seg.sport};
}

}  // namespace

Host::Host(HostConfig cfg, crypto::SecretKey secret, std::uint64_t seed,
           std::shared_ptr<const puzzle::PuzzleEngine> engine)
    : cfg_(cfg), listener_(cfg.listener, secret, seed, std::move(engine)) {
  udp_fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (udp_fd_ < 0) fail("socket", errno);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.udp_port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(udp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    close_if_open(udp_fd_);
    fail("bind", err);
  }
  socklen_t len = sizeof addr;
  if (::getsockname(udp_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int err = errno;
    close_if_open(udp_fd_);
    fail("getsockname", err);
  }
  bound_port_ = ntohs(addr.sin_port);

  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  if (timer_fd_ < 0) {
    const int err = errno;
    close_if_open(udp_fd_);
    fail("timerfd_create", err);
  }
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (stop_fd_ < 0) {
    const int err = errno;
    close_if_open(udp_fd_);
    close_if_open(timer_fd_);
    fail("eventfd", err);
  }
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    const int err = errno;
    close_if_open(udp_fd_);
    close_if_open(timer_fd_);
    close_if_open(stop_fd_);
    fail("epoll_create1", err);
  }
  for (const int fd : {udp_fd_, timer_fd_, stop_fd_}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      const int err = errno;
      close_if_open(udp_fd_);
      close_if_open(timer_fd_);
      close_if_open(stop_fd_);
      close_if_open(epoll_fd_);
      fail("epoll_ctl", err);
    }
  }
}

Host::~Host() {
  stop();
  join();
  close_if_open(epoll_fd_);
  close_if_open(stop_fd_);
  close_if_open(timer_fd_);
  close_if_open(udp_fd_);
}

void Host::start() {
  if (thread_.joinable()) return;
  stopping_.store(false, std::memory_order_relaxed);

  const auto ns = cfg_.tick_interval.nanos();
  itimerspec spec{};
  spec.it_interval.tv_sec = ns / 1'000'000'000;
  spec.it_interval.tv_nsec = ns % 1'000'000'000;
  spec.it_value = spec.it_interval;
  if (::timerfd_settime(timer_fd_, 0, &spec, nullptr) != 0) {
    fail("timerfd_settime", errno);
  }
  // The recorder slot is thread_local (single-writer contract, see
  // obs/trace.hpp): hand the caller's installed recorder to the loop thread,
  // which installs it for exactly the run() scope and is its only writer —
  // the documented "install before start(), read after join()" behavior.
  obs::Recorder* rec = obs::recorder();
  thread_ = std::thread([this, rec] {
    obs::ScopedRecorder scoped(rec);
    run();
  });
}

void Host::stop() {
  if (!thread_.joinable()) return;
  if (stopping_.exchange(true, std::memory_order_relaxed)) return;
  const std::uint64_t one = 1;
  (void)!::write(stop_fd_, &one, sizeof one);
}

void Host::join() {
  if (thread_.joinable()) thread_.join();
}

void Host::run() {
  epoll_event events[8];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, 8, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    ++stats_.wakeups;
    bool stop_seen = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == stop_fd_) {
        stop_seen = true;
      } else if (fd == timer_fd_) {
        std::uint64_t expirations = 0;
        (void)!::read(timer_fd_, &expirations, sizeof expirations);
        // Catch-up firings collapse into one tick: the listener's timers are
        // deadline-based, so running on_tick() once at the current time does
        // everything the missed firings would have.
        if (expirations > 0) on_tick();
      } else if (fd == udp_fd_) {
        drain_udp();
      }
    }
    if (stop_seen) return;
  }
}

void Host::drain_udp() {
  std::uint8_t buf[2048];
  for (int served = 0; served < kMaxDatagramsPerWakeup;) {
    sockaddr_in src{};
    socklen_t slen = sizeof src;
    const ssize_t n = ::recvfrom(udp_fd_, buf, sizeof buf, 0,
                                 reinterpret_cast<sockaddr*>(&src), &slen);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained
    }
    ++served;
    ++stats_.rx_datagrams;
    const auto result = tcp::decode_segment(
        std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    if (!result.segment) {
      ++stats_.decode_errors;
      continue;
    }
    const tcp::Segment& seg = *result.segment;
    const SimTime now = clock_.now();
    if (const auto reply = listener_.on_segment(now, seg)) {
      transmit(*reply, src);
    }
    // Learn (or refresh) the return path only if this flow now holds a
    // listen-queue slot; drop it once the slot is gone.
    const tcp::FlowKey flow = tcp::FlowKey::from_incoming(seg);
    if (listener_.is_half_open(flow)) {
      routes_.insert_or_assign(flow, src);
    } else {
      routes_.erase(flow);
    }
    stats_.routes = routes_.size();
  }
}

void Host::on_tick() {
  ++stats_.ticks;
  const SimTime now = clock_.now();
  for (const auto& out : listener_.on_tick(now)) {
    const auto it = routes_.find(flow_of_outgoing(out));
    if (it == routes_.end()) {
      ++stats_.unroutable;
    } else {
      transmit(out, it->second);
    }
  }
  // Half-open entries this tick expired take their routes with them.
  std::erase_if(routes_, [this](const auto& route) {
    return !listener_.is_half_open(route.first);
  });
  stats_.routes = routes_.size();
  drain_accepts(now);
}

void Host::drain_accepts(SimTime now) {
  if (cfg_.accept_rate == 0) return;
  if (cfg_.accept_rate > 0) {
    accept_tokens_ += cfg_.accept_rate * cfg_.tick_interval.to_seconds();
    // Bound the burst after an idle stretch to one second's worth.
    if (accept_tokens_ > cfg_.accept_rate) accept_tokens_ = cfg_.accept_rate;
  }
  while (cfg_.accept_rate < 0 || accept_tokens_ >= 1.0) {
    const auto conn = listener_.accept(now);
    if (!conn) break;
    if (cfg_.accept_rate > 0) accept_tokens_ -= 1.0;
    ++stats_.accepted;
    if (cfg_.close_after_accept) listener_.close(conn->flow);
  }
}

void Host::transmit(const tcp::Segment& seg, const sockaddr_in& to) {
  const Bytes bytes = tcp::encode_segment(seg);
  const ssize_t n = ::sendto(udp_fd_, bytes.data(), bytes.size(), 0,
                             reinterpret_cast<const sockaddr*>(&to), sizeof to);
  if (n == static_cast<ssize_t>(bytes.size())) {
    ++stats_.tx_datagrams;
  } else {
    ++stats_.tx_errors;
  }
}

void Host::publish_metrics(obs::Registry& reg, std::string_view labels) const {
  obs::register_metrics(reg, listener_.counters(), labels);
  reg.counter("wire.rx_datagrams", labels,
              static_cast<double>(stats_.rx_datagrams),
              "datagrams received by the wire host");
  reg.counter("wire.tx_datagrams", labels,
              static_cast<double>(stats_.tx_datagrams),
              "datagrams transmitted by the wire host");
  reg.counter("wire.tx_errors", labels, static_cast<double>(stats_.tx_errors),
              "datagrams sendto failed to send whole");
  reg.counter("wire.decode_errors", labels,
              static_cast<double>(stats_.decode_errors),
              "datagrams the wire codec rejected");
  reg.counter("wire.unroutable", labels,
              static_cast<double>(stats_.unroutable),
              "segments with no learned return path");
  reg.counter("wire.ticks", labels, static_cast<double>(stats_.ticks),
              "timer ticks processed");
  reg.counter("wire.wakeups", labels, static_cast<double>(stats_.wakeups),
              "epoll wakeups");
  reg.counter("wire.accepted", labels, static_cast<double>(stats_.accepted),
              "connections drained via accept()");
  reg.gauge("wire.routes", labels, static_cast<double>(stats_.routes),
            "learned return paths held for half-open flows");
}

}  // namespace tcpz::wire
