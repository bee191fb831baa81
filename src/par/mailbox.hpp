// Cross-shard plumbing for the sharded engine: SPSC mailboxes and the
// sense-reversing spin barrier that ends each round.
//
// Memory-order contract (also documented in DESIGN.md, "Sharded engine"):
// the mailboxes come in two banks, used by alternate rounds. In round r a
// mailbox (src, dst) of bank r % 2 is written only by shard `src` (its
// portals push while the simulator runs); after the round's barrier it is
// read and cleared only by shard `dst`, which then runs round r + 1 into
// bank (r + 1) % 2. A bank is never written while it is being drained: the
// next writes to bank r % 2 belong to round r + 2, which no shard starts
// before passing round r + 1's barrier, and no shard arrives there before
// it has finished draining bank r % 2. Each SpinBarrier::arrive_and_wait
// is a release store / acquire load pair on the sense word, so it publishes
// every write made before it (the round's pushes, the previous drain's
// clears) to every shard after it — the mailbox itself needs no atomics at
// all: it is a plain vector with exactly one writer or one reader at a
// time. ThreadSanitizer agrees (the CI tsan job runs the parallel tests
// under -fsanitize=thread).
//
// Cache-line discipline: mailboxes and the barrier's contended words are
// alignas(64) so two shards never false-share a line. The delta is measured
// by bench/micro_parallel_sim's packed-vs-padded microbench.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "tcp/segment.hpp"
#include "util/time.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tcpz::par {

/// One cross-shard segment: deliver `seg` at its destination's access
/// router at simulated time `at` (already includes the analytic remainder
/// of the path — see net/portal.hpp).
struct ShardMsg {
  SimTime at;
  tcp::Segment seg;
};

/// Single-producer single-consumer message box for one (src, dst) shard
/// pair. Alignment keeps neighboring boxes off each other's cache lines;
/// the vector's contents are synchronized by the round barrier (above).
struct alignas(64) Mailbox {
  std::vector<ShardMsg> msgs;
};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Classic sense-reversing spin barrier. Each participating thread keeps a
/// local sense flag (start it at false) and passes it to every
/// arrive_and_wait call; the last arriver resets the count and flips the
/// shared sense with a release store, which every spinning thread observes
/// with an acquire load — establishing the happens-before edge the mailbox
/// contract above relies on. Spins briefly, then yields: rounds are
/// microseconds to milliseconds apart, so burning a core on a straggler
/// would be wasted heat.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties), count_(parties) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  void arrive_and_wait(bool& local_sense) {
    local_sense = !local_sense;
    if (count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last arriver: reset for the next phase, then publish. The relaxed
      // count store is ordered before the release on sense_, and waiters
      // acquire sense_ before touching count_ again.
      count_.store(parties_, std::memory_order_relaxed);
      sense_.store(local_sense, std::memory_order_release);
    } else {
      int spins = 0;
      while (sense_.load(std::memory_order_acquire) != local_sense) {
        if (++spins < 4096) {
          cpu_relax();
        } else {
          std::this_thread::yield();
        }
      }
    }
  }

 private:
  const int parties_;
  alignas(64) std::atomic<int> count_;
  alignas(64) std::atomic<bool> sense_{false};
};

}  // namespace tcpz::par
