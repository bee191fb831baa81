// The two server-side queues that state-exhaustion attacks target (§2.1):
// the listen queue of half-open connections (SYN floods fill this) and the
// accept queue of established-but-not-yet-accepted connections (connection
// floods fill this). Both are bounded by a backlog; the whole point of
// cookies and puzzles is what happens when they are full.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "tcp/segment.hpp"
#include "util/flat_map.hpp"
#include "util/time.hpp"

namespace tcpz::tcp {

/// How a connection came to be established; the metrics split on this.
enum class EstablishPath : std::uint8_t {
  kQueue,   ///< normal three-way handshake through the listen queue
  kCookie,  ///< reconstructed from a valid SYN cookie
  kPuzzle,  ///< admitted by a verified puzzle solution
};

/// State for one half-open connection (one listen-queue slot). This is the
/// per-SYN memory cost an attacker forces the server to pay — the paper's
/// protections exist to avoid allocating it blindly.
struct HalfOpenEntry {
  FlowKey flow;
  std::uint32_t client_isn = 0;
  std::uint32_t iss = 0;  ///< our initial sequence number
  std::uint16_t peer_mss = 536;
  std::uint8_t peer_wscale = 0;
  bool peer_ts_ok = false;
  std::uint32_t peer_tsval = 0;
  SimTime created;
  SimTime next_retx;
  int retx_count = 0;
  /// The final ACK arrived but the accept queue was full; the entry is kept
  /// (as Linux does) and promoted when room appears, until it expires.
  bool acked = false;
};

/// A fully established connection waiting for (or delivered by) accept().
struct AcceptedConnection {
  FlowKey flow;
  std::uint32_t client_isn = 0;
  std::uint32_t iss = 0;
  std::uint16_t peer_mss = 536;
  std::uint8_t peer_wscale = 0;
  EstablishPath path = EstablishPath::kQueue;
  SimTime established_at;
};

/// Bounded table of half-open connections, with a retransmit deadline queue
/// so the listener's tick visits only the entries that are due.
///
/// The entries live in a FlatMap (util/flat_map.hpp; DESIGN.md "Flat flow
/// tables"), so an empty queue owns no memory and its index ends at most at
/// the first power of two ≥ 2 × capacity().
///
/// Each entry has one node in a min-heap keyed by (next_retx, insertion
/// number). Erasing an entry leaves its node queued; a popped node counts
/// only if its flow still holds the entry of that insertion, so a flow that
/// was erased and inserted again keeps its own deadline (DESIGN.md
/// "Periodic expiry"). Once stale nodes make the heap more than twice the
/// table's size, it is rebuilt from the live entries, which bounds it by
/// the backlog, not by the insert rate.
class ListenQueue {
 public:
  explicit ListenQueue(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] bool full() const { return table_.size() >= capacity_; }

  /// False if full or the flow is already present. The entry's first
  /// retransmit deadline is its `next_retx`, which only visit_due()'s
  /// callback may change afterwards.
  bool insert(const HalfOpenEntry& entry);
  /// The flow's entry, or nullptr. The pointer stays valid only until the
  /// next insert or erase: both move entries.
  [[nodiscard]] HalfOpenEntry* find(const FlowKey& flow) {
    Queued* q = table_.find(flow);
    return q == nullptr ? nullptr : &q->entry;
  }
  [[nodiscard]] bool contains(const FlowKey& flow) const {
    return table_.contains(flow);
  }
  void erase(const FlowKey& flow) { table_.erase(flow); }

  /// Calls `fn` once on every entry whose `next_retx` is at or before
  /// `now`, in (next_retx, insertion) order. If `fn` returns false the
  /// entry is erased; otherwise it is queued again at the `next_retx` that
  /// `fn` left, which visit_due() does not revisit before it returns. `fn`
  /// must not insert or erase. Used by the retransmit/expiry tick.
  template <typename Fn>
  void visit_due(SimTime now, Fn&& fn) {
    while (!deadlines_.empty() && deadlines_.front().at <= now) {
      std::pop_heap(deadlines_.begin(), deadlines_.end(), Later{});
      const Deadline due = deadlines_.back();
      deadlines_.pop_back();
      Queued* q = table_.find(due.flow);
      if (q == nullptr || q->seq != due.seq) continue;  // stale node
      if (fn(q->entry)) {
        requeue_.push_back({q->entry.next_retx, due.seq, due.flow});
      } else {
        table_.erase(due.flow);
      }
    }
    for (const Deadline& d : requeue_) push_deadline(d);
    requeue_.clear();
  }

 private:
  struct Queued {
    HalfOpenEntry entry;
    std::uint64_t seq = 0;  ///< insertion number
  };
  struct Deadline {
    SimTime at;
    std::uint64_t seq = 0;  ///< insertion number of the entry it was set for
    FlowKey flow;
  };
  /// Heap order: std::*_heap keep the greatest first, so "greater" is the
  /// later deadline, insertion number breaking ties.
  struct Later {
    bool operator()(const Deadline& a, const Deadline& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  void push_deadline(const Deadline& d);

  std::size_t capacity_;
  FlatMap<FlowKey, Queued, FlowKeyHash> table_;
  std::vector<Deadline> deadlines_;  ///< min-heap under Later
  std::vector<Deadline> requeue_;    ///< visit_due()'s survivors
  std::uint64_t next_seq_ = 0;
};

/// Bounded FIFO of established connections awaiting accept(), with an O(1)
/// membership index (the replay defence checks membership per solution-ACK,
/// which arrive thousands of times per second under attack).
class AcceptQueue {
 public:
  explicit AcceptQueue(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool full() const { return queue_.size() >= capacity_; }

  /// False if full.
  bool push(const AcceptedConnection& conn);
  [[nodiscard]] std::optional<AcceptedConnection> pop();
  /// True if a connection for this flow is still waiting in the queue.
  [[nodiscard]] bool contains(const FlowKey& flow) const {
    return members_.contains(flow);
  }

 private:
  std::size_t capacity_;
  std::deque<AcceptedConnection> queue_;
  FlatSet<FlowKey, FlowKeyHash> members_;
};

}  // namespace tcpz::tcp
