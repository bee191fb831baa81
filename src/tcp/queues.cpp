#include "tcp/queues.hpp"

namespace tcpz::tcp {

bool ListenQueue::insert(const HalfOpenEntry& entry) {
  if (full() || table_.contains(entry.flow)) return false;
  // Erased entries leave their nodes behind; drop them all at once before
  // they outnumber the live ones. Every live entry has exactly one node,
  // keyed by its next_retx, so the rebuilt heap pops in the same order.
  if (deadlines_.size() > 2 * table_.size() + 16) {
    deadlines_.clear();
    for (const auto& [flow, q] : table_) {
      deadlines_.push_back({q.entry.next_retx, q.seq, flow});
    }
    std::make_heap(deadlines_.begin(), deadlines_.end(), Later{});
  }
  table_.try_emplace(entry.flow, Queued{entry, next_seq_});
  push_deadline({entry.next_retx, next_seq_++, entry.flow});
  return true;
}

void ListenQueue::push_deadline(const Deadline& d) {
  deadlines_.push_back(d);
  std::push_heap(deadlines_.begin(), deadlines_.end(), Later{});
}

bool AcceptQueue::push(const AcceptedConnection& conn) {
  if (full()) return false;
  queue_.push_back(conn);
  members_.try_emplace(conn.flow);
  return true;
}

std::optional<AcceptedConnection> AcceptQueue::pop() {
  if (queue_.empty()) return std::nullopt;
  AcceptedConnection front = queue_.front();
  queue_.pop_front();
  members_.erase(front.flow);
  return front;
}

}  // namespace tcpz::tcp
