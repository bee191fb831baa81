#include "tcp/queues.hpp"

namespace tcpz::tcp {

bool ListenQueue::insert(const HalfOpenEntry& entry) {
  if (full()) return false;
  const std::uint64_t hash = FlowKeyHash{}(entry.flow);
  if (find_slot(entry.flow, hash) != kNone) return false;
  // Erased entries leave their nodes behind; drop them all at once before
  // they outnumber the live ones. Every live entry has exactly one node,
  // keyed by its next_retx, so the rebuilt heap pops in the same order.
  if (deadlines_.size() > 2 * entries_.size() + 16) {
    deadlines_.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      deadlines_.push_back(
          {entries_[i].next_retx, inserted_[i], entries_[i].flow});
    }
    std::make_heap(deadlines_.begin(), deadlines_.end(), Later{});
  }
  if (2 * (entries_.size() + 1) > slots_.size()) grow();
  place(hash, entries_.size());
  entries_.push_back(entry);
  inserted_.push_back(next_seq_);
  push_deadline({entry.next_retx, next_seq_++, entry.flow});
  return true;
}

HalfOpenEntry* ListenQueue::find(const FlowKey& flow) {
  const std::size_t slot = find_slot(flow, FlowKeyHash{}(flow));
  return slot == kNone ? nullptr : &entries_[entry_at(slot)];
}

void ListenQueue::erase(const FlowKey& flow) {
  const std::size_t slot = find_slot(flow, FlowKeyHash{}(flow));
  if (slot != kNone) erase_slot(slot);
}

std::size_t ListenQueue::find_slot(const FlowKey& flow,
                                   std::uint64_t hash) const {
  if (slots_.empty()) return kNone;
  const std::size_t mask = slots_.size() - 1;
  const std::uint64_t tag = hash & 0xffff'ffffu;
  for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
    const std::uint64_t word = slots_[s];
    if (word == 0) return kNone;
    if ((word >> 32) == tag && entries_[entry_at(s)].flow == flow) return s;
  }
}

void ListenQueue::place(std::uint64_t hash, std::size_t entry) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = hash & mask;
  while (slots_[s] != 0) s = (s + 1) & mask;
  slots_[s] = (hash << 32) | (entry + 1);
}

void ListenQueue::erase_slot(std::size_t slot) {
  const std::size_t mask = slots_.size() - 1;
  const std::size_t i = entry_at(slot);

  // Backward-shift deletion: walk the probe chain past the hole and move
  // back every entry whose home slot does not lie in (hole, s].
  std::size_t hole = slot;
  for (std::size_t s = (slot + 1) & mask; slots_[s] != 0; s = (s + 1) & mask) {
    const std::size_t home = (slots_[s] >> 32) & mask;
    if (((s - home) & mask) >= ((s - hole) & mask)) {
      slots_[hole] = slots_[s];
      hole = s;
    }
  }
  slots_[hole] = 0;

  // Swap-remove from the dense vector and repoint the moved entry's slot.
  const std::size_t last = entries_.size() - 1;
  if (i != last) {
    entries_[i] = entries_[last];
    inserted_[i] = inserted_[last];
    const std::uint64_t hash = FlowKeyHash{}(entries_[i].flow);
    std::size_t s = hash & mask;
    while (entry_at(s) != last) s = (s + 1) & mask;
    slots_[s] = (hash << 32) | (i + 1);
  }
  entries_.pop_back();
  inserted_.pop_back();
}

void ListenQueue::grow() {
  slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), 0);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    place(FlowKeyHash{}(entries_[i].flow), i);
  }
}

void ListenQueue::push_deadline(const Deadline& d) {
  deadlines_.push_back(d);
  std::push_heap(deadlines_.begin(), deadlines_.end(), Later{});
}

bool AcceptQueue::push(const AcceptedConnection& conn) {
  if (full()) return false;
  queue_.push_back(conn);
  members_.insert(conn.flow);
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
