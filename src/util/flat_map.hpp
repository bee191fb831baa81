// An open-addressing hash map for the per-flow tables on the per-packet
// path (listen queue, established flows, workers, bot attempts, routes).
//
// Entries sit in one dense vector, erased by moving the last entry into the
// hole. A power-of-two index of 64-bit slots maps a key to its entry: the
// low 32 bits of the key's hash (the tag) in the high half of the word, the
// entry's position + 1 in the low half, 0 for an empty slot. Lookup probes
// linearly from the tag's home slot; erase shifts the rest of the probe
// chain back, so there are no tombstones. The index doubles before an
// insert would fill more than half of it, so it ends at most at the first
// power of two ≥ 2 × the high-water size; an empty map owns no memory.
//
// Pointers to values are invalidated by every insert (the dense vector may
// reallocate) and every erase (the last entry moves). Iteration visits the
// dense vector, whose order depends on the erase history: callers that let
// it reach an observable output must not use this map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tcpz {

/// Mixes an integer key so that keys differing only in high bits (or on a
/// stride) still spread over the low bits the index uses.
struct IntHash {
  std::size_t operator()(std::uint64_t x) const {
    x *= 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(x ^ (x >> 32));
  }
};

template <typename K, typename V, typename Hash>
class FlatMap {
 public:
  struct Entry {
    K key;
    [[no_unique_address]] V value;
  };

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// The dense entries, in no meaningful order.
  [[nodiscard]] auto begin() { return entries_.begin(); }
  [[nodiscard]] auto end() { return entries_.end(); }

  /// The key's value, or nullptr.
  [[nodiscard]] V* find(const K& key) {
    const std::size_t s = find_slot(key, hash(key));
    return s == kNone ? nullptr : &entries_[entry_at(s)].value;
  }
  [[nodiscard]] const V* find(const K& key) const {
    const std::size_t s = find_slot(key, hash(key));
    return s == kNone ? nullptr : &entries_[entry_at(s)].value;
  }
  [[nodiscard]] bool contains(const K& key) const {
    return find_slot(key, hash(key)) != kNone;
  }

  /// Inserts V(args...) unless the key is present; returns the key's value
  /// and whether it was inserted.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    const std::uint64_t h = hash(key);
    if (const std::size_t s = find_slot(key, h); s != kNone) {
      return {&entries_[entry_at(s)].value, false};
    }
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    place(h, entries_.size());
    entries_.push_back(Entry{key, V(std::forward<Args>(args)...)});
    return {&entries_.back().value, true};
  }
  V& operator[](const K& key) { return *try_emplace(key).first; }

  /// Erases the key's entry; false if there was none.
  bool erase(const K& key) {
    const std::size_t s = find_slot(key, hash(key));
    if (s == kNone) return false;
    erase_slot(s);
    return true;
  }

  /// Erases every entry for which pred(key, value) is true; returns how
  /// many. Walks the dense vector from the back, so each swap-remove moves
  /// an entry that was already kept.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t erased = 0;
    for (std::size_t i = entries_.size(); i-- > 0;) {
      Entry& e = entries_[i];
      if (pred(e.key, e.value)) {
        erase_slot(find_slot(e.key, hash(e.key)));
        ++erased;
      }
    }
    return erased;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  [[nodiscard]] static std::uint64_t hash(const K& key) {
    return static_cast<std::uint64_t>(Hash{}(key)) & 0xffff'ffffu;
  }
  [[nodiscard]] std::size_t entry_at(std::size_t slot) const {
    return static_cast<std::size_t>(slots_[slot] & 0xffff'ffffu) - 1;
  }

  [[nodiscard]] std::size_t find_slot(const K& key, std::uint64_t tag) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = tag & mask;; s = (s + 1) & mask) {
      const std::uint64_t word = slots_[s];
      if (word == 0) return kNone;
      if ((word >> 32) == tag && entries_[entry_at(s)].key == key) return s;
    }
  }

  void place(std::uint64_t tag, std::size_t entry) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = tag & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = (tag << 32) | (entry + 1);
  }

  void erase_slot(std::size_t slot) {
    const std::size_t mask = slots_.size() - 1;
    const std::size_t i = entry_at(slot);

    // Backward-shift deletion: walk the probe chain past the hole and move
    // back every entry whose home slot does not lie in (hole, s].
    std::size_t hole = slot;
    for (std::size_t s = (slot + 1) & mask; slots_[s] != 0;
         s = (s + 1) & mask) {
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
      entries_[i] = std::move(entries_[last]);
      const std::uint64_t tag = hash(entries_[i].key);
      std::size_t s = tag & mask;
      while (entry_at(s) != last) s = (s + 1) & mask;
      slots_[s] = (tag << 32) | (i + 1);
    }
    entries_.pop_back();
  }

  /// Doubles the index, re-placing every slot word by its stored tag.
  void grow() {
    std::vector<std::uint64_t> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    for (const std::uint64_t word : old) {
      if (word != 0) {
        place(word >> 32, static_cast<std::size_t>(word & 0xffff'ffffu) - 1);
      }
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::uint64_t> slots_;
};

/// A FlatMap that stores keys only.
struct FlatSetUnit {};
template <typename K, typename Hash>
using FlatSet = FlatMap<K, FlatSetUnit, Hash>;

}  // namespace tcpz
