// A growable FIFO ring buffer, for the agents' deadline queues.
//
// Capacity is a power of two that doubles when the ring is full, so a queue
// settles at the smallest such capacity that holds its high-water mark.
// Unlike libstdc++'s std::deque, whose constructor allocates its block map,
// an empty RingQueue owns no memory: an agent holding one costs nothing to
// build until it first pushes.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace tcpz {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }

  void push_back(const T& v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = v;
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? 16 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tcpz
