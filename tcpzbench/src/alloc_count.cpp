// Switchable allocation counting for traced runs: a replacement of the
// global operator new (the technique of util/alloc_counter.hpp) that counts
// only while enabled, into a per-thread counter. util/alloc_counter.hpp
// counts every allocation into one shared non-atomic global, which the two
// shard threads of a plain fleet_hybrid run would contend (and race) on.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
std::atomic<bool> g_counting{false};  // NOLINT
thread_local std::uint64_t t_allocs = 0;  // NOLINT

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace tcpzb {
void count_allocations(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t thread_allocations() { return t_allocs; }
}  // namespace tcpzb

// GCC traces pointers from the malloc-backed operator new into free() and
// reports a mismatched pair; new = malloc and delete = free is consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
