// Global operator new/delete hook: counts allocations and tracks live and
// peak heap bytes for the heap.* metrics.  The benchmark is single-threaded,
// so plain counters suffice.
#include <malloc.h>

#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

rill::perfbench::HeapStats g_heap;

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  ++g_heap.allocs;
  g_heap.live_bytes += malloc_usable_size(p);
  if (g_heap.live_bytes > g_heap.peak_bytes) g_heap.peak_bytes = g_heap.live_bytes;
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_heap.live_bytes -= malloc_usable_size(p);
  std::free(p);
}

}  // namespace

namespace rill::perfbench {

HeapStats heap_stats() noexcept { return g_heap; }

void heap_reset_peak() noexcept { g_heap.peak_bytes = g_heap.live_bytes; }

}  // namespace rill::perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
