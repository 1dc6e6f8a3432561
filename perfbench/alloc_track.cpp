// Live-heap accounting for the working-set fingerprint: the global
// allocation operators are replaced in the benchmark binary so the bytes
// a solver holds after setup can be read as a difference of live_bytes().
// Counting uses malloc_usable_size on both sides, so sized and unsized
// deletes balance. One relaxed atomic add per allocation.

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {
std::atomic<long long> g_live{0};

void* track_alloc(std::size_t n) {
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  g_live.fetch_add(static_cast<long long>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  return p;
}

void track_free(void* p) noexcept {
  if (!p) return;
  g_live.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

long long live_bytes() { return g_live.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::track_alloc(n); }
void* operator new[](std::size_t n) { return perfbench::track_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::track_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::track_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { perfbench::track_free(p); }
void operator delete[](void* p) noexcept { perfbench::track_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  perfbench::track_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::track_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::track_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::track_free(p);
}
