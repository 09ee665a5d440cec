#include "eclipse/sim/frame_pool.hpp"

#include <array>
#include <atomic>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace eclipse::sim::frame_pool {

namespace {

struct FreeFrame {
  FreeFrame* next;
};

struct FreeList {
  FreeFrame* head = nullptr;
  std::uint32_t count = 0;
};

enum class State : unsigned char {
  kUnregistered,  // nothing cached yet; no exit hook installed
  kLive,          // exit hook installed; frees may be cached
  kDead,          // thread is exiting and the lists are released
};

struct Pool {
  std::array<FreeList, kClasses> lists{};
  Stats stats{};
  State state = State::kUnregistered;
};

// Trivially destructible and constant-initialised, so access costs one
// thread-pointer-relative load and the pool stays readable while the
// thread's other thread_local objects are destroyed.
constinit thread_local Pool t_pool{};

std::atomic<std::uint64_t> g_released_at_exit{0};

constexpr std::size_t classOf(std::size_t bytes) { return (bytes - 1) / kGranule; }
constexpr std::size_t classBytes(std::size_t cls) { return (cls + 1) * kGranule; }

// Frames of 0 bytes (never produced by the compiler) and above the largest
// class take the heap path: `bytes - 1` wraps for 0.
constexpr bool pooled(std::size_t bytes) { return bytes - 1 < kMaxPooledBytes; }

// Returns every cached frame to the heap at thread exit and marks the pool
// dead, so later frees from other thread_local or static destructors go
// straight to the heap.
struct ExitHook {
  bool installed = false;
  ~ExitHook() {
    std::uint64_t released = 0;
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      FreeList& list = t_pool.lists[cls];
      while (list.head != nullptr) {
        FreeFrame* f = list.head;
        ASAN_UNPOISON_MEMORY_REGION(f, classBytes(cls));
        list.head = f->next;
        ::operator delete(f, classBytes(cls));
        ++released;
      }
      list.count = 0;
    }
    t_pool.state = State::kDead;
    g_released_at_exit.fetch_add(released, std::memory_order_relaxed);
  }
};
thread_local ExitHook t_exit_hook;

}  // namespace

void* allocate(std::size_t bytes) {
  Pool& pool = t_pool;
  if (!pooled(bytes)) {
    ++pool.stats.heap_allocs;
    return ::operator new(bytes);
  }
  const std::size_t cls = classOf(bytes);
  FreeList& list = pool.lists[cls];
  if (FreeFrame* f = list.head) {
    ASAN_UNPOISON_MEMORY_REGION(f, classBytes(cls));
    list.head = f->next;
    --list.count;
    ++pool.stats.reused;
    return f;
  }
  ++pool.stats.heap_allocs;
  return ::operator new(classBytes(cls));
}

void deallocate(void* p, std::size_t bytes) noexcept {
  Pool& pool = t_pool;
  if (!pooled(bytes)) {
    ++pool.stats.heap_frees;
    ::operator delete(p, bytes);
    return;
  }
  const std::size_t cls = classOf(bytes);
  FreeList& list = pool.lists[cls];
  if (list.count >= kMaxCachedPerClass || pool.state == State::kDead) {
    ++pool.stats.heap_frees;
    ::operator delete(p, classBytes(cls));
    return;
  }
  if (pool.state == State::kUnregistered) {
    t_exit_hook.installed = true;  // first use constructs it and registers its destructor
    pool.state = State::kLive;
  }
  auto* f = static_cast<FreeFrame*>(p);
  f->next = list.head;
  list.head = f;
  ++list.count;
  ASAN_POISON_MEMORY_REGION(f, classBytes(cls));
}

Stats threadStats() {
  Stats s = t_pool.stats;
  for (const FreeList& list : t_pool.lists) s.cached_frames += list.count;
  return s;
}

std::uint32_t cachedInClass(std::size_t bytes) {
  return pooled(bytes) ? t_pool.lists[classOf(bytes)].count : 0;
}

std::uint64_t releasedAtThreadExit() {
  return g_released_at_exit.load(std::memory_order_relaxed);
}

}  // namespace eclipse::sim::frame_pool
