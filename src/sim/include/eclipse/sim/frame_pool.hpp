#pragma once

#include <cstddef>
#include <cstdint>

namespace eclipse::sim {

/// Recycling allocator for coroutine frames.
///
/// Every `Task` call allocates a coroutine frame, and the simulated hardware
/// is a tree of nested tasks (shell primitives, bus transfers, stream-cache
/// walks), so a decode creates and destroys frames at about the rate it
/// dispatches events. `detail::PromiseBase` routes those allocations here.
///
/// Each thread owns a pool of free lists, one per 16-byte size class up to
/// `kMaxPooledBytes`. A freed frame joins the list of the thread that frees
/// it (whichever thread allocated it), up to `kMaxCachedPerClass` frames
/// per class; frames beyond that bound, and frames larger than
/// `kMaxPooledBytes`, go straight back to the global heap. The bound keeps
/// the pool from pinning freed memory in the heap's arenas. When a thread
/// exits its pool returns every cached frame to the heap, and a frame freed
/// after that (during static destruction at process exit) bypasses the
/// pool.
///
/// Cached frames are poisoned under AddressSanitizer, so a use after a
/// frame's destruction is still reported.
namespace frame_pool {

inline constexpr std::size_t kGranule = 16;
inline constexpr std::size_t kMaxPooledBytes = 1024;
inline constexpr std::size_t kClasses = kMaxPooledBytes / kGranule;
inline constexpr std::uint32_t kMaxCachedPerClass = 64;

/// Returns storage for a frame of `bytes` bytes.
[[nodiscard]] void* allocate(std::size_t bytes);

/// Releases a frame obtained from allocate() with the same `bytes`.
void deallocate(void* p, std::size_t bytes) noexcept;

/// Counters of the calling thread's pool.
struct Stats {
  std::uint64_t reused = 0;         ///< allocations served from a free list
  std::uint64_t heap_allocs = 0;    ///< allocations that went to the heap
  std::uint64_t heap_frees = 0;     ///< frees that went to the heap
  std::uint64_t cached_frames = 0;  ///< frames now on this thread's lists
};
[[nodiscard]] Stats threadStats();

/// Frames on the calling thread's free list for the size class of `bytes`.
[[nodiscard]] std::uint32_t cachedInClass(std::size_t bytes);

/// Frames returned to the heap by exiting threads' pools, process-wide.
[[nodiscard]] std::uint64_t releasedAtThreadExit();

}  // namespace frame_pool

}  // namespace eclipse::sim
