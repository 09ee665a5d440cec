#pragma once

// The serve_mix load: a seeded plan of jobs with Poisson arrival times and
// an exact job composition, and an open-loop client that sends each job at
// its scheduled time over the ECL1 binary protocol and timestamps every
// reply as it arrives.

#include <sched.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "eclipse/serve/protocol.hpp"
#include "trace.hpp"

namespace perfbench {

/// splitmix64: the benchmark's seed-derivation step.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A clip seed in [1, 100000] derived from the benchmark seed and a salt.
[[nodiscard]] constexpr std::uint64_t clipSeed(std::uint64_t seed, std::uint64_t salt) {
  return splitmix64(seed * 1000003ULL + salt) % 100000 + 1;
}

/// Job classes of the mix, in plan order of the composition table.
enum class JobClass { TinyDecode, TinyEncode, PinDecode, DualDecode, QcifDecode };
inline constexpr std::size_t kJobClasses = 5;

/// Exact job counts per class for an n-job plan: each class but the first
/// gets floor(n * share), the first (tiny decodes) the remainder.
[[nodiscard]] std::array<std::size_t, kJobClasses> composition(std::size_t n);

struct PlannedJob {
  std::size_t spec = 0;  ///< index into LoadPlan::specs
  int tenant = 0;        ///< connection (0 or 1)
  double due_s = 0.0;    ///< scheduled send time since the phase start
};

struct LoadPlan {
  /// Every distinct jobspec the seed can draw, whether or not this plan
  /// uses it (set-up prepares and checks all of them).
  std::vector<std::string> specs;
  std::vector<JobClass> spec_class;  ///< parallel to specs
  std::vector<PlannedJob> jobs;
};

/// The jobspecs of the mix for `seed`. A pure function of the seed.
[[nodiscard]] LoadPlan distinctSpecs(std::uint64_t seed);

/// An n-job plan at `rate` jobs/s: composition(n) shuffled, each job's clip
/// variant and tenant drawn, exponential inter-arrival gaps. A pure
/// function of (seed, n, rate).
[[nodiscard]] LoadPlan makeLoadPlan(std::uint64_t seed, std::size_t n, double rate);

/// Every distinct spec once, all due at once (the warm-up).
[[nodiscard]] LoadPlan warmupPlan(std::uint64_t seed);

struct JobOutcome {
  bool sent = false;
  bool accepted = false;
  bool rejected = false;
  bool answered = false;
  double sent_s = 0.0;  ///< all times: seconds since the phase start
  double reply_s = 0.0;  ///< Accepted or Rejected arrival
  double result_s = 0.0;
  eclipse::serve::RejectReason reason{};
  eclipse::serve::WireResult result;
};

struct DriveResult {
  std::vector<JobOutcome> jobs;  ///< parallel to LoadPlan::jobs
  Clock::time_point origin;      ///< the phase start
  bool complete = false;         ///< every job answered or refused in time
  std::string error;
};

/// Keeps the load generator and the server off each other's CPUs. With at
/// least three usable CPUs, Side::Server moves the calling thread (and so
/// every thread it spawns, which inherits the mask) onto all of them but
/// the first, and Side::Client onto the first alone; with fewer, nothing
/// changes. The destructor restores the thread's previous mask.
class ScopedAffinity {
 public:
  enum class Side { Server, Client };
  explicit ScopedAffinity(Side side);
  ~ScopedAffinity();
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

  /// True when the mask changed (the client then has a CPU of its own).
  [[nodiscard]] bool changed() const { return changed_; }

 private:
  cpu_set_t saved_{};
  bool changed_ = false;
};

/// Runs the plan open loop against a server on loopback `port` from one
/// thread over two tenant connections, multiplexed with ppoll(). With
/// `spin`, the thread polls without sleeping, so neither a send nor a
/// reply's timestamp waits for the thread to be woken (use it only when the
/// thread has a CPU of its own). Gives up `grace_s` seconds after the last
/// scheduled send.
[[nodiscard]] DriveResult drive(const LoadPlan& plan, std::uint16_t port,
                                const std::array<std::string, 2>& tenants, double grace_s,
                                bool spin);

}  // namespace perfbench
