#pragma once

// The three benchmark workloads. Each takes its seed from Options, builds
// its inputs from it, sets up several times (setup_s is the median), then
// measures for Options::seconds and checks every output.

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

/// Offered load of serve_mix: with the mix in loadgen.cpp the two farm
/// workers are 10-20% busy on a 4-core x86 host, depending on how fast the
/// host runs at the time. A light load keeps queueing from amplifying the
/// host's speed changes into the latency figures.
inline constexpr double kServeRate = 40.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: spans are written to trace_path and the per-layer
  /// metrics come from the traced part. Unit workloads alternate untraced
  /// and traced units (the tracing overhead is the difference of their
  /// medians); serve_mix builds its spans after the timed phase.
  bool trace = false;
  std::string trace_path;
  int setups = 5;  ///< set-ups per run; setup_s is their median
  // Input sizes; the benchmark's tests shrink them.
  int cif_width = 352;
  int cif_height = 288;
  int cif_frames = 9;
  double serve_rate = kServeRate;
};

struct Outcome {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< trace.* entries only in a traced run
  /// Simulated totals that must repeat exactly for the seed (the
  /// exact-repeat record).
  std::string signature;
  std::vector<std::string> notes;  ///< failures and facts worth printing
};

[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Runs one workload. Never throws: failures set correct = false and leave
/// a note.
[[nodiscard]] Outcome runWorkload(const Options& opts);

/// The decode-pin pre-flight: the pinned 96x80 decode on a default
/// instance must land exactly on the constants of tests/decode_pin.hpp.
/// Returns an empty string when it holds, else what differed.
[[nodiscard]] std::string checkDecodePin();

/// The pinned totals, for printing ("N cycles, N events, N macroblocks").
[[nodiscard]] std::string decodePinText();

}  // namespace perfbench
