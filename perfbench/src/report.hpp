#pragma once

// What a run prints: the host fingerprint, a table of every metric with
// its unit, and the one-line JSON result that ends standard output.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Cores, CPU model, active SIMD backend and build type of this process,
/// plus the source revision the caller passes in, as one JSON object.
[[nodiscard]] std::string hostFingerprint(const std::string& git_sha);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peakRssMb();

/// Shortest decimal that reads back as exactly `v` ("null" if not finite).
[[nodiscard]] std::string jsonNumber(double v);

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
[[nodiscard]] std::string resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
                                     const std::vector<Metric>& metrics);

/// Aligned "name  value unit" lines under a heading.
[[nodiscard]] std::string metricTable(const std::string& heading,
                                      const std::vector<Metric>& metrics);

/// Exact-repeat record: the first run for a record file writes `signature`
/// there; every later run must match it. Returns false with `why` set on a
/// mismatch or an unwritable file.
[[nodiscard]] bool checkRecord(const std::string& path, const std::string& signature,
                               std::string& why);

}  // namespace perfbench
