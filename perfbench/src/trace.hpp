#pragma once

// Host-time spans recorded around the benchmark's own calls into each
// layer, kept in memory and written once, at the end of a traced run, as
// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;        ///< "<layer>.<call>", or a root kind ("unit", "job", "setup")
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
  double start_us = 0.0;     ///< since the tracer's origin
  double end_us = 0.0;
  std::uint64_t track = 0;  ///< trace-viewer row (tid)
  bool reported = false;    ///< interval reported by the server, not timed here
};

/// The layer a span belongs to: the part of its name before the first
/// '.'; root spans ("unit", "job", "setup") belong to the benchmark.
[[nodiscard]] std::string spanLayer(const std::string& name);

/// A span's duration minus the part of it that its children cover (the
/// union of the children's intervals, clipped to the span).
[[nodiscard]] double selfTimeUs(const Span& span, const std::vector<const Span*>& children);

/// Sum of self time per layer over every span, in microseconds.
[[nodiscard]] std::map<std::string, double> selfTimeByLayerUs(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin = Clock::now()) : origin_(origin) {}

  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Records a finished span; returns its id.
  std::int64_t add(std::string name, std::int64_t parent, Clock::time_point start,
                   Clock::time_point end, std::uint64_t track = 0, bool reported = false);
  /// Same, with times already in microseconds since the origin.
  std::int64_t addUs(std::string name, std::int64_t parent, double start_us, double end_us,
                     std::uint64_t track, bool reported);

  /// Reserves the id of a span whose interval is known only later (a
  /// parent that must be named before its children finish).
  std::int64_t open(std::string name, std::int64_t parent, Clock::time_point start,
                    std::uint64_t track = 0);
  void close(std::int64_t id, Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as {"traceEvents": [...]} complete ("X") events.
  /// Throws std::runtime_error when the file cannot be written.
  void writeChromeJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times `fn()` in milliseconds; with a tracer, also records the call as a
/// span named `name` under `parent`.
template <typename Fn>
double timedMs(Tracer* tracer, const char* name, std::int64_t parent, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  std::forward<Fn>(fn)();
  const Clock::time_point t1 = Clock::now();
  if (tracer != nullptr) tracer->add(name, parent, t0, t1);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace perfbench
