#pragma once

// One "unit": a fresh EclipseInstance, the applications of a job
// configured onto it, a run to completion, verification and teardown —
// timed call by call, with the simulated counters read from the public
// shell, memory and PI-bus interfaces before teardown.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eclipse/farm/job.hpp"
#include "eclipse/farm/workload_cache.hpp"
#include "eclipse/sim/config.hpp"
#include "trace.hpp"

namespace perfbench {

/// Simulated totals of one unit (or a sum of units). Every field is a pure
/// function of the unit's inputs: the exact-repeat gate compares them.
struct SimCounts {
  std::uint64_t units = 0;
  std::uint64_t cycles = 0;
  std::uint64_t events = 0;
  std::uint64_t macroblocks = 0;
  // shell: summed over every shell's stream and task tables
  std::uint64_t getspace_calls = 0;
  std::uint64_t getspace_denied = 0;
  std::uint64_t putspace_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t task_switches = 0;
  // mem
  std::uint64_t sync_messages = 0;
  std::uint64_t sram_rd_busy = 0;  ///< busy cycles of the SRAM read bus
  std::uint64_t sram_wr_busy = 0;
  std::uint64_t system_bus_busy = 0;
  std::uint64_t mmio_writes = 0;  ///< PI-bus writes (the configure cost)
  // coproc: busy cycles of the five Figure-8 modules
  std::uint64_t vld_busy = 0;
  std::uint64_t rlsq_busy = 0;
  std::uint64_t dct_busy = 0;
  std::uint64_t mc_busy = 0;
  std::uint64_t cpu_busy = 0;
  /// FNV-1a over every encoder bitstream the unit produced (0: none).
  std::uint64_t bitstream_hash = 0;

  SimCounts& operator+=(const SimCounts& o);
  bool operator==(const SimCounts&) const = default;
  /// Canonical "key=value ..." rendering (the exact-repeat record).
  [[nodiscard]] std::string signature() const;
};

[[nodiscard]] std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

/// A prepared clip plus what its verification needs.
struct Clip {
  std::shared_ptr<const eclipse::farm::PreparedWorkload> w;
  /// Luma PSNR of the golden reconstruction against the source.
  double golden_psnr = 0.0;
  /// FNV-1a of the golden elementary stream.
  std::uint64_t golden_hash = 0;
};

/// Host time of the media layer while preparing clips (accumulated).
struct MediaTimes {
  double gen_s = 0.0;     ///< media::generateVideo
  double encode_s = 0.0;  ///< media::Encoder::encode (golden)
  double decode_s = 0.0;  ///< media::Decoder::decode of the golden stream
};

/// Generates and golden-encodes the clip a WorkloadDesc describes (the
/// recipe farm::WorkloadCache uses), timing each media call, and checks
/// that the software decoder reproduces the golden reconstruction. A clip
/// the instance will *encode* is golden-encoded with the motion search of
/// the instance's ME coprocessor (range, half-pel), so the simulated
/// encoder must reproduce the golden stream bit for bit. Throws
/// std::runtime_error when the software decode differs.
[[nodiscard]] Clip prepareClip(const eclipse::farm::WorkloadDesc& desc,
                               eclipse::farm::AppKind kind, const eclipse::sim::Config& config,
                               MediaTimes& times, Tracer* tracer = nullptr,
                               std::int64_t parent = -1);

struct UnitApp {
  eclipse::farm::AppKind kind = eclipse::farm::AppKind::Decode;
  Clip clip;
};

/// A job's applications on one instance shape. Applications are
/// configured in order, like a farm worker does.
struct UnitSpec {
  eclipse::sim::Config config;
  std::vector<UnitApp> apps;
};

struct UnitTimes {
  double build_ms = 0.0;      ///< EclipseInstance construction
  double configure_ms = 0.0;  ///< DecodeApp/EncodeApp: graphs programmed over the PI-bus
  double run_ms = 0.0;        ///< EclipseInstance::run
  double verify_ms = 0.0;     ///< output checks
  double teardown_ms = 0.0;   ///< settle, application teardown, instance destruction
  double total_ms = 0.0;
};

struct UnitResult {
  SimCounts counts;
  UnitTimes times;
  bool ok = false;
  std::string error;  ///< why !ok
};

/// Simulated-cycle cap of one unit: far above any workload here, so only
/// a hung model reaches it (and fails the unit).
inline constexpr std::uint64_t kUnitCycleCap = 500'000'000;

/// Runs one unit. With a tracer, each layer call becomes a span under one
/// "unit" span, itself under `parent`. Never throws: failures come back in
/// `error`.
[[nodiscard]] UnitResult runUnit(const UnitSpec& spec, Tracer* tracer = nullptr,
                                 std::int64_t parent = -1);

}  // namespace perfbench
