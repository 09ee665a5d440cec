#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>

#include "decode_pin.hpp"
#include "eclipse/farm/farm.hpp"
#include "eclipse/serve/jobspec.hpp"
#include "eclipse/serve/server.hpp"
#include "loadgen.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "unit.hpp"

namespace perfbench {

using namespace eclipse;

namespace {

// Latency limits of slo_ratio. The unit limits are about 1.3 times the
// highest latency_tail_ms seen in the reference runs on a 4-vCPU Xeon VM
// (308 ms for decode_cif, 708 ms for transcode_cif), so a unit misses its
// limit only when it runs slower than the host's slow mode.
// The serve limit sits above the QCIF jobs that form the tail.
constexpr double kDecodeSloMs = 400.0;
constexpr double kTranscodeSloMs = 900.0;
constexpr double kServeSloMs = 100.0;

constexpr int kServeWorkers = 2;
/// How long the load generator waits for replies after its last send.
constexpr double kGraceS = 60.0;
const std::array<std::string, 2> kTenants = {"tenant-a", "tenant-b"};

struct EndToEnd {
  double setup_s = 0.0;
  double mcycles_per_s = 0.0;
  double sim_cycles = 0.0;
  double success_ratio = 0.0;
  double peak_rss_mb = 0.0;
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  double slo_ratio = 0.0;

  [[nodiscard]] std::vector<Metric> metrics() const {
    return {{"setup_s", setup_s, "s"},
            {"mcycles_per_s", mcycles_per_s, "Mcycles/s"},
            {"sim_cycles", sim_cycles, "cycles"},
            {"success_ratio", success_ratio, "ratio"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
            {"latency_p50_ms", latency_p50_ms, "ms"},
            {"latency_tail_ms", latency_tail_ms, "ms"},
            {"slo_ratio", slo_ratio, "ratio"}};
  }
};

/// Every per-layer metric, in one fixed order for all workloads. A layer a
/// workload does not pass through reports 0.
struct PerLayer {
  double sim_events = 0, sim_ns_per_event = 0;
  double getspace_calls = 0, getspace_denied_ratio = 0, putspace_calls = 0, cache_hit_ratio = 0,
         prefetches = 0, task_switches = 0;
  double sync_messages = 0, sram_rd_util = 0, sram_wr_util = 0, system_bus_util = 0,
         mmio_writes = 0;
  double util_vld = 0, util_rlsq = 0, util_dct = 0, util_mc = 0, util_cpu = 0;
  double gen_s = 0, encode_s = 0, decode_s = 0;
  double build_ms = 0, configure_ms = 0, run_s = 0, verify_ms = 0, teardown_ms = 0;
  double farm_wall_ms_p50 = 0, farm_reuse_ratio = 0, farm_build_ms_per_cold = 0,
         farm_recycle_ms_per_reuse = 0, farm_queue_ms_p50 = 0, farm_worker_busy = 0;
  double admit_rtt_ms_p50 = 0, dispatch_queue_ms_p50 = 0, result_path_ms_p50 = 0,
         wire_ms_p50 = 0, refused = 0;
  double lag_tail_ms = 0, offered_jobs_per_s = 0, answered_jobs_per_s = 0;
  double trace_overhead_ms = 0, self_bench_s = 0, self_media_s = 0, self_app_s = 0,
         self_farm_s = 0, self_serve_s = 0;

  /// The simulated counts of a set of units (one unit, or a job mix).
  void setCounts(const SimCounts& c) {
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    sim_events = static_cast<double>(c.events);
    getspace_calls = static_cast<double>(c.getspace_calls);
    getspace_denied_ratio = ratio(c.getspace_denied, c.getspace_calls);
    putspace_calls = static_cast<double>(c.putspace_calls);
    cache_hit_ratio = ratio(c.cache_hits, c.cache_hits + c.cache_misses);
    prefetches = static_cast<double>(c.prefetches);
    task_switches = static_cast<double>(c.task_switches);
    sync_messages = static_cast<double>(c.sync_messages);
    sram_rd_util = ratio(c.sram_rd_busy, c.cycles);
    sram_wr_util = ratio(c.sram_wr_busy, c.cycles);
    system_bus_util = ratio(c.system_bus_busy, c.cycles);
    mmio_writes = static_cast<double>(c.mmio_writes);
    util_vld = ratio(c.vld_busy, c.cycles);
    util_rlsq = ratio(c.rlsq_busy, c.cycles);
    util_dct = ratio(c.dct_busy, c.cycles);
    util_mc = ratio(c.mc_busy, c.cycles);
    util_cpu = ratio(c.cpu_busy, c.cycles);
  }

  /// Media-layer times: the median over the run's set-ups.
  void setMedia(const std::vector<MediaTimes>& setups) {
    std::vector<double> gen, enc, dec;
    for (const MediaTimes& m : setups) {
      gen.push_back(m.gen_s);
      enc.push_back(m.encode_s);
      dec.push_back(m.decode_s);
    }
    gen_s = median(gen);
    encode_s = median(enc);
    decode_s = median(dec);
  }

  void setSelfTimes(const Tracer& tracer) {
    const auto self = selfTimeByLayerUs(tracer.spans());
    const auto get = [&](const char* layer) {
      const auto it = self.find(layer);
      return it == self.end() ? 0.0 : it->second / 1e6;
    };
    self_bench_s = get("bench");
    self_media_s = get("media");
    self_app_s = get("app");
    self_farm_s = get("farm");
    self_serve_s = get("serve");
  }

  [[nodiscard]] std::vector<Metric> metrics(bool traced) const {
    std::vector<Metric> m = {
        {"sim.events", sim_events, "count"},
        {"sim.ns_per_event", sim_ns_per_event, "ns"},
        {"shell.getspace_calls", getspace_calls, "count"},
        {"shell.getspace_denied_ratio", getspace_denied_ratio, "ratio"},
        {"shell.putspace_calls", putspace_calls, "count"},
        {"shell.cache_hit_ratio", cache_hit_ratio, "ratio"},
        {"shell.prefetches", prefetches, "count"},
        {"shell.task_switches", task_switches, "count"},
        {"mem.sync_messages", sync_messages, "count"},
        {"mem.sram_rd_util", sram_rd_util, "ratio"},
        {"mem.sram_wr_util", sram_wr_util, "ratio"},
        {"mem.system_bus_util", system_bus_util, "ratio"},
        {"mem.mmio_writes", mmio_writes, "count"},
        {"coproc.util.vld", util_vld, "ratio"},
        {"coproc.util.rlsq", util_rlsq, "ratio"},
        {"coproc.util.dct", util_dct, "ratio"},
        {"coproc.util.mc", util_mc, "ratio"},
        {"coproc.util.dsp-cpu", util_cpu, "ratio"},
        {"media.gen_s", gen_s, "s"},
        {"media.encode_s", encode_s, "s"},
        {"media.decode_s", decode_s, "s"},
        {"app.build_ms", build_ms, "ms"},
        {"app.configure_ms", configure_ms, "ms"},
        {"app.run_s", run_s, "s"},
        {"app.verify_ms", verify_ms, "ms"},
        {"app.teardown_ms", teardown_ms, "ms"},
        {"farm.wall_ms_p50", farm_wall_ms_p50, "ms"},
        {"farm.reuse_ratio", farm_reuse_ratio, "ratio"},
        {"farm.build_ms_per_cold", farm_build_ms_per_cold, "ms"},
        {"farm.recycle_ms_per_reuse", farm_recycle_ms_per_reuse, "ms"},
        {"farm.queue_ms_p50", farm_queue_ms_p50, "ms"},
        {"farm.worker_busy", farm_worker_busy, "ratio"},
        {"serve.admit_rtt_ms_p50", admit_rtt_ms_p50, "ms"},
        {"serve.dispatch_queue_ms_p50", dispatch_queue_ms_p50, "ms"},
        {"serve.result_path_ms_p50", result_path_ms_p50, "ms"},
        {"serve.wire_ms_p50", wire_ms_p50, "ms"},
        {"serve.refused", refused, "count"},
        {"loadgen.lag_tail_ms", lag_tail_ms, "ms"},
        {"loadgen.offered_jobs_per_s", offered_jobs_per_s, "1/s"},
        {"loadgen.answered_jobs_per_s", answered_jobs_per_s, "1/s"},
    };
    if (traced) {
      m.push_back({"trace.overhead_ms", trace_overhead_ms, "ms"});
      m.push_back({"trace.self_s.bench", self_bench_s, "s"});
      m.push_back({"trace.self_s.media", self_media_s, "s"});
      m.push_back({"trace.self_s.app", self_app_s, "s"});
      m.push_back({"trace.self_s.farm", self_farm_s, "s"});
      m.push_back({"trace.self_s.serve", self_serve_s, "s"});
    }
    return m;
  }
};

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

void noteTail(Outcome& out, const char* what, const Tail& t) {
  out.notes.push_back(std::string(what) + fmt(" tail: p%.2f of %.0f samples (%.0f beyond it)",
                                               t.percentile, static_cast<double>(t.samples),
                                               static_cast<double>(t.beyond)));
}

void fail(Outcome& out, const std::string& why) {
  out.correct = false;
  out.notes.push_back("FAIL: " + why);
}

// ---------------------------------------------------------------- units

using SpecBuilder =
    std::function<UnitSpec(const Options&, MediaTimes&, Tracer*, std::int64_t)>;

farm::WorkloadDesc cifDesc(const Options& o, std::uint64_t salt) {
  farm::WorkloadDesc d;  // qscale 14, GOP {9,3} = IBBPBBPBB, detail 8, motion 4
  d.width = o.cif_width;
  d.height = o.cif_height;
  d.frames = o.cif_frames;
  d.seed = clipSeed(o.seed, salt);
  return d;
}

UnitSpec decodeSpec(const Options& o, MediaTimes& mt, Tracer* tr, std::int64_t parent) {
  UnitSpec s;
  s.apps.push_back({farm::AppKind::Decode,
                    prepareClip(cifDesc(o, 1), farm::AppKind::Decode, s.config, mt, tr, parent)});
  return s;
}

/// The paper's §6 time-shift: record one clip while playing back another
/// on one instance with a 64 KiB stream memory.
UnitSpec transcodeSpec(const Options& o, MediaTimes& mt, Tracer* tr, std::int64_t parent) {
  UnitSpec s;
  s.config.set("sram.size_bytes", static_cast<std::int64_t>(64 * 1024));
  s.apps.push_back({farm::AppKind::Encode,
                    prepareClip(cifDesc(o, 2), farm::AppKind::Encode, s.config, mt, tr, parent)});
  s.apps.push_back({farm::AppKind::Decode,
                    prepareClip(cifDesc(o, 3), farm::AppKind::Decode, s.config, mt, tr, parent)});
  return s;
}

std::vector<double> unitTimes(const std::vector<UnitResult>& units, double UnitTimes::*field) {
  std::vector<double> v;
  v.reserve(units.size());
  for (const UnitResult& u : units) v.push_back(u.times.*field);
  return v;
}

Outcome runUnits(const Options& o, const SpecBuilder& build, double slo_ms) {
  Outcome out;
  out.correct = true;
  Tracer tracer;
  struct SetUp {
    UnitSpec spec;
    UnitResult warm;  ///< the discarded warm-up unit
    MediaTimes media;
    double seconds = 0.0;
  };
  auto setUp = [&](Tracer* tr) {
    SetUp s;
    const Clock::time_point t0 = Clock::now();
    const std::int64_t root = tr != nullptr ? tr->open("setup", -1, t0) : -1;
    try {
      s.spec = build(o, s.media, tr, root);
      s.warm = runUnit(s.spec, tr, root);
    } catch (const std::exception& e) {
      s.warm.ok = false;
      s.warm.error = e.what();
    }
    const Clock::time_point t1 = Clock::now();
    if (tr != nullptr) tr->close(root, t1);
    s.seconds = std::chrono::duration<double>(t1 - t0).count();
    return s;
  };
  // The first set-up feeds the timed phase. The repeats that setup_s takes
  // its median over run after it, so their leftovers reach neither the
  // timed units nor peak_rss_mb.
  const SetUp first = setUp(o.trace ? &tracer : nullptr);
  if (!first.warm.ok) {
    fail(out, "set-up unit: " + first.warm.error);
    return out;
  }
  const UnitSpec& spec = first.spec;
  const SimCounts& ref = first.warm.counts;
  out.signature = ref.signature();

  // A traced run alternates untraced and traced units, so that drift of
  // the host's speed cancels out of trace.overhead_ms.
  std::vector<UnitResult> plain;
  std::vector<UnitResult> traced;
  const Clock::time_point t0 = Clock::now();
  do {
    const bool trace_unit = o.trace && plain.size() > traced.size();
    (trace_unit ? traced : plain).push_back(runUnit(spec, trace_unit ? &tracer : nullptr));
  } while (std::chrono::duration<double>(Clock::now() - t0).count() < o.seconds);

  std::uint64_t ok = 0;
  std::uint64_t within_slo = 0;
  for (const auto* phase : {&plain, &traced}) {
    for (const UnitResult& u : *phase) {
      ++out.attempted;
      if (!u.ok) {
        if (out.failed++ == 0) fail(out, "unit: " + u.error);
      } else if (!(u.counts == ref)) {
        if (out.failed++ == 0) {
          fail(out, "exact-repeat gate: unit totals differ from the set-up unit:\n  " +
                        ref.signature() + "\n  " + u.counts.signature());
        }
      } else {
        ++ok;
        if (phase == &plain && u.times.total_ms <= slo_ms) ++within_slo;
      }
    }
  }

  const double peak_rss_mb = peakRssMb();
  std::vector<double> setup_s = {first.seconds};
  std::vector<MediaTimes> media = {first.media};
  for (int i = 1; i < o.setups; ++i) {
    const SetUp again = setUp(nullptr);
    if (!again.warm.ok) {
      fail(out, "repeated set-up unit: " + again.warm.error);
    } else if (!(again.warm.counts == ref)) {
      fail(out, "exact-repeat gate: set-up units differ:\n  " + ref.signature() + "\n  " +
                    again.warm.counts.signature());
    }
    setup_s.push_back(again.seconds);
    media.push_back(again.media);
  }

  const std::vector<double> total_ms = unitTimes(plain, &UnitTimes::total_ms);
  const double unit_ms = median(total_ms);
  const Tail tail = tailPercentile(total_ms);
  EndToEnd e;
  e.setup_s = median(setup_s);
  e.mcycles_per_s = static_cast<double>(ref.cycles) / (unit_ms / 1e3) / 1e6;
  e.sim_cycles = static_cast<double>(ref.cycles);
  e.success_ratio = static_cast<double>(ok) / static_cast<double>(out.attempted);
  e.peak_rss_mb = peak_rss_mb;
  e.latency_p50_ms = unit_ms;
  e.latency_tail_ms = tail.value;
  e.slo_ratio = static_cast<double>(within_slo) / static_cast<double>(plain.size());
  out.end_to_end = e.metrics();
  noteTail(out, "unit time", tail);

  // Per-layer host times come from the traced units of a traced run.
  const std::vector<UnitResult>& timed = o.trace ? traced : plain;
  PerLayer p;
  p.setCounts(ref);
  p.sim_ns_per_event = median(unitTimes(timed, &UnitTimes::run_ms)) * 1e6 /
                       static_cast<double>(ref.events);
  p.setMedia(media);
  p.build_ms = median(unitTimes(timed, &UnitTimes::build_ms));
  p.configure_ms = median(unitTimes(timed, &UnitTimes::configure_ms));
  p.run_s = median(unitTimes(timed, &UnitTimes::run_ms)) / 1e3;
  p.verify_ms = median(unitTimes(timed, &UnitTimes::verify_ms));
  p.teardown_ms = median(unitTimes(timed, &UnitTimes::teardown_ms));
  if (o.trace) {
    p.trace_overhead_ms = median(unitTimes(traced, &UnitTimes::total_ms)) - unit_ms;
    p.setSelfTimes(tracer);
  }
  out.per_layer = p.metrics(o.trace);
  out.notes.push_back(fmt("%.0f units of %.0f simulated cycles", static_cast<double>(out.attempted),
                          static_cast<double>(ref.cycles)));
  if (o.trace && !o.trace_path.empty()) tracer.writeChromeJson(o.trace_path);
  return out;
}

// ---------------------------------------------------------------- serve

/// Simulated fields of a served result against its in-process oracle.
bool sameSimulated(const serve::WireResult& w, const farm::JobResult& r) {
  return w.status == r.status && w.cause == r.cause && w.sim_cycles == r.sim_cycles &&
         w.sim_events == r.sim_events && w.macroblocks == r.macroblocks &&
         w.bit_exact == r.bit_exact && w.psnr_db == r.psnr_db &&
         w.faults_latched == r.faults_latched && w.stalls_latched == r.stalls_latched &&
         w.frames_dropped == r.frames_dropped && w.mode_switches == r.mode_switches &&
         w.quiescence == r.quiescence;
}

/// Farm worker counters, summed over live and replaced workers.
struct FarmTotals {
  double busy_ms = 0, build_ms = 0, recycle_ms = 0;
  double reused = 0, cold = 0;

  static FarmTotals of(const farm::FarmMetrics& m) {
    FarmTotals t;
    for (const auto* list : {&m.workers, &m.zombies}) {
      for (const farm::WorkerStats& w : *list) {
        t.busy_ms += w.busy_ms;
        t.build_ms += w.build_ms;
        t.recycle_ms += w.recycle_ms;
        t.reused += static_cast<double>(w.reused);
        t.cold += static_cast<double>(w.cold_builds);
      }
    }
    return t;
  }

  FarmTotals operator-(const FarmTotals& o) const {
    return {busy_ms - o.busy_ms, build_ms - o.build_ms, recycle_ms - o.recycle_ms,
            reused - o.reused, cold - o.cold};
  }
};

/// One set-up of serve_mix: every distinct jobspec prepared, its oracle
/// result and reference unit computed, and a warmed-up server.
struct ServeRig {
  LoadPlan specs;
  std::vector<farm::JobResult> oracle;  ///< per spec: Farm::submitWait
  std::vector<UnitResult> ref;          ///< per spec: the same job as a unit
  MediaTimes media;
  std::shared_ptr<farm::WorkloadCache> cache = std::make_shared<farm::WorkloadCache>();
  /// The oracle's 1-worker farm, kept until the rig goes. When a thread
  /// exits, glibc hands its allocator arena (here holding an instance's
  /// 16 MB) to the next thread that allocates; whether that was one of the
  /// server's farm workers depended on timing, and peak_rss_mb counted one
  /// instance more or less.
  std::unique_ptr<farm::Farm> oracle_farm;
  std::unique_ptr<serve::Server> server;
};

/// Checks every job of a finished plan against its oracle: a job is correct
/// when it was answered, completed, and matches the oracle in every
/// simulated field. Notes the first failure.
std::vector<bool> checkServed(const LoadPlan& plan, const DriveResult& d, const ServeRig& rig,
                              Outcome& out, const char* phase) {
  std::vector<bool> correct(plan.jobs.size(), false);
  bool noted = false;
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const JobOutcome& j = d.jobs[i];
    std::string why;
    if (j.rejected) {
      why = std::string("refused: ") + serve::rejectReasonName(j.reason);
    } else if (!j.answered) {
      why = "no result";
    } else if (j.result.status != farm::JobStatus::Completed) {
      why = std::string("status ") + farm::jobStatusName(j.result.status) + " " + j.result.error;
    } else if (!sameSimulated(j.result, rig.oracle[plan.jobs[i].spec])) {
      why = "simulated fields differ from the Farm::submitWait oracle";
    }
    correct[i] = why.empty();
    if (!why.empty() && !noted) {
      noted = true;
      fail(out, std::string(phase) + " job '" + plan.specs[plan.jobs[i].spec] + "': " + why);
    }
  }
  return correct;
}

std::unique_ptr<ServeRig> setupServe(const Options& o, Tracer* tr, std::int64_t parent,
                                     Outcome& out) {
  auto rig = std::make_unique<ServeRig>();
  rig->specs = distinctSpecs(o.seed);
  std::vector<farm::Job> jobs;
  std::vector<UnitSpec> units;
  for (const std::string& spec : rig->specs.specs) {
    serve::ParsedSpec ps;
    std::string err;
    if (!serve::parseJobSpec(spec, ps, err)) {
      throw std::runtime_error("jobspec '" + spec + "': " + err);
    }
    UnitSpec u;
    u.config = ps.job.config;
    for (const farm::AppSpec& a : ps.job.apps) {
      u.apps.push_back({a.kind, prepareClip(a.workload, a.kind, u.config, rig->media, tr, parent)});
      (void)rig->cache->get(a.workload);  // the farm's copy, built before timing starts
    }
    jobs.push_back(ps.job);
    units.push_back(std::move(u));
  }
  {
    const Clock::time_point t0 = Clock::now();
    farm::FarmOptions fo;
    fo.workers = 1;
    fo.cache = rig->cache;
    rig->oracle_farm = std::make_unique<farm::Farm>(fo);
    for (const farm::Job& j : jobs) rig->oracle.push_back(rig->oracle_farm->submitWait(j).get());
    if (tr != nullptr) tr->add("farm.oracle", parent, t0, Clock::now());
  }
  for (std::size_t i = 0; i < units.size(); ++i) {
    const farm::JobResult& r = rig->oracle[i];
    UnitResult u = runUnit(units[i], tr, parent);
    if (r.status != farm::JobStatus::Completed || !r.bit_exact) {
      throw std::runtime_error("oracle run of '" + rig->specs.specs[i] + "' failed: " +
                               farm::jobStatusName(r.status) + " " + r.error);
    }
    if (!u.ok) throw std::runtime_error("reference unit '" + rig->specs.specs[i] + "': " + u.error);
    if (u.counts.cycles != r.sim_cycles || u.counts.events != r.sim_events ||
        u.counts.macroblocks != r.macroblocks) {
      throw std::runtime_error("reference unit of '" + rig->specs.specs[i] +
                               "' disagrees with the farm oracle on cycles/events/macroblocks");
    }
    rig->ref.push_back(std::move(u));
  }

  serve::ServeOptions so;
  so.farm.workers = kServeWorkers;
  so.farm.cache = rig->cache;
  so.auto_register = false;
  for (const std::string& name : kTenants) {
    serve::TenantConfig t;
    t.name = name;
    t.rate = 0.0;  // no token bucket: a wall-clock limit must never shed a planned job
    t.max_pending = 1u << 20;
    so.tenants.push_back(t);
  }
  const Clock::time_point ts = Clock::now();
  {
    const ScopedAffinity server_side(ScopedAffinity::Side::Server);
    rig->server = std::make_unique<serve::Server>(so);
    rig->server->start();
  }
  const LoadPlan warm = warmupPlan(o.seed);
  const ScopedAffinity client_side(ScopedAffinity::Side::Client);
  const DriveResult d = drive(warm, rig->server->port(), kTenants, kGraceS, client_side.changed());
  if (tr != nullptr) tr->add("serve.warmup", parent, ts, Clock::now());
  if (!d.complete) throw std::runtime_error("warm-up: " + d.error);
  const std::vector<bool> ok = checkServed(warm, d, *rig, out, "warm-up");
  if (std::find(ok.begin(), ok.end(), false) != ok.end()) return nullptr;
  return rig;
}

Outcome runServe(const Options& o) {
  Outcome out;
  out.correct = true;
  Tracer tracer;
  std::vector<double> setup_s;
  std::vector<MediaTimes> media;
  auto setUp = [&](Tracer* tr) {
    std::unique_ptr<ServeRig> rig;
    const Clock::time_point t0 = Clock::now();
    const std::int64_t root = tr != nullptr ? tr->open("setup", -1, t0) : -1;
    try {
      rig = setupServe(o, tr, root, out);
    } catch (const std::exception& e) {
      fail(out, std::string("set-up: ") + e.what());
    }
    const Clock::time_point t1 = Clock::now();
    if (tr != nullptr) tr->close(root, t1);
    if (rig != nullptr) {
      setup_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      media.push_back(rig->media);
    }
    return rig;
  };
  // As for the unit workloads, the repeated set-ups run after the timed
  // phase (each server's threads leave allocator arenas behind).
  const std::unique_ptr<ServeRig> rig = setUp(o.trace ? &tracer : nullptr);
  if (rig == nullptr) return out;
  for (std::size_t i = 0; i < rig->specs.specs.size(); ++i) {
    out.signature += rig->specs.specs[i] + ": " + rig->ref[i].counts.signature() + "; ";
  }

  // The timed phase. A traced run is the same phase: its spans are built
  // afterwards from the timestamps the load generator keeps anyway.
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(o.serve_rate * o.seconds)));
  const LoadPlan plan = makeLoadPlan(o.seed, n, o.serve_rate);
  const FarmTotals farm_before = FarmTotals::of(rig->server->farm().metrics());
  DriveResult run;
  {
    const ScopedAffinity client_side(ScopedAffinity::Side::Client);
    run = drive(plan, rig->server->port(), kTenants, kGraceS, client_side.changed());
  }
  const FarmTotals farm = FarmTotals::of(rig->server->farm().metrics()) - farm_before;
  rig->server->shutdown();
  const double peak_rss_mb = peakRssMb();
  for (int i = 1; i < o.setups; ++i) {
    const std::unique_ptr<ServeRig> again = setUp(nullptr);
    if (again != nullptr && again->ref.size() == rig->ref.size()) {
      for (std::size_t k = 0; k < rig->ref.size(); ++k) {
        if (!(again->ref[k].counts == rig->ref[k].counts)) {
          fail(out, "exact-repeat gate: set-up reference units differ for '" +
                        rig->specs.specs[k] + "'");
        }
      }
    }
  }

  if (!run.complete) fail(out, "load generator: " + run.error);
  const std::vector<bool> correct = checkServed(plan, run, *rig, out, "served");
  out.attempted = correct.size();
  out.failed = static_cast<std::uint64_t>(std::count(correct.begin(), correct.end(), false));

  // Latency of a job: from its scheduled send time to its Result.
  auto latencyMs = [&](std::size_t i) { return (run.jobs[i].result_s - plan.jobs[i].due_s) * 1e3; };
  std::vector<double> lat;
  double cycles_planned = 0.0;
  double cycles_served = 0.0;
  double wall_ms = 0.0;
  std::uint64_t within_slo = 0;
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    const JobOutcome& j = run.jobs[i];
    cycles_planned += static_cast<double>(rig->oracle[plan.jobs[i].spec].sim_cycles);
    if (j.answered) {
      lat.push_back(latencyMs(i));
      cycles_served += static_cast<double>(j.result.sim_cycles);
      wall_ms += j.result.wall_ms;
    }
    if (correct[i] && latencyMs(i) <= kServeSloMs) ++within_slo;
  }
  const Tail tail = tailPercentile(lat);
  const auto n_jobs = static_cast<double>(plan.jobs.size());
  EndToEnd e;
  e.setup_s = median(setup_s);
  e.mcycles_per_s = wall_ms > 0.0 ? cycles_served / (wall_ms / 1e3) / 1e6 : 0.0;
  e.sim_cycles = cycles_planned;
  e.success_ratio = static_cast<double>(out.attempted - out.failed) / n_jobs;
  e.peak_rss_mb = peak_rss_mb;
  e.latency_p50_ms = median(lat);
  e.latency_tail_ms = tail.value;
  e.slo_ratio = static_cast<double>(within_slo) / n_jobs;
  out.end_to_end = e.metrics();
  noteTail(out, "job latency", tail);

  PerLayer p;
  SimCounts mix;
  UnitTimes mix_times;
  for (const PlannedJob& j : plan.jobs) {
    mix += rig->ref[j.spec].counts;
    const UnitTimes& t = rig->ref[j.spec].times;
    mix_times.build_ms += t.build_ms;
    mix_times.configure_ms += t.configure_ms;
    mix_times.run_ms += t.run_ms;
    mix_times.verify_ms += t.verify_ms;
    mix_times.teardown_ms += t.teardown_ms;
  }
  p.setCounts(mix);
  p.sim_ns_per_event = mix_times.run_ms * 1e6 / static_cast<double>(mix.events);
  p.setMedia(media);
  p.build_ms = mix_times.build_ms / n_jobs;
  p.configure_ms = mix_times.configure_ms / n_jobs;
  p.run_s = mix_times.run_ms / n_jobs / 1e3;
  p.verify_ms = mix_times.verify_ms / n_jobs;
  p.teardown_ms = mix_times.teardown_ms / n_jobs;

  std::vector<double> wall, farm_queue, admit, dispatch, result_path, wire, lag;
  double first_sent = 1e300, last_result = 0.0;
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    const JobOutcome& j = run.jobs[i];
    if (j.sent) {
      lag.push_back((j.sent_s - plan.jobs[i].due_s) * 1e3);
      first_sent = std::min(first_sent, j.sent_s);
    }
    if (j.rejected) p.refused += 1;
    if (j.accepted) admit.push_back((j.reply_s - j.sent_s) * 1e3);
    if (!j.answered) continue;
    const serve::WireResult& r = j.result;
    last_result = std::max(last_result, j.result_s);
    wall.push_back(r.wall_ms);
    farm_queue.push_back(r.latency_ms - r.wall_ms);
    dispatch.push_back(r.queue_ms);
    result_path.push_back(r.serve_ms - r.queue_ms - r.latency_ms);
    wire.push_back((j.result_s - j.sent_s) * 1e3 - r.serve_ms);
  }
  p.farm_wall_ms_p50 = median(wall);
  p.farm_reuse_ratio = farm.reused / std::max(1.0, farm.reused + farm.cold);
  p.farm_build_ms_per_cold = farm.build_ms / std::max(1.0, farm.cold);
  p.farm_recycle_ms_per_reuse = farm.recycle_ms / std::max(1.0, farm.reused);
  p.farm_queue_ms_p50 = median(farm_queue);
  const double span_s = last_result - std::min(first_sent, last_result);
  p.farm_worker_busy = span_s > 0.0 ? farm.busy_ms / 1e3 / (kServeWorkers * span_s) : 0.0;
  p.admit_rtt_ms_p50 = median(admit);
  p.dispatch_queue_ms_p50 = median(dispatch);
  p.result_path_ms_p50 = median(result_path);
  p.wire_ms_p50 = median(wire);
  p.lag_tail_ms = tailPercentile(lag).value;
  p.offered_jobs_per_s = n_jobs / std::max(1e-9, plan.jobs.back().due_s);
  p.answered_jobs_per_s = static_cast<double>(wall.size()) / std::max(1e-9, span_s);

  if (o.trace) {
    // The spans are built from the load generator's timestamps after the
    // timed phase, so tracing adds nothing to job latency; its overhead is
    // the host time spent building them. Intervals the server reports are
    // placed so they end when the Result arrived.
    const Clock::time_point t0 = Clock::now();
    const double o_us = tracer.us(run.origin);
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
      const JobOutcome& j = run.jobs[i];
      if (!j.sent) continue;
      const std::uint64_t track = 1000 + i;
      const double end = o_us + 1e6 * (j.answered ? j.result_s : j.reply_s);
      const std::int64_t root =
          tracer.addUs("job", -1, o_us + 1e6 * plan.jobs[i].due_s, end, track, false);
      if (j.accepted || j.rejected) {
        tracer.addUs("serve.admit", root, o_us + 1e6 * j.sent_s, o_us + 1e6 * j.reply_s, track,
                     false);
      }
      if (!j.answered) continue;
      const serve::WireResult& r = j.result;
      const double s0 = end - 1e3 * r.serve_ms;
      const std::int64_t srv = tracer.addUs("serve.server", root, s0, end, track, true);
      const double q1 = s0 + 1e3 * r.queue_ms;
      const double f1 = q1 + 1e3 * (r.latency_ms - r.wall_ms);
      tracer.addUs("serve.queue", srv, s0, q1, track, true);
      tracer.addUs("farm.queue", srv, q1, f1, track, true);
      tracer.addUs("farm.run", srv, f1, f1 + 1e3 * r.wall_ms, track, true);
    }
    p.trace_overhead_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    p.setSelfTimes(tracer);
    if (!o.trace_path.empty()) tracer.writeChromeJson(o.trace_path);
  }
  out.per_layer = p.metrics(o.trace);
  const auto comp = composition(plan.jobs.size());
  out.notes.push_back(fmt("%.0f jobs offered at %.1f jobs/s", n_jobs, o.serve_rate) +
                      " (tiny-dec " + std::to_string(comp[0]) + ", tiny-enc " +
                      std::to_string(comp[1]) + ", pin " + std::to_string(comp[2]) + ", dual " +
                      std::to_string(comp[3]) + ", qcif " + std::to_string(comp[4]) + ")");
  return out;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"decode_cif", "transcode_cif", "serve_mix"};
  return names;
}

Outcome runWorkload(const Options& opts) {
  try {
    if (opts.workload == "decode_cif") return runUnits(opts, decodeSpec, kDecodeSloMs);
    if (opts.workload == "transcode_cif") return runUnits(opts, transcodeSpec, kTranscodeSloMs);
    if (opts.workload == "serve_mix") return runServe(opts);
    Outcome out;
    fail(out, "unknown workload " + opts.workload);
    return out;
  } catch (const std::exception& e) {
    Outcome out;
    fail(out, e.what());
    return out;
  }
}

std::string checkDecodePin() {
  MediaTimes mt;
  UnitSpec s;
  // The WorkloadDesc defaults are the pin workload.
  const farm::WorkloadDesc pin;
  s.apps.push_back({farm::AppKind::Decode, prepareClip(pin, farm::AppKind::Decode, s.config, mt)});
  const UnitResult r = runUnit(s);
  if (!r.ok) return "decode pin: " + r.error;
  if (r.counts.cycles != pin::kDecodePinCycles || r.counts.events != pin::kDecodePinEvents ||
      r.counts.macroblocks != pin::kDecodePinMacroblocks) {
    return "decode pin moved: " + std::to_string(r.counts.cycles) + " cycles, " +
           std::to_string(r.counts.events) + " events, " + std::to_string(r.counts.macroblocks) +
           " macroblocks (expected " + decodePinText() + ")";
  }
  return {};
}

std::string decodePinText() {
  return std::to_string(pin::kDecodePinCycles) + " cycles, " +
         std::to_string(pin::kDecodePinEvents) + " events, " +
         std::to_string(pin::kDecodePinMacroblocks) + " macroblocks";
}

}  // namespace perfbench
