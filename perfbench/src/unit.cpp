#include "unit.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "eclipse/app/decode_app.hpp"
#include "eclipse/app/encode_app.hpp"
#include "eclipse/app/instance.hpp"
#include "eclipse/media/codec.hpp"
#include "eclipse/media/metrics.hpp"
#include "eclipse/media/video_gen.hpp"

namespace perfbench {

using namespace eclipse;

namespace {

/// Settling allowance after the applications finish (parked control loops,
/// in-flight putspace messages); a healthy graph settles in far less.
constexpr sim::Cycle kSettleCap = 1'000'000;

std::uint64_t busyCycles(shell::Shell& sh, sim::Cycle elapsed) {
  const double busy = sh.utilization(elapsed) * static_cast<double>(elapsed);
  return static_cast<std::uint64_t>(std::llround(busy));
}

SimCounts readCounts(app::EclipseInstance& inst, sim::Cycle cycles, std::uint64_t events) {
  SimCounts c;
  c.units = 1;
  c.cycles = cycles;
  c.events = events;
  for (auto& sh : inst.shells()) {
    const shell::StreamTable& st = sh->streams();
    for (std::uint32_t i = 0; i < st.capacity(); ++i) {
      const shell::StreamRow& r = st.row(i);
      if (!r.valid) continue;
      c.getspace_calls += r.getspace_calls;
      c.getspace_denied += r.getspace_denied;
      c.putspace_calls += r.putspace_calls;
      c.cache_hits += r.cache_hits;
      c.cache_misses += r.cache_misses;
      c.prefetches += r.prefetches;
    }
    c.task_switches += sh->taskSwitches();
  }
  c.sync_messages = inst.network().messagesSent();
  c.sram_rd_busy = inst.sram().readBus().stats().busy_cycles;
  c.sram_wr_busy = inst.sram().writeBus().stats().busy_cycles;
  c.system_bus_busy = inst.dram().bus().stats().busy_cycles;
  c.mmio_writes = inst.piBus().writeCount();
  c.vld_busy = busyCycles(inst.vldShell(), cycles);
  c.rlsq_busy = busyCycles(inst.rlsqShell(), cycles);
  c.dct_busy = busyCycles(inst.dctShell(), cycles);
  c.mc_busy = busyCycles(inst.mcShell(), cycles);
  c.cpu_busy = busyCycles(inst.cpuShell(), cycles);
  return c;
}

}  // namespace

SimCounts& SimCounts::operator+=(const SimCounts& o) {
  units += o.units;
  cycles += o.cycles;
  events += o.events;
  macroblocks += o.macroblocks;
  getspace_calls += o.getspace_calls;
  getspace_denied += o.getspace_denied;
  putspace_calls += o.putspace_calls;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  prefetches += o.prefetches;
  task_switches += o.task_switches;
  sync_messages += o.sync_messages;
  sram_rd_busy += o.sram_rd_busy;
  sram_wr_busy += o.sram_wr_busy;
  system_bus_busy += o.system_bus_busy;
  mmio_writes += o.mmio_writes;
  vld_busy += o.vld_busy;
  rlsq_busy += o.rlsq_busy;
  dct_busy += o.dct_busy;
  mc_busy += o.mc_busy;
  cpu_busy += o.cpu_busy;
  bitstream_hash = bitstream_hash * 0x100000001b3ULL ^ o.bitstream_hash;
  return *this;
}

std::string SimCounts::signature() const {
  std::ostringstream os;
  os << "units=" << units << " cycles=" << cycles << " events=" << events
     << " macroblocks=" << macroblocks << " getspace=" << getspace_calls
     << " denied=" << getspace_denied << " putspace=" << putspace_calls
     << " hits=" << cache_hits << " misses=" << cache_misses << " prefetches=" << prefetches
     << " switches=" << task_switches << " sync=" << sync_messages << " rd=" << sram_rd_busy
     << " wr=" << sram_wr_busy << " sysbus=" << system_bus_busy << " mmio=" << mmio_writes
     << " vld=" << vld_busy << " rlsq=" << rlsq_busy << " dct=" << dct_busy
     << " mc=" << mc_busy << " cpu=" << cpu_busy << " bitstreams=" << bitstream_hash;
  return os.str();
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes, std::uint64_t h) {
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Clip prepareClip(const farm::WorkloadDesc& desc, farm::AppKind kind, const sim::Config& config,
                 MediaTimes& times, Tracer* tracer, std::int64_t parent) {
  auto w = std::make_shared<farm::PreparedWorkload>();
  w->video.width = desc.width;
  w->video.height = desc.height;
  w->video.frames = desc.frames;
  w->video.seed = desc.seed;
  w->video.detail = desc.detail;
  w->video.noise_level = desc.noise_level;
  w->video.motion_speed = desc.motion_speed;
  w->codec.width = desc.width;
  w->codec.height = desc.height;
  w->codec.qscale = desc.qscale;
  w->codec.gop = media::GopStructure{desc.gop_n, desc.gop_m};
  if (kind == farm::AppKind::Encode) {
    const coproc::McParams me = app::InstanceParams::fromConfig(config).mc;
    w->codec.search.range = me.search_range;
    w->codec.search.half_pel = me.half_pel;
  }
  w->macroblocks_per_clip = static_cast<std::uint64_t>(desc.width / 16) *
                            static_cast<std::uint64_t>(desc.height / 16) *
                            static_cast<std::uint64_t>(desc.frames);

  times.gen_s += timedMs(tracer, "media.gen", parent,
                         [&] { w->frames = media::generateVideo(w->video); }) / 1e3;
  media::Encoder enc(w->codec);
  times.encode_s += timedMs(tracer, "media.encode", parent,
                            [&] { w->bitstream = enc.encode(w->frames); }) / 1e3;
  w->golden = enc.reconstructed();
  std::vector<media::Frame> soft;
  times.decode_s += timedMs(tracer, "media.decode", parent, [&] {
    media::Decoder dec;
    soft = dec.decode(w->bitstream);
  }) / 1e3;
  if (soft != w->golden) {
    throw std::runtime_error("software decode of clip " + desc.key() +
                             " differs from the golden reconstruction");
  }
  Clip c;
  c.golden_psnr = media::averagePsnr(w->frames, w->golden);
  c.golden_hash = fnv1a(w->bitstream);
  c.w = std::move(w);
  return c;
}

UnitResult runUnit(const UnitSpec& spec, Tracer* tracer, std::int64_t parent) {
  UnitResult res;
  const Clock::time_point t0 = Clock::now();
  const std::int64_t root = tracer != nullptr ? tracer->open("unit", parent, t0) : -1;
  try {
    std::unique_ptr<app::EclipseInstance> inst;
    std::vector<std::unique_ptr<app::DecodeApp>> decs;
    std::vector<std::unique_ptr<app::EncodeApp>> encs;
    res.times.build_ms = timedMs(tracer, "app.build", root, [&] {
      inst = std::make_unique<app::EclipseInstance>(app::InstanceParams::fromConfig(spec.config));
    });
    res.times.configure_ms = timedMs(tracer, "app.configure", root, [&] {
      for (const UnitApp& a : spec.apps) {
        if (a.kind == farm::AppKind::Decode) {
          decs.push_back(std::make_unique<app::DecodeApp>(*inst, a.clip.w->bitstream));
        } else {
          encs.push_back(
              std::make_unique<app::EncodeApp>(*inst, a.clip.w->frames, a.clip.w->codec));
        }
      }
    });
    sim::Simulator& sim = inst->simulator();
    const sim::Cycle c0 = sim.now();
    const std::uint64_t e0 = sim.eventsDispatched();
    sim::Cycle end = c0;
    res.times.run_ms =
        timedMs(tracer, "app.run", root, [&] { end = inst->run(c0 + kUnitCycleCap); });
    res.counts = readCounts(*inst, end - c0, sim.eventsDispatched() - e0);

    std::string err;
    res.times.verify_ms = timedMs(tracer, "app.verify", root, [&] {
      std::size_t di = 0;
      std::size_t ei = 0;
      for (const UnitApp& a : spec.apps) {
        if (a.kind == farm::AppKind::Decode) {
          const app::DecodeApp& d = *decs[di++];
          if (!d.done()) {
            err = "decode did not finish";
            continue;
          }
          res.counts.macroblocks += d.macroblocksDecoded();
          if (d.frames() != a.clip.w->golden) {
            err = "decoded frames differ from the golden reconstruction";
          }
        } else {
          const app::EncodeApp& e = *encs[ei++];
          if (!e.done()) {
            err = "encode did not finish";
            continue;
          }
          res.counts.macroblocks += a.clip.w->macroblocks_per_clip;
          const std::uint64_t h = fnv1a(e.bitstream());
          res.counts.bitstream_hash = res.counts.bitstream_hash * 0x100000001b3ULL ^ h;
          if (h != a.clip.golden_hash) err = "encoded stream differs from the golden encoder's";
          media::Decoder check;
          const double psnr = media::averagePsnr(a.clip.w->frames, check.decode(e.bitstream()));
          if (!(psnr >= a.clip.golden_psnr)) {
            std::ostringstream os;
            os << "encoded stream decodes at " << psnr << " dB, below the golden encoder's "
               << a.clip.golden_psnr << " dB";
            err = os.str();
          }
        }
      }
    });

    res.times.teardown_ms = timedMs(tracer, "app.teardown", root, [&] {
      if (!sim.quiescent()) inst->run(sim.now() + kSettleCap);
      if (sim.quiescent() && err.empty()) {
        for (auto& d : decs) d->teardown();
        for (auto& e : encs) e->teardown();
      }
      decs.clear();
      encs.clear();
      inst.reset();
    });
    res.ok = err.empty();
    res.error = err;
  } catch (const std::exception& e) {
    res.ok = false;
    res.error = e.what();
  }
  const Clock::time_point t1 = Clock::now();
  if (tracer != nullptr) tracer->close(root, t1);
  res.times.total_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return res;
}

}  // namespace perfbench
