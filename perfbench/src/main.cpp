// eclipse_perfbench: runs one benchmark workload and prints every metric.
//
//   eclipse_perfbench --workload decode_cif|transcode_cif|serve_mix
//                     --seed N --seconds S --trace 0|1
//                     [--trace-out FILE] [--record FILE] [--git-sha SHA]
//
// The last line of standard output is the JSON result; with --trace 0 it
// carries the end-to-end metrics, with --trace 1 the per-layer ones.
// Exits 1 when the decode pin, an output check or the exact-repeat gate
// fails, 2 on bad arguments.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: eclipse_perfbench --workload decode_cif|transcode_cif|serve_mix "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--record FILE] "
               "[--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string record;
  std::string git_sha = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = *end == '\0' && !val.empty();
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), &end);
      have_seconds = *end == '\0' && opts.seconds > 0.0 && opts.seconds <= 600.0;
    } else if (arg == "--trace") {
      have_trace = val == "0" || val == "1";
      opts.trace = val == "1";
    } else if (arg == "--trace-out") {
      opts.trace_path = val;
    } else if (arg == "--record") {
      record = val;
    } else if (arg == "--git-sha") {
      git_sha = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::workloadNames()) known = known || w == opts.workload;
  if (!known) return usage("--workload must name a workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds (0 < S <= 600) and --trace 0|1 are required");
  }

  // glibc maps a large block afresh until the first such block is freed;
  // then it raises its mmap threshold (here to the 16 MB of an instance's
  // memory) and its trim threshold, and later blocks stay in the freeing
  // thread's arena. Where that switch fell among the farm workers' first
  // builds depended on timing, so serve_mix's peak_rss_mb took one of three
  // values about 15% apart. Fixing both thresholds at the values glibc
  // reaches anyway (32 MiB at most) starts the process in that state, at
  // the same per-build cost.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);

  std::printf("host: %s\n", perfbench::hostFingerprint(git_sha).c_str());
  const std::string pin = perfbench::checkDecodePin();
  if (!pin.empty()) {
    std::fprintf(stderr, "FAIL: %s\n", pin.c_str());
    return 1;
  }
  std::printf("decode pin: %s\n", perfbench::decodePinText().c_str());

  perfbench::Outcome out = perfbench::runWorkload(opts);
  if (out.correct && !record.empty()) {
    std::string why;
    if (!perfbench::checkRecord(record, opts.workload + " " + out.signature, why)) {
      out.correct = false;
      out.notes.push_back("FAIL: exact-repeat gate: " + why);
    }
  }

  std::printf("workload %s, seed %llu, %g s, trace %d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  std::fputs(perfbench::metricTable("end-to-end:", out.end_to_end).c_str(), stdout);
  std::fputs(perfbench::metricTable("per-layer:", out.per_layer).c_str(), stdout);
  std::printf("%s\n", perfbench::resultJson(out.correct, out.attempted, out.failed,
                                            opts.trace ? out.per_layer : out.end_to_end)
                          .c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
