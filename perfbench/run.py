#!/usr/bin/env python3
"""Builds and runs the Eclipse end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload decode_cif --seed 1 --seconds 20 --trace 0

builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload and passes its output
through; the last line is the JSON result. A traced run (--trace 1) also
writes Chrome trace-event JSON under <build>/traces/.

  python3 perfbench/run.py --workload serve_mix --repeat 10 --sets 2

runs a workload ten times with seeds seed, seed+1, ..., twice, and prints,
per metric and set, the median, the quartiles and their spread against the
bound in BENCHMARK.json, and how much the second set's median is worse
than the first's (the steadiness report).

  python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["decode_cif", "transcode_cif", "serve_mix"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configures once, then (re)builds `target`; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("error: Eclipse sources (src/) not found next to perfbench/")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("error: cmake configure failed")
            sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("error: build failed")
        sys.exit(2)
    return out


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def bench_args(out, workload, seed, seconds, trace):
    binary = out / "eclipse_perfbench"
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    # The exact-repeat record is per seed and per binary: a rebuilt program
    # may change the model on purpose.
    (out / "repeat").mkdir(exist_ok=True)
    (out / "traces").mkdir(exist_ok=True)
    record = out / "repeat" / f"{workload}-seed{seed}-{digest}.txt"
    args = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--record", str(record), "--git-sha", git_sha()]
    if trace:
        args += ["--trace-out", str(out / "traces" / f"{workload}-seed{seed}.json")]
    return args


def run_once(out, workload, seed, seconds, trace, echo):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    try:
        r = subprocess.run(bench_args(out, workload, seed, seconds, trace),
                           capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
        return 1, ""
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    sys.stderr.write(r.stderr)
    return r.returncode, r.stdout


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(out, args):
    """Runs seeds seed .. seed+repeat-1; returns ({metric: values}, units, failures)."""
    series = {}
    units = {}
    failures = 0
    for i in range(args.repeat):
        seed = args.seed + i
        code, stdout = run_once(out, args.workload, seed, args.seconds, args.trace, False)
        lines = stdout.strip().splitlines()
        if i == 0 and lines:
            print(lines[0], flush=True)  # host fingerprint
        if code != 0 or not lines:
            failures += 1
            log(f"run {i + 1} (seed {seed}) failed with exit code {code}")
            continue
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            series.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        log(f"run {i + 1}/{args.repeat} seed {seed}: correct={result['correct']} " +
            " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    return series, units, failures


def repeat_report(out, args):
    """Steadiness report: per metric and set, the median, the quartiles and
    their spread (IQR / median) against the bound in BENCHMARK.json; with
    two or more sets (same seeds), also how much each later set's median is
    worse than the first's, against the same bound."""
    spec = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        data = json.loads(spec_path.read_text())
        for m in data.get("end_to_end", []) + data.get("per_layer", []):
            spec[m["name"]] = m
    sets = []
    for k in range(args.sets):
        log(f"set {k + 1}/{args.sets}")
        sets.append(run_set(out, args))
    failures = sum(f for _, _, f in sets)
    print(f"{args.workload}: {args.sets} set(s) of {args.repeat} runs of {args.seconds} s "
          f"(seeds {args.seed}..{args.seed + args.repeat - 1}), {failures} failed")
    print(f"  {'metric':<32} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
          f"{'worse':>8} {'bound':>6} {'/bound':>6}")
    worst = (0.0, "")
    worst_drift = (0.0, "")
    units = sets[0][1]
    for name in sets[0][0]:
        bound = spec.get(name, {}).get("bound")
        first_median = None
        for k, (series, _, _) in enumerate(sets):
            values = series.get(name, [])
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            drift = ""
            if first_median is None:
                first_median = med
            elif first_median:
                worse = (med - first_median) / abs(first_median)
                if spec.get(name, {}).get("better") == "higher":
                    worse = -worse
                drift = f"{worse:.2%}"
                if bound:
                    worst_drift = max(worst_drift, (worse / bound, name))
            ratio = ""
            if bound:
                ratio = f"{spread / bound:.2f}"
                worst = max(worst, (spread / bound, name))
            print(f"  {name:<32} {k + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.2%} {drift:>8} {'' if bound is None else f'{bound:.2f}':>6} "
                  f"{ratio:>6} {units[name]}")
    print(f"  largest spread/bound: {worst[0]:.2f} ({worst[1]})")
    if args.sets > 1:
        print(f"  largest worsening of a median/bound: {worst_drift[0]:.2f} ({worst_drift[1]})")
    return 0 if failures == 0 else 1


def selftest():
    out = build("perfbench_tests")
    return subprocess.run([str(out / "perfbench_tests")]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness report over this many runs (seeds seed, seed+1, ...)")
    p.add_argument("--sets", type=int, default=1,
                   help="with --repeat: run the same seeds this many times and compare medians")
    p.add_argument("--selftest", action="store_true", help="build and run the benchmark's tests")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    out = build("eclipse_perfbench")
    if args.repeat > 0:
        return repeat_report(out, args)
    code, _ = run_once(out, args.workload, args.seed, args.seconds, args.trace, True)
    return code


if __name__ == "__main__":
    sys.exit(main())
