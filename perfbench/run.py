#!/usr/bin/env python3
"""perfbench entry point: build the program from this checkout, run one
workload, and relay its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady --workload NAME [--runs 10]
                             [--first-seed 1] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

The build (CMake, Release, perfbench/CMakeLists.txt) lives in
.bench_build/perfbench at the checkout root; per-run scratch files go to
.bench_build/runs/ and are removed when the run ends; traced runs leave
their trace (obs::Tracer event lines) in .bench_build/traces/.

--steady runs one workload repeatedly with consecutive seeds and prints,
for every metric, the median, the quartiles and their spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, plus the
share of failed operations. It is how the bounds were chosen. Each run's
log line also gives the CPU time the hypervisor stole from the machine
during the run, since that moves timings without any change to the code.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns the build directory."""
    if not (ROOT / "src" / "oracle.hpp").is_file():
        raise RuntimeError(f"no program sources under {ROOT / 'src'}")
    BUILD_ROOT.mkdir(exist_ok=True)
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release", *gen],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(BUILD_DIR), "-j", str(BUILD_JOBS)],
            check=True, stdout=sys.stderr)
    return BUILD_DIR


def run_once(build_dir, workload, seed, seconds, trace):
    """Run the perfbench binary once; returns (exit code, last stdout line)."""
    workdir = BUILD_ROOT / "runs" / f"{workload}-{os.getpid()}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    traces = BUILD_ROOT / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(build_dir / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", str(workdir),
           "--oracle-batch", str(build_dir / "oracle_batch"),
           "--trace-out", str(traces / f"{workload}-seed{seed}.trace")]
    # A process group of its own, so a timeout can stop the binary together
    # with any daemon or worker it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload} timed out after {RUN_TIMEOUT_S}s")
        return 1, ""
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    for ln in lines[:-1]:
        print(ln, file=sys.stderr)
    return proc.returncode, lines[-1] if lines else ""


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out.update({m["name"]: None for m in spec["per_layer"]})
    return out


def steal_s():
    """Seconds of CPU time the hypervisor took from this machine's vCPUs
    (the "steal" column of /proc/stat), or 0 where there is none."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def steady(build_dir, args):
    """Repeat one workload; report median, quartiles and spread per metric."""
    rows = []
    for i in range(args.runs):
        seed = args.first_seed + i
        t0, steal0 = time.time(), steal_s()
        code, line = run_once(build_dir, args.workload, seed, args.seconds,
                              args.trace)
        if code != 0:
            log(f"seed {seed}: exit {code}")
            return 1
        res = json.loads(line)
        res["seed"] = seed
        res["wall_s"] = round(time.time() - t0, 2)
        res["steal_s"] = round(steal_s() - steal0, 2)
        rows.append(res)
        log(f"seed {seed} ({res['wall_s']}s, host steal {res['steal_s']}s): "
            + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()))
    limit = bounds()
    summary = {"workload": args.workload, "runs": rows, "metrics": {}}
    print(f"{args.workload}: {args.runs} runs of {args.seconds}s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in rows[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in rows]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = limit.get(name)
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": bound}
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  above bound/3"
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    shares = {r["failed"] / r["attempted"] for r in rows}
    print(f"failed share: {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in rows)}")
    out = BUILD_ROOT / "steady"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-trace{int(args.trace)}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        build_dir = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.self_test:
        return subprocess.run([str(build_dir / "perfbench"),
                               "--self-test"]).returncode
    if args.steady:
        return steady(build_dir, args)
    code, line = run_once(build_dir, args.workload, args.seed, args.seconds,
                          args.trace)
    if code != 0 or not line.startswith("{"):
        log(f"{args.workload} failed (exit {code})")
        return code or 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
