#!/usr/bin/env python3
"""Scenario benchmark of the oci simulator.

Builds the driver in perfbench/ (CMake, Release) from the repository's
own sources, then runs one workload:

    python3 perfbench/run.py --workload noc_scale --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. Workloads: noc_scale, link_windows,
sweep_cold, sweep_warm (see perfbench/README.md). An untraced run is
split over several driver processes, each pinned to one CPU in turn,
setting up once and then timing passes for its share of --seconds.
Each pass is timed in units of a fixed reference loop run just before
it (on a shared host a CPU whose neighbours are busy runs the driver up
to 1.5x slower, by a share that drifts from minute to minute, and it
slows the loop alike). The run reports pass_ref, cpu_ref and
samples_per_ref as medians over the pooled passes of all processes,
and setup_s (timed once per process, from process start) and
peak_rss_mb as medians over the processes. A traced run is one
process. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); reports,
chunk stores and spec files go to temporary directories under it that
are removed after each process; result and span files stay in its
results/ directory. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("noc_scale", "link_windows", "sweep_cold", "sweep_warm")
# Knobs the scenario runner and kernel dispatch honour silently; the
# driver is started without them (and refuses to run with them set).
OVERRIDES = ("OCI_SEED", "OCI_PRECISION", "OCI_MAX_SAMPLES", "OCI_REPRO_SCALE",
             "OCI_SCENARIO_CACHE", "OCI_BATCH_THREADS", "OCI_FORCE_SCALAR")
DRIVER_TIMEOUT_S = 170  # all driver processes of one run together
PROCESSES = 4  # driver processes of an untraced run


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def source_digest():
    """SHA-256 over the sources the driver is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", ROOT / "cmake", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench_driver"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tiny-size self-test")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"oci sources not found under {ROOT / 'src'}; nothing to benchmark")
        return 2

    build_dir = build_root()
    try:
        driver = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    env = dict(os.environ)
    cleared = [v for v in OVERRIDES if env.pop(v, None) is not None]
    if cleared:
        log("cleared environment overrides: " + " ".join(cleared))

    out = build_dir / "results"
    if args.selftest:
        proc = run_driver(driver, ["--selftest"], build_dir, env, DRIVER_TIMEOUT_S)
        if proc is None:
            return 3
        sys.stdout.write(proc.stdout)
        return proc.returncode

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace), "--out", str(out),
              "--git-sha", git_sha(), "--source-sha", source_digest()]
    parts = 1 if args.trace else PROCESSES
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.monotonic() + DRIVER_TIMEOUT_S
    runs = []
    for k in range(parts):
        cpu = None if args.trace else cpus[k % len(cpus)]
        proc = run_driver(driver, common + ["--seconds", repr(args.seconds / parts)],
                          build_dir, env, deadline - time.monotonic(), cpu)
        if proc is None:
            return 3
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            log(f"driver exited with code {proc.returncode}")
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            sys.stderr.write(proc.stdout)
            log("driver printed no result line")
            return 3
        runs.append((lines, result))

    passes = [json.loads(l.split(" ", 1)[1]) for lines, _ in runs for l in lines
              if l.startswith("passes ")]
    combined = combine([res for _, res in runs], passes)
    lines = [l for l in runs[0][0][:-1] if not l.startswith("passes ")]
    if parts > 1:
        lines = [l for l in lines
                 if not l.startswith(("metric ", "failed_frac ", "wall_s quartiles "))]
        for k, (plines, res) in enumerate(runs):
            lines.append(f"process {k} (cpu {cpus[k % len(cpus)]}): " +
                         " ".join(f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()))
            lines += [f"  {l}" for l in plines if l.startswith("wall_s quartiles ")]
        attempted = max(combined["attempted"], 1)
        lines.append(f"failed_frac {combined['failed'] / attempted:.6g} "
                     f"({combined['failed']} of {combined['attempted']} operations, "
                     f"{parts} processes)")
        npasses = sum(len(p["wall_s"]) for p in passes)
        lines += [f"metric {n} = {m['value']!r} {m['unit']} " +
                  (f"(median of {npasses} passes)" if n in POOLED
                   else f"(median of {parts} processes)")
                  for n, m in combined["metrics"].items()]
    fingerprint = next((json.loads(l.split(" ", 1)[1]) for l in lines
                        if l.startswith("fingerprint ")), {})
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"fingerprint": fingerprint, "result": combined, "passes": passes}) + "\n")
    print("\n".join(lines))
    print(json.dumps(combined))
    return 0


def run_driver(driver, args, build_dir, env, timeout, cpu=None):
    """Runs one driver process in a fresh temporary directory, on the one
    CPU `cpu` when given; None when it had to be stopped."""
    tmp = build_dir / f"run-{os.getpid()}-{time.monotonic_ns()}"
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run([str(driver), "--tmp", str(tmp)] + args, env=env,
                              capture_output=True, text=True, preexec_fn=pin,
                              timeout=max(timeout, 1), check=False)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded the {DRIVER_TIMEOUT_S} s budget and was stopped")
        return None
    finally:
        # Deleting the chunk stores is slow; finish it (and its
        # writeback) here rather than inside the next process's timing.
        shutil.rmtree(tmp, ignore_errors=True)
        os.sync()
    sys.stderr.write(proc.stderr)
    return proc


# Pass costs, pooled over the passes of all processes. Other metrics
# (set-up, memory, and the per-layer metrics of a traced run, which is
# one process) take the median over the processes.
POOLED = ("pass_ref", "cpu_ref", "samples_per_ref")


def combine(results, passes):
    """One result from several processes: operations add up, the POOLED
    metrics are the median over every process's passes, and the others
    the median over the processes' values."""
    names = results[0]["metrics"]

    def values(n):
        if n in POOLED and passes:
            return [x for p in passes for x in p[n]]
        return [r["metrics"][n]["value"] for r in results]

    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {n: {"value": statistics.median(values(n)), "unit": names[n]["unit"]}
                    for n in names},
    }


if __name__ == "__main__":
    sys.exit(main())
