"""conflictsim benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_10k --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the named workload untraced and reports the
end-to-end metrics.  With ``--trace 1`` it runs the traced pass of every
workload (see traced.py) and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for the workloads, metrics and the choices behind them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from hostspeed import corrected
from spec import CPU_SHARE, SWEEPS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="conflictsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_line() -> str:
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return (f"host nproc={os.cpu_count()} usable_cpus={usable} "
            f"cpu={cpu_model()!r} python={platform.python_version()} "
            f"impl={platform.python_implementation()} "
            f"hash_seed={os.environ.get('PYTHONHASHSEED')}")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_setup(workload: str, seed: int) -> float:
    """Median host-speed-corrected set-up seconds over fresh interpreters."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        elapsed, probe = done.stdout.split()
        samples.append((float(elapsed), float(probe)))
    return statistics.median(corrected(samples))


def run_untraced(workload: str, seed: int, seconds: float, tally) -> dict:
    from checks import check_golden
    from workloads import bench_reps, bench_summary, load_scenarios, pairs_per_s, sweep_rounds

    setup_s = measure_setup(workload, seed)
    if workload in SWEEPS:
        count = SWEEPS[workload]
        scenarios = load_scenarios()
        times, rounds = sweep_rounds(scenarios, count, seed, tally, seconds=seconds)
        for kind, samples in times.items():
            if samples:
                print(f"{workload}: {kind} pair_ms median "
                      f"{1000 * statistics.median(e for e, _p in samples):.2f} raw, "
                      f"{1000 * statistics.median(corrected(samples)):.2f} corrected, "
                      f"over {len(samples)} pairs")
        ops = pairs_per_s(times)
        print(f"{workload}: pairs_per_s {ops:.4f} 1/s corrected "
              f"({rounds} rounds, median probe "
              f"{1000 * statistics.median(p for s in times.values() for _e, p in s):.2f} ms)")
        check_golden(scenarios, count, tally)
    else:
        cpu = bench_reps("cpu", seed, tally, seconds=seconds * CPU_SHARE)
        io = bench_reps("io", seed, tally, seconds=seconds * (1 - CPU_SHARE))
        summary = {**bench_summary("cpu", cpu), **bench_summary("io", io)}
        print(f"threads: {len(cpu)} cpu reps, {len(io)} io reps")
        for name, value in sorted(summary.items()):
            if name != "baseline_tps.io":
                print(f"threads: {name} {value:.6g}")
        rep_s = summary.get("rep_s_corrected.cpu")
        ops = 1 / rep_s if rep_s else 0.0
    return {
        "ops_per_s": (ops, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conflictsim" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}/conflictsim",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomised per interpreter, and the thread
        # bench's speed depends on it: with random hash seeds its run medians
        # spread 7%, with one fixed seed 2-5%.  Program outputs do not depend
        # on the hash seed, so every run uses the same one.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(SRC))
    import conflictsim

    if Path(conflictsim.__file__).resolve().parent != SRC / "conflictsim":
        print(f"perfbench: imported conflictsim from {conflictsim.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from checks import Tally

    print(host_line())
    tally = Tally()
    if args.trace:
        from traced import run_traced

        result = run_traced(args.seed, args.seconds, tally, OUT_DIR)
        metrics = result.values
        for name in result.absent:
            print(f"absent: {name} (its traced target no longer exists)")
        print(f"spans written under {OUT_DIR}")
    else:
        metrics = run_untraced(args.workload, args.seed, args.seconds, tally)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_share = {tally.failed_share:.6g} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    tally.report()
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
