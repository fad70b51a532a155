"""Time one workload's set-up in a fresh interpreter.

Set-up is what a run pays before its first timed operation: importing the
simulator, then loading the four scenarios and deriving their sweep
variants (sweeps) or generating one CPU-regime bench workload (threads).
Interpreter start-up is not included.  Prints the set-up seconds and then
the seconds of one host-speed probe taken right after it.

Usage: python3 setup_probe.py <src-dir> <workload> <seed>
"""

import sys
import time


def main() -> None:
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    from hostspeed import host_probe
    from spec import (
        BENCH_READ_RATIO, BENCH_WALLETS, CPU_TXS, SCENARIOS, SEED_STRIDE, SWEEPS,
    )

    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from conflictsim import cli, harness, workload as wl

    if workload in SWEEPS:
        for name in SCENARIOS:
            harness.sweep_scenario(cli.resolve_scenario(name), SWEEPS[workload])
    else:
        wl.generate_bench_workload(
            CPU_TXS, BENCH_READ_RATIO, n_wallets=BENCH_WALLETS,
            seed=seed * SEED_STRIDE,
        )
    elapsed = time.perf_counter() - t0
    print(elapsed, host_probe())


if __name__ == "__main__":
    main()
