"""Workload definitions shared by run.py and its set-up probe.

Pure data: importing this module does not import the simulator, so the
set-up probe can time that import itself.
"""

from __future__ import annotations

# The four attack scenarios of the criterion-5 grid, in round order.
SCENARIOS = (
    "table2_block_withholding",
    "sec3b_double_spend",
    "table2_balance_attack",
    "ddos_default",
)

# Sweep workloads: name -> conflict_count.
SWEEPS = {"sweep_10k": 10000, "sweep_1k": 1000}

THREADS = "threads"
WORKLOADS = (*SWEEPS, THREADS)

# Ordering policies as records and bench rows name them (and the CSV prints
# them, so they cannot change).
MODES = ("baseline", "countermeasures")

# Thread bench: read-heavy mix over 2 000 wallets in 25-wallet clusters,
# two worker threads (the host has two cores).
BENCH_READ_RATIO = 0.8
BENCH_WALLETS = 2000
BENCH_WORKERS = 2
# Pure-CPU regime: no modelled service wait, so only ordering work is timed.
CPU_TXS = 20000
# Latency-bound regime: each transaction waits the modelled 120 us service
# time, which worker threads overlap.
IO_TXS = 4000
IO_DELAY_US = 120
# Share of a threads run spent on CPU-regime reps; the rest runs io reps.
CPU_SHARE = 2 / 3

# Trial and bench seeds of one run: seed * SEED_STRIDE + index, so runs with
# different seeds never share a trial.
SEED_STRIDE = 1000
