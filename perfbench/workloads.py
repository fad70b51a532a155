"""The benchmark's workloads, driven only through the simulator's public API.

Sweeps build their plans as ``conflictsim sweep`` does (policy ``both``, one
sweep count) but call ``run_trials`` once per paired trial with outcomes
kept, so every trial is checked before its outcomes are dropped.  Trials run
back to back in rounds of one pair per attack (closed loop, batch job).

The thread bench calls ``bench_throughput`` once per rep, so each rep's host
time, including the partition and priority work outside the program's own
timed drain, is measured from outside.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext

from conflictsim import cli, harness

from checks import Tally, bench_problems, pair_problems
from hostspeed import corrected, host_probe
from spec import (
    BENCH_READ_RATIO,
    BENCH_WALLETS,
    BENCH_WORKERS,
    CPU_TXS,
    IO_DELAY_US,
    IO_TXS,
    MODES,
    SCENARIOS,
    SEED_STRIDE,
)

REGIMES = {"cpu": (CPU_TXS, 0), "io": (IO_TXS, IO_DELAY_US)}

def load_scenarios() -> dict:
    return {name: cli.resolve_scenario(name) for name in SCENARIOS}


def attack_kind(scenario) -> str:
    return scenario.attack.kind


def _deadline(seconds: float | None) -> float | None:
    return None if seconds is None else time.perf_counter() + seconds


def _more(done: int, limit: int | None, deadline: float | None) -> bool:
    if limit is not None:
        return done < limit
    return done == 0 or time.perf_counter() < deadline


def sweep_rounds(
    scenarios: dict, count: int, seed: int, tally: Tally, *,
    seconds: float | None = None, rounds: int | None = None,
    pair_context=None, on_pair=None,
) -> tuple[dict[str, list], int]:
    """Run rounds of one pair per scenario until ``seconds`` have passed or
    ``rounds`` are done.  Round r runs every scenario on trial seed
    seed * SEED_STRIDE + r.  Returns (host seconds, mean probe seconds
    around it) per pair, by attack kind, and the number of rounds run."""
    times: dict[str, list] = {attack_kind(s): [] for s in scenarios.values()}
    deadline = _deadline(seconds)
    done = 0
    probe = host_probe()
    while _more(done, rounds, deadline):
        base_seed = seed * SEED_STRIDE + done
        for name, scenario in scenarios.items():
            label = f"{name} count={count} base_seed={base_seed}"
            plan = harness.TrialPlan(
                scenario=scenario, trials=1, base_seed=base_seed,
                policy="both", sweep=[count],
            )
            ctx = pair_context(attack_kind(scenario)) if pair_context else nullcontext()
            try:
                with ctx:
                    t0 = time.perf_counter()
                    records = harness.run_trials(plan)
                    elapsed = time.perf_counter() - t0
            except Exception:
                tally.record_exception(label)
                probe = host_probe()
                continue
            after = host_probe()
            times[attack_kind(scenario)].append((elapsed, (probe + after) / 2))
            probe = after
            tally.record(label, pair_problems(scenario, records))
            if on_pair is not None:
                on_pair(attack_kind(scenario), records)
        done += 1
    return times, done


def pairs_per_s(times: dict[str, list]) -> float:
    """Paired trials per corrected host second of a typical round: the
    number of attacks over the sum of each attack's median pair time."""
    medians = [statistics.median(corrected(t)) for t in times.values() if t]
    return len(medians) / sum(medians) if medians else 0.0


def bench_reps(
    regime: str, seed: int, tally: Tally, *,
    seconds: float | None = None, reps: int | None = None, rep_context=None,
) -> list[tuple]:
    """Run single-rep bench calls in one regime; rep k uses bench seed
    seed * SEED_STRIDE + k.  Returns (host seconds, mean probe seconds
    around it, BenchReport) per rep."""
    txs, io_delay_us = REGIMES[regime]
    results = []
    deadline = _deadline(seconds)
    done = 0
    probe = host_probe()
    while _more(done, reps, deadline):
        label = f"threads {regime} rep seed={seed * SEED_STRIDE + done}"
        ctx = rep_context(regime) if rep_context else nullcontext()
        try:
            with ctx:
                t0 = time.perf_counter()
                report = harness.bench_throughput(
                    txs=txs, read_ratio=BENCH_READ_RATIO, workers=BENCH_WORKERS,
                    reps=1, io_delay_us=io_delay_us, n_wallets=BENCH_WALLETS,
                    seed=seed * SEED_STRIDE + done,
                )
                elapsed = time.perf_counter() - t0
        except Exception:
            tally.record_exception(label)
            probe = host_probe()
        else:
            after = host_probe()
            tally.record(label, bench_problems(report, txs))
            results.append((elapsed, (probe + after) / 2, report))
            probe = after
        done += 1
    return results


def bench_summary(regime: str, results) -> dict[str, float]:
    """Medians over reps of the program's own throughputs and the rep time,
    raw and host-speed-corrected."""
    if not results:
        return {}
    return {
        f"rep_s.{regime}": statistics.median(r[0] for r in results),
        f"rep_s_corrected.{regime}": statistics.median(
            corrected((r[0], r[1]) for r in results)),
        f"pipeline_tps.{regime}": statistics.median(
            r[2].pipeline_tps for r in results),
        f"baseline_tps.{regime}": statistics.median(
            r[2].baseline_tps for r in results),
        f"drain_ms.{regime}": 1000 * statistics.median(
            row.elapsed for r in results for row in r[2].rows
            if row.mode == MODES[1]),
    }
