"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion.  The sweep (criterion 5) and bench (criterion 6) dominate the
runtime; the whole module is budgeted to finish inside the per-criterion
limits it asserts.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from conflictsim.attacks import run_attack
from conflictsim.cli import resolve_scenario
from conflictsim.harness import (
    TrialPlan,
    bench_throughput,
    run_trials,
    summarize,
)

REPO = Path(__file__).resolve().parent.parent

_queue_peaks: list[tuple[str, int, int]] = []
_mempool_peaks: list[int] = []


def _note(records, config):
    cap = config.policy.per_queue_capacity
    for record in records:
        _mempool_peaks.append(record.peak_mempool)
        _queue_peaks.append((record.attack, record.peak_queue, cap))


def _report(criterion, ok, detail=""):
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {flag} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_table2_block_withholding():
    start = time.perf_counter()
    config = resolve_scenario("table2_block_withholding")
    records = run_trials(TrialPlan(scenario=config, trials=1, policy="baseline"))
    elapsed = time.perf_counter() - start
    _note(records, config)
    out = records[0].outcome
    ledger = out.ledgers["main"]
    ok = (
        ledger.height == 105
        and ledger.committed_tx_count == 205
        and ledger.balances == {"A1": 1010, "V1": 985, "V2": 1005}
        and out.success
        and elapsed < 1.0
    )
    _report(
        "1 (scripted block withholding, exact final state)", ok,
        f"height=100->{ledger.height} txs=200->{ledger.committed_tx_count} "
        f"A1={ledger.balances['A1']} V1={ledger.balances['V1']} "
        f"V2={ledger.balances['V2']} success={out.success} {elapsed:.2f}s",
    )


def test_criterion_2_double_spend_text_outcome():
    start = time.perf_counter()
    config = resolve_scenario("sec3b_double_spend")
    records = run_trials(TrialPlan(scenario=config, trials=1, policy="baseline"))
    elapsed = time.perf_counter() - start
    _note(records, config)
    out = records[0].outcome
    ledger = out.ledgers["main"]
    ok = (
        ledger.balances["A1"] == 0
        and ledger.balances["A2"] == 100
        and ledger.balances["V1"] == 1000
        and out.success
        and elapsed < 1.0
    )
    _report(
        "2 (double spend, exact text outcome)", ok,
        f"A1={ledger.balances['A1']} A2={ledger.balances['A2']} "
        f"V1={ledger.balances['V1']} success={out.success} {elapsed:.2f}s",
    )


def test_criterion_3_table2_balance_attack():
    start = time.perf_counter()
    config = resolve_scenario("table2_balance_attack")
    records = run_trials(TrialPlan(scenario=config, trials=1, policy="baseline"))
    elapsed = time.perf_counter() - start
    _note(records, config)
    out = records[0].outcome
    ok = (
        out.chain_sizes == {"ch1": 1050, "ch2": 1100}
        and out.pending == {"ch1": 40, "ch2": 0}
        and out.success
        and elapsed < 5.0
    )
    _report(
        "3 (scripted balance attack, exact final state)", ok,
        f"chains={out.chain_sizes} pending={out.pending} "
        f"success={out.success} {elapsed:.2f}s",
    )


def test_criterion_4_ddos_overflow_property():
    start = time.perf_counter()
    config = resolve_scenario("ddos_default")
    assert config.policy.mempool_capacity == 5000
    assert config.conflict_count == 10000
    records = run_trials(
        TrialPlan(scenario=config, trials=100, base_seed=0, policy="baseline")
    )
    elapsed = time.perf_counter() - start
    _note(records, config)
    overflows = sum(
        1 for r in records if r.peak_mempool >= config.policy.mempool_capacity
    )
    high_failure = sum(
        1 for r in records if r.outcome.facts["valid_fail_rate"] > 0.5
    )
    ok = overflows == 100 and high_failure >= 90 and elapsed < 60.0
    _report(
        "4 (DDoS overflow property)", ok,
        f"overflow {overflows}/100, failure-rate>0.5 in {high_failure}/100, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_success_rate_sweep():
    counts = list(range(1000, 10001, 1000))
    start = time.perf_counter()
    table = {}
    for name in ("table2_block_withholding", "sec3b_double_spend",
                 "table2_balance_attack", "ddos_default"):
        config = resolve_scenario(name)
        records = run_trials(
            TrialPlan(scenario=config, trials=100, base_seed=0, policy="both",
                      sweep=counts, lean=True)
        )
        _note(records, config)
        rows = summarize(records)
        attack = records[0].attack
        for row in rows:
            table[(attack, row.policy, row.conflict_count)] = row.successes
    elapsed = time.perf_counter() - start

    problems = []
    for attack in ("block_withholding", "double_spending", "balance", "ddos"):
        for count in counts:
            base = table[(attack, "baseline", count)]
            cm = table[(attack, "countermeasures", count)]
            if cm > base:
                problems.append(f"{attack}@{count}: cm {cm} > baseline {base}")
        if table[(attack, "countermeasures", 1000)] >= 10:
            problems.append(f"{attack}: cm rate at 1000 not below 10%")
        gap = table[(attack, "baseline", 10000)] - table[
            (attack, "countermeasures", 10000)
        ]
        if gap < 20:
            problems.append(f"{attack}: gap at 10000 only {gap} points")
    if elapsed >= 600.0:
        problems.append(f"runtime {elapsed:.0f}s exceeds 10 min")
    summary = "; ".join(
        f"{a}: base {table[(a, 'baseline', 10000)]}% cm "
        f"{table[(a, 'countermeasures', 10000)]}% @10000"
        for a in ("block_withholding", "double_spending", "balance", "ddos")
    )
    _report(
        "5 (success-rate sweep, directional)", not problems,
        f"{summary} ({elapsed:.0f}s) {problems}",
    )


def test_criterion_6_throughput_bench():
    start = time.perf_counter()
    report = bench_throughput(txs=50_000, read_ratio=0.8, workers=4, reps=3,
                              io_delay_us=120, seed=1)
    elapsed = time.perf_counter() - start
    state_ok = all(row.state_ok for row in report.rows)
    ok = report.speedup >= 2.0 and state_ok and elapsed < 300.0
    _report(
        "6 (bench: pipeline >= 2x baseline, ledger equality)", ok,
        f"baseline {report.baseline_tps:.0f} tps, pipeline "
        f"{report.pipeline_tps:.0f} tps ({report.speedup:.2f}x), "
        f"state_ok={state_ok}, {elapsed:.0f}s",
    )


def test_criterion_6_supplements_worker1_overhead_and_conflict_floor():
    # Gating overhead: a one-worker pipeline never beats the ungated
    # baseline.  Both drain the seed-2 batch three times, taking turns to
    # go first so host drift falls on both, and their totals are compared.
    from conflictsim.core import transfer_tx
    from conflictsim.harness import _bench_baseline, _bench_pipeline, _young_collection
    from conflictsim.workload import generate_bench_workload

    funds, batch = generate_bench_workload(4000, 0.8, seed=2)
    drains = {
        "baseline": lambda: _bench_baseline(funds, batch, 150e-6),
        "pipeline": lambda: _bench_pipeline(funds, batch, 1, 150e-6),
    }
    totals = dict.fromkeys(drains, 0.0)
    for rep in range(3):
        order = list(drains) if rep % 2 == 0 else list(drains)[::-1]
        ledgers = {}
        for name in order:
            with _young_collection():
                ledgers[name], elapsed = drains[name]()
            totals[name] += elapsed
        assert ledgers["pipeline"] == ledgers["baseline"]
    worker1 = totals["baseline"] / totals["pipeline"]
    assert worker1 <= 1.05

    # All-conflicting workload collapses to one queue: four workers buy
    # nothing (within 20%).

    def all_conflicting():
        return [transfer_tx(f"t{i}", "hot1", "hot2", 1, submit_time=i)
                for i in range(3000)]

    balances = {"hot1": 10_000, "hot2": 10_000}
    _, t4 = _bench_pipeline(balances, all_conflicting(), 4, 150e-6)
    _, t1 = _bench_pipeline(balances, all_conflicting(), 1, 150e-6)
    assert abs(t4 - t1) / t1 <= 0.20
    print("ACCEPTANCE 6-supplement: PASS "
          f"(worker1 {worker1:.3f}x, conflict-floor {t4/t1:.2f})")


def test_criterion_7_bounded_queues_and_reported_peaks():
    # Uses every run recorded by the preceding criteria plus its own probes.
    for name in ("table2_block_withholding", "ddos_default"):
        config = resolve_scenario(name)
        records = run_trials(
            TrialPlan(scenario=config, trials=3, policy="countermeasures")
        )
        _note(records, config)
    over = [(a, p, c) for a, p, c in _queue_peaks if p > c]
    ok = not over and _mempool_peaks and all(
        isinstance(p, int) and p >= 0 for p in _mempool_peaks
    )
    _report(
        "7 (bounded queues, peak occupancy reported)", ok,
        f"{len(_queue_peaks)} queue peaks within capacity, "
        f"{len(_mempool_peaks)} mempool peaks reported; over={over[:3]}",
    )


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "conflictsim.cli", *args],
        capture_output=True, text=True, cwd=REPO,
    )


def test_criterion_8_determinism_and_fig1_race(tmp_path):
    start = time.perf_counter()
    # Byte-identical reruns for every deterministic output-producing command.
    commands = [
        ("run", "--scenario", "table2_block_withholding", "--trials", "2",
         "--seed", "0", "--policy", "both"),
        ("run", "--scenario", "sec3b_double_spend", "--trials", "2",
         "--seed", "0", "--policy", "both"),
        ("run", "--scenario", "table2_balance_attack", "--trials", "1",
         "--seed", "0", "--policy", "both"),
        ("run", "--scenario", "ddos_default", "--trials", "3",
         "--seed", "0", "--policy", "both"),
        ("run", "--scenario", "fig1_race", "--trials", "20",
         "--seed", "0", "--policy", "both"),
        ("sweep", "--scenario", "ddos_default", "--attack", "ddos",
         "--conflicts", "1000..3000:1000", "--trials", "5", "--seed", "0"),
    ]
    identical = True
    for i, command in enumerate(commands):
        blobs = []
        for rep in ("a", "b"):
            out = tmp_path / f"c{i}{rep}.csv"
            proc = _cli(*command, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        identical = identical and blobs[0] == blobs[1]

    # Fig. 1 race: violations exist under baseline seeds 0..99, none under
    # the countermeasure pipeline.
    config = resolve_scenario("fig1_race")
    base_hits = sum(
        run_attack(config, "baseline", seed).success for seed in range(100)
    )
    cm_hits = sum(
        run_attack(config, "countermeasures", seed).success
        for seed in range(100)
    )
    elapsed = time.perf_counter() - start
    ok = identical and base_hits >= 1 and cm_hits == 0
    _report(
        "8 (determinism + fig1 race)", ok,
        f"byte-identical={identical}, baseline violations {base_hits}/100, "
        f"countermeasures {cm_hits}/100, {elapsed:.0f}s",
    )


def test_criterion_9_core_property_suite():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_core.py",
         "tests/test_ordering.py", "-q", "--no-header"],
        capture_output=True, text=True, cwd=REPO,
    )
    ok = proc.returncode == 0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    _report("9 (core property suite green)", ok, tail)
