"""The benchmark's own tests: failures are counted, tracing degrades cleanly.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from conflictsim import attacks, harness  # noqa: E402
from conflictsim.errors import StateMismatchError  # noqa: E402

import checks  # noqa: E402
import traced  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Tally  # noqa: E402

COUNT = 1000
SCENARIO = "sec3b_double_spend"


@pytest.fixture(scope="module")
def one_scenario():
    return {SCENARIO: workloads.load_scenarios()[SCENARIO]}


def test_golden_digest_matches(one_scenario):
    tally = Tally()
    checks.check_golden(one_scenario, COUNT, tally)
    assert (tally.attempted, tally.failed) == (1, 0), tally.problems


def test_flipped_csv_byte_is_counted(one_scenario, monkeypatch):
    real = harness.render_records

    def flipped(records, fmt="csv"):
        text = real(records, fmt)
        return text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]

    monkeypatch.setattr(harness, "render_records", flipped)
    tally = Tally()
    checks.check_golden(one_scenario, COUNT, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "golden" in tally.problems[0]


def _bump_supply(records):
    ledger = next(iter(records[0].outcome.ledgers.values()))
    ledger.balances[next(iter(ledger.balances))] += 1


def _bump_status_count(records):
    records[1].outcome.status_counts["committed"] += 1


def _overfill_queue(records):
    records[1].outcome.peak_queue = 10**9


@pytest.mark.parametrize("breaker, message", [
    (_bump_supply, "supply"),
    (_bump_status_count, "status counts"),
    (_overfill_queue, "peak queue"),
])
def test_broken_invariant_is_counted(one_scenario, monkeypatch, breaker, message):
    real = harness.run_trials

    def broken(plan):
        records = real(plan)
        breaker(records)
        return records

    monkeypatch.setattr(harness, "run_trials", broken)
    tally = Tally()
    workloads.sweep_rounds(one_scenario, COUNT, seed=3, tally=tally, rounds=2)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert message in tally.problems[0]


def test_raised_exception_is_counted(one_scenario, monkeypatch):
    def boom(plan):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(harness, "run_trials", boom)
    tally = Tally()
    times, rounds = workloads.sweep_rounds(one_scenario, COUNT, 0, tally, rounds=1)
    assert (tally.attempted, tally.failed, rounds) == (1, 1, 1)
    assert times == {"double_spending": []}


def test_bench_state_mismatch_is_counted(monkeypatch):
    def mismatch(**kwargs):
        raise StateMismatchError("rep 0: parallel ledger diverged")

    monkeypatch.setattr(harness, "bench_throughput", mismatch)
    tally = Tally()
    assert workloads.bench_reps("cpu", 0, tally, reps=2) == []
    assert (tally.attempted, tally.failed) == (2, 2)
    assert "StateMismatchError" in tally.problems[0]


def test_bench_rep_passes_checks_on_seed_code(monkeypatch):
    monkeypatch.setitem(workloads.REGIMES, "cpu", (2000, 0))
    tally = Tally()
    (elapsed, probe, report), = workloads.bench_reps("cpu", 0, tally, reps=1)
    assert (tally.attempted, tally.failed) == (1, 0), tally.problems
    assert elapsed > 0 and probe > 0 and report.pipeline_tps > 0


def test_self_time_subtracts_child_coverage(monkeypatch):
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 10.0])
    monkeypatch.setattr(tracing, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    tracer = tracing.Tracer()
    inner = tracer.span(lambda: None, "inner")
    outer = tracer.span(lambda: inner(), "outer")
    with tracer.root("root", "t"):
        outer()
    self_t, incl = tracer.totals()
    assert dict(self_t) == {("t", "root"): 4.0, ("t", "outer"): 4.0, ("t", "inner"): 2.0}
    assert incl[("t", "root")] == 10.0


def test_missing_target_is_reported_absent(monkeypatch, tmp_path):
    original = attacks.clone_tx
    targets = tuple(t for t in tracing.SWEEP_TARGETS if t.span != "attacks.clone")
    targets += (tracing.Target("attacks", "clone_tx_removed", "attacks.clone"),)
    monkeypatch.setattr(traced, "SWEEP_TARGETS", targets)
    tally = Tally()
    metrics = traced.traced_sweep("sweep_1k", COUNT, 0, 0.01, tally, tmp_path)
    assert "sweep_1k.attacks.clone_ms_per_pair" in metrics.absent
    assert "sweep_1k.attacks.clone_ms_per_pair" not in metrics.values
    assert metrics.values["sweep_1k.core.apply_ms_per_pair"][0] > 0
    assert tally.failed == 0, tally.problems
    assert attacks.clone_tx is original
