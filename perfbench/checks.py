"""Correctness gate: every operation the benchmark runs is checked here.

An operation is one paired trial (sweeps) or one bench rep (threads).  It
fails when it raises, when the program reports a bench state mismatch, or
when one of the checks below finds a problem.  Failures are counted, never
hidden: the run still reports its metrics, with ``correct`` false.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from pathlib import Path

from conflictsim import harness

from spec import MODES

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class Tally:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def record_exception(self, label: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{label}: {traceback.format_exc().strip()}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def report(self, limit: int = 10) -> None:
        for line in self.problems[:limit]:
            print(f"check failed: {line}", file=sys.stderr)
        if len(self.problems) > limit:
            print(f"check failed: ... {len(self.problems) - limit} more",
                  file=sys.stderr)


def pair_problems(scenario, records) -> list[str]:
    """Invariants of one paired trial, checked before its outcomes drop."""
    problems = []
    modes = [r.policy for r in records]
    if tuple(modes) != MODES:
        problems.append(f"expected a baseline/countermeasures pair, got {modes}")
    if len({r.seed for r in records}) != 1:
        problems.append("paired modes ran on different seeds")
    supply = sum(scenario.balances.values())
    capacity = scenario.policy.per_queue_capacity
    for r in records:
        out = r.outcome
        if out is None:
            problems.append(f"{r.policy}: outcome missing")
            continue
        for channel, ledger in sorted(out.ledgers.items()):
            total = sum(ledger.balances.values())
            if total != supply:
                problems.append(
                    f"{r.policy}: channel {channel} supply {total} != {supply}"
                )
        counted = sum(out.status_counts.values())
        if counted != out.submitted:
            problems.append(
                f"{r.policy}: status counts sum to {counted}, "
                f"submitted {out.submitted}"
            )
        if r.policy == MODES[1] and out.peak_queue > capacity:
            problems.append(
                f"{r.policy}: peak queue {out.peak_queue} > capacity {capacity}"
            )
    return problems


def load_golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def csv_digest(records) -> str:
    return hashlib.sha256(harness.render_records(records).encode()).hexdigest()


def check_golden(scenarios: dict, count: int, tally: Tally) -> None:
    """Re-run each scenario's default-seed pair and compare its CSV bytes.

    The plan is the one ``conflictsim sweep --conflicts N..N --trials 1``
    builds when no seed is given, so the digests in golden.json are those
    of that command's CSV output.
    """
    golden = load_golden()[str(count)]
    for name, scenario in scenarios.items():
        label = f"golden {name} count={count}"
        try:
            records = harness.run_trials(harness.TrialPlan(
                scenario=scenario, trials=1, policy="both", sweep=[count],
            ))
            problems = pair_problems(scenario, records)
            digest = csv_digest(records)
        except Exception:
            tally.record_exception(label)
            continue
        if digest != golden[name]:
            problems.append(f"CSV sha256 {digest} != golden {golden[name]}")
        tally.record(label, problems)


def bench_problems(report, txs: int) -> list[str]:
    problems = []
    if len(report.rows) != 2:
        problems.append(f"expected 2 bench rows, got {len(report.rows)}")
    for row in report.rows:
        if not row.state_ok:
            problems.append(f"{row.mode} rep {row.rep}: state_ok false")
        if row.txs != txs or not row.tps > 0:
            problems.append(f"{row.mode} rep {row.rep}: txs={row.txs} tps={row.tps}")
    return problems
