"""Trial execution, sweeps, metrics aggregation and the throughput bench.

Simulation trials measure attack outcomes in logical time and are fully
deterministic in (plan, seeds).  The bench instead drains each partition
queue on a real thread, through a gate of its own and the simulator's
commit path, against a ledger shard of its own, and reports wall-clock
throughput; its per-transaction cost models a latency-bound ordering service
(endorsement/consensus round trips), which is what parallel ordering overlaps.
"""

from __future__ import annotations

import csv
import gc
import io
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .attacks import AttackOutcome, build_trial, run_attack
from .core import LedgerState
from .errors import EmptyInputError, StateMismatchError
from .ordering import (
    BASELINE,
    COUNTERMEASURES,
    STALLED,
    ChannelState,
    OrderingPolicy,
    gate,
    partition,
)
from .workload import ConflictSpec, ScenarioConfig, generate_bench_workload

POLICY_CHOICES = (BASELINE, COUNTERMEASURES, "both")
# The submit-time window of a sweep's generated batch, but for DDoS's burst.
SWEEP_WINDOW = 10_000

CSV_COLUMNS = [
    "attack", "policy", "conflict_count", "seed", "success", "committed",
    "failed", "pending", "timeout", "chain_sizes", "peak_mempool", "makespan",
]


@dataclass
class TrialPlan:
    scenario: ScenarioConfig
    trials: int = 1
    base_seed: int | None = None
    policy: str = "both"
    sweep: list[int] | None = None
    # Drop per-record ledger snapshots (large sweeps keep counts and peaks).
    lean: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.policy not in POLICY_CHOICES:
            raise ValueError(f"policy must be one of {POLICY_CHOICES}")
        if self.sweep is not None:
            if not self.sweep or any(
                b <= a for a, b in zip(self.sweep, self.sweep[1:])
            ):
                raise ValueError("sweep counts must be strictly increasing")

    @property
    def seed0(self) -> int:
        return self.scenario.seed if self.base_seed is None else self.base_seed

    @property
    def modes(self) -> list[str]:
        if self.policy == "both":
            return [BASELINE, COUNTERMEASURES]
        return [self.policy]


@dataclass
class MetricsRecord:
    attack: str
    policy: str
    conflict_count: int
    seed: int
    success: bool
    committed: int
    failed: int
    pending: int
    timeout: int
    chain_sizes: dict[str, int]
    peak_mempool: int
    makespan: int
    peak_queue: int = 0
    outcome: AttackOutcome | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_outcome(cls, outcome: AttackOutcome) -> "MetricsRecord":
        counts = outcome.status_counts
        return cls(
            attack=outcome.kind,
            policy=outcome.policy_mode,
            conflict_count=outcome.conflict_count,
            seed=outcome.seed,
            success=outcome.success,
            committed=counts["committed"],
            failed=counts["conflict_failed"] + counts["insufficient_funds"]
            + counts["rejected"],
            pending=counts["pending"],
            timeout=counts["timeout"],
            chain_sizes=dict(outcome.chain_sizes),
            peak_mempool=outcome.peak_mempool,
            makespan=outcome.makespan,
            peak_queue=outcome.peak_queue,
            outcome=outcome,
        )


def sweep_scenario(config: ScenarioConfig, count: int) -> ScenarioConfig:
    """Derive a generated-conflicts variant of a scenario for one sweep point.

    Scripted conflict lists are replaced by a synthetic batch of the given
    size over the attack's wallets, and the fixed scripted jitter gives way
    to the default race jitter so ordering contention is seed-driven.
    """
    kind = config.attack.kind
    window = SWEEP_WINDOW
    start = 0
    if kind in ("block_withholding", "double_spending"):
        wallets = config.attack_wallets()
    elif kind == "balance":
        wallets = config.pool_wallets("pool_prefix")
    elif kind == "ddos":
        wallets = config.pool_wallets("accounts_prefix")
        window, start = 0, config.param("burst")
    else:
        raise ValueError(f"attack kind {kind} does not support sweeps")
    return replace(
        config,
        conflicts=ConflictSpec(
            wallets=tuple(wallets), count=count, window=window, start=start
        ),
        policy=replace(config.policy, jitter=(1, 20)),
        pinned_orderers={},
    )


@contextmanager
def _young_collection():
    """Run the body with automatic garbage collection off, then restore the
    caller's setting and collect generation 0 once, also when it raises.

    A finished trial or rep leaves no reference cycles: reference counting
    frees it.  Collection stays off because automatic collections would
    rescan the objects a trial keeps alive while it runs.  The one young
    collection at the end is the backstop for a body that raised before its
    run ended; with nothing promoted, it walks only young objects.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.collect(0)


def run_trials(plan: TrialPlan) -> list[MetricsRecord]:
    """One MetricsRecord per (sweep point, trial, policy); trial i runs with
    seed base_seed + i, and policy=both pairs the modes on identical seeds.

    Each run frees itself when it ends, so the sweep runs with automatic
    collection off and collects once, on the way out."""
    records: list[MetricsRecord] = []
    counts = plan.sweep or [None]
    modes = plan.modes
    with _young_collection():
        for count in counts:
            config = plan.scenario if count is None else sweep_scenario(
                plan.scenario, count
            )
            for i in range(plan.trials):
                seed = plan.seed0 + i
                # Every mode submits the trial's one set of transactions as
                # it is: a run keeps its stamps and queue classes to itself.
                trial = build_trial(config, seed)
                for mode in modes:
                    outcome = run_attack(config, mode, seed, trial)
                    record = MetricsRecord.from_outcome(outcome)
                    if plan.lean:
                        record.outcome = None
                    records.append(record)
                # Dropped here, not on the way out, so that the backstop
                # collection does not walk the last trial's transactions.
                del trial
    return records


@dataclass
class SweepSummaryRow:
    attack: str
    policy: str
    conflict_count: int
    trials: int
    successes: int
    mean_makespan: float
    mean_peak_mempool: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


def summarize(records: list[MetricsRecord]) -> list[SweepSummaryRow]:
    if not records:
        raise EmptyInputError("no records to summarize")
    groups: dict[tuple[str, str, int], list[MetricsRecord]] = {}
    for record in records:
        groups.setdefault(
            (record.attack, record.policy, record.conflict_count), []
        ).append(record)
    rows = []
    for (attack, policy, count), members in sorted(groups.items()):
        rows.append(
            SweepSummaryRow(
                attack=attack,
                policy=policy,
                conflict_count=count,
                trials=len(members),
                successes=sum(1 for m in members if m.success),
                mean_makespan=sum(m.makespan for m in members) / len(members),
                mean_peak_mempool=sum(m.peak_mempool for m in members)
                / len(members),
            )
        )
    return rows


def _chain_sizes_cell(chain_sizes: dict[str, int]) -> str:
    return ";".join(f"{ch}:{size}" for ch, size in sorted(chain_sizes.items()))


def _record_row(r: MetricsRecord) -> list:
    """One record's cells, in ``CSV_COLUMNS`` order."""
    return [
        r.attack, r.policy, r.conflict_count, r.seed,
        "true" if r.success else "false",
        r.committed, r.failed, r.pending, r.timeout,
        _chain_sizes_cell(r.chain_sizes), r.peak_mempool, r.makespan,
    ]


def render_records(records: list[MetricsRecord], fmt: str = "csv") -> str:
    """Render records deterministically; no wall-clock timestamps."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_record_row(r) for r in records)
        return buf.getvalue()
    if fmt == "text":
        lines = [
            " ".join(f"{col}={val}" for col, val in zip(CSV_COLUMNS, _record_row(r)))
            for r in records
        ]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def render_summary(rows: list[SweepSummaryRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "attack", "policy", "conflict_count", "trials", "successes",
        "success_rate", "mean_makespan", "mean_peak_mempool",
    ])
    for row in rows:
        writer.writerow([
            row.attack, row.policy, row.conflict_count, row.trials,
            row.successes, f"{row.success_rate:.4f}",
            f"{row.mean_makespan:.1f}", f"{row.mean_peak_mempool:.1f}",
        ])
    return buf.getvalue()


def write_results(records: list[MetricsRecord], path: str, fmt: str = "csv") -> None:
    with open(path, "w") as fh:
        fh.write(render_records(records, fmt))


# -- throughput bench -----------------------------------------------------------


@dataclass
class BenchRow:
    mode: str
    rep: int
    txs: int
    workers: int
    elapsed: float
    tps: float
    state_ok: bool


@dataclass
class BenchReport:
    rows: list[BenchRow]
    baseline_tps: float
    pipeline_tps: float

    @property
    def speedup(self) -> float:
        return self.pipeline_tps / self.baseline_tps if self.baseline_tps else 0.0


def _bench_baseline(balances, txs, io_delay_s) -> tuple[LedgerState, float]:
    state = ChannelState("baseline", LedgerState.from_balances(balances))
    finalize = state.finalize  # endorses each transaction as it commits it
    start = time.perf_counter()
    for tx in txs:
        if io_delay_s > 0:  # modelled service cost
            time.sleep(io_delay_s)
        finalize(tx)
    return state.ledger, time.perf_counter() - start


def _drain_queue(queue, state, io_delay_s) -> None:
    # No commit is ever in flight here, so a stalled queue is polled until
    # the defer limit resolves it, as the simulator's retry tick does.
    finalize = state.finalize
    for tx in gate(queue, state, {}, OrderingPolicy.defer_limit):
        if tx is None:
            break
        if tx is not STALLED:
            if io_delay_s > 0:
                time.sleep(io_delay_s)
            finalize(tx)


def _bench_pipeline(balances, txs, workers, io_delay_s) -> tuple[LedgerState, float]:
    queues = partition(txs, workers)
    # Queues are conflict-closed: they touch disjoint wallets and hold their
    # own declared dependencies, so each drains against its own shard.
    shards = [
        ChannelState(q.owner, LedgerState.from_balances(balances)) for q in queues
    ]
    start = time.perf_counter()
    threads = [
        threading.Thread(target=_drain_queue, args=(q, shard, io_delay_s))
        for q, shard in zip(queues, shards)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Every committed write bumps its wallets' versions, so a wallet's final
    # state is that of the one shard that moved its version off 0.
    ledger = LedgerState.from_balances(balances)
    for shard in shards:
        part = shard.ledger
        for wallet, version in part.versions.items():
            if version:
                ledger.versions[wallet] = version
                ledger.balances[wallet] = part.balances[wallet]
        ledger.height += part.height
        ledger.committed_tx_count += part.committed_tx_count
    return ledger, time.perf_counter() - start


def _bench_rep(
    rep, txs, read_ratio, workers, io_delay_s, n_wallets, seed
) -> tuple[float, float]:
    """Generate one batch, order it both ways and check the pipeline's
    ledger against the baseline's; returns the two drain times."""
    balances, workload = generate_bench_workload(
        txs, read_ratio, n_wallets=n_wallets, seed=seed
    )
    b_ledger, b_time = _bench_baseline(balances, workload, io_delay_s)
    p_ledger, p_time = _bench_pipeline(balances, workload, workers, io_delay_s)
    if p_ledger != b_ledger:
        raise StateMismatchError(
            f"rep {rep}: pipeline ledger diverged from the baseline's"
        )
    return b_time, p_time


def bench_throughput(
    txs: int,
    read_ratio: float,
    workers: int,
    reps: int = 3,
    io_delay_us: int = 120,
    n_wallets: int = 2000,
    seed: int = 0,
) -> BenchReport:
    """Measure wall-clock ordering throughput, baseline vs pipeline.

    Each rep generates its batch once, then orders it serially (baseline)
    and through the partitioned pipeline; both runs endorse each
    transaction as they commit it.  The bench batch declares no
    dependencies, so the pipeline's merged ledger must equal the baseline's:
    queries always commit, each queue keeps its writers in submission order,
    and different queues commute.  A divergence raises StateMismatchError.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if txs < 1:
        raise ValueError("workload must be non-empty")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    io_delay_s = io_delay_us / 1_000_000
    rows: list[BenchRow] = []
    base_elapsed: list[float] = []
    pipe_elapsed: list[float] = []
    for rep in range(reps):
        with _young_collection():
            b_time, p_time = _bench_rep(
                rep, txs, read_ratio, workers, io_delay_s, n_wallets, seed + rep
            )
        base_elapsed.append(b_time)
        pipe_elapsed.append(p_time)
        rows.append(BenchRow(BASELINE, rep, txs, 1, b_time, txs / b_time, True))
        rows.append(
            BenchRow(COUNTERMEASURES, rep, txs, workers, p_time, txs / p_time, True)
        )
    baseline_tps = txs * len(base_elapsed) / sum(base_elapsed)
    pipeline_tps = txs * len(pipe_elapsed) / sum(pipe_elapsed)
    return BenchReport(rows, baseline_tps, pipeline_tps)


def render_bench(report: BenchReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mode", "rep", "txs", "workers", "elapsed_s", "tps", "state_ok"])
    for row in report.rows:
        writer.writerow([
            row.mode, row.rep, row.txs, row.workers,
            f"{row.elapsed:.4f}", f"{row.tps:.1f}",
            "true" if row.state_ok else "false",
        ])
    writer.writerow([])
    writer.writerow(["speedup", f"{report.speedup:.2f}"])
    return buf.getvalue()
