"""Trial runner, aggregation, result files, bench wiring, CLI surface."""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from conflictsim.cli import BUNDLED_DIR, main, resolve_scenario
from conflictsim import attacks, harness
from conflictsim.core import Transaction, TxStatus, query_tx, transfer_tx
from conflictsim.errors import EmptyInputError, StateMismatchError
from conflictsim.harness import (
    CSV_COLUMNS,
    MetricsRecord,
    TrialPlan,
    bench_throughput,
    render_records,
    render_summary,
    run_trials,
    summarize,
    sweep_scenario,
    write_results,
)
from conflictsim.ordering import ChannelState, partition
from test_ordering import queued
from test_workload import bench_batches


def small_plan(**kw):
    defaults = dict(
        scenario=resolve_scenario("fig1_race"), trials=4, base_seed=0,
        policy="both",
    )
    defaults.update(kw)
    return TrialPlan(**defaults)


def test_policy_both_pairs_records_by_seed():
    records = run_trials(small_plan())
    assert len(records) == 8
    by_seed = {}
    for r in records:
        by_seed.setdefault(r.seed, []).append(r.policy)
    assert all(sorted(v) == ["baseline", "countermeasures"]
               for v in by_seed.values())
    assert sorted(by_seed) == [0, 1, 2, 3]


def test_trials_rerun_identical():
    a = run_trials(small_plan(trials=1))
    b = run_trials(small_plan(trials=1))
    assert a == b


def test_sweep_cardinality_matches_grid():
    plan = small_plan(trials=2, sweep=None)
    records = run_trials(plan)
    assert len(records) == 2 * 2
    # 4 attacks x 10 counts x 100 trials x 2 policies = 8000 records: the
    # grid product the full sweep produces.
    assert 4 * 10 * 100 * 2 == 8000


def test_summarize_exact_rates():
    records = run_trials(small_plan(trials=10))
    rows = summarize(records)
    assert {r.policy for r in rows} == {"baseline", "countermeasures"}
    for row in rows:
        assert row.trials == 10
        assert 0.0 <= row.success_rate <= 1.0
        assert row.success_rate == row.successes / row.trials
    cm = next(r for r in rows if r.policy == "countermeasures")
    assert cm.successes == 0 and cm.success_rate == 0.0


def test_summarize_rejects_empty():
    with pytest.raises(EmptyInputError):
        summarize([])


def test_summary_rate_formatting():
    records = run_trials(small_plan(trials=5))
    text = render_summary(summarize(records))
    assert text.splitlines()[0].startswith("attack,policy,conflict_count")


def test_write_results_csv_contract(tmp_path):
    records = run_trials(small_plan(trials=1))
    out = tmp_path / "r.csv"
    write_results(records[:1], str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == ("attack,policy,conflict_count,seed,success,committed,"
                        "failed,pending,timeout,chain_sizes,peak_mempool,"
                        "makespan")


def test_write_results_deterministic_bytes(tmp_path):
    records = run_trials(small_plan(trials=3))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(records, str(a))
    write_results(run_trials(small_plan(trials=3)), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_write_results_empty_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    write_results([], str(out))
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_text_format():
    records = run_trials(small_plan(trials=1))
    text = render_records(records, "text")
    assert text.count("attack=") == len(records)


def test_record_counts_sum_to_submitted():
    for record in run_trials(small_plan(trials=2)):
        total = record.committed + record.failed + record.pending + record.timeout
        assert total == record.outcome.submitted


ATTACK_SCENARIOS = (
    "table2_block_withholding", "sec3b_double_spend",
    "table2_balance_attack", "ddos_default",
)


def test_run_trials_leaves_no_cyclic_garbage():
    # Nine paired trials per call: no trial of a sweep, not only its last,
    # may leave anything behind.
    plans = [
        TrialPlan(scenario=resolve_scenario(name), trials=9, base_seed=0,
                  sweep=[50], lean=True)
        for name in ATTACK_SCENARIOS
    ]
    gc.collect()
    tracked = []
    for _ in range(6):
        for plan in plans:
            records = run_trials(plan)
            assert gc.collect() == 0
        tracked.append(len(gc.get_objects()))
    assert len(set(tracked)) == 1, tracked


@pytest.mark.parametrize("name", ATTACK_SCENARIOS)
def test_backstop_collection_walks_no_transaction(name, monkeypatch):
    # run_trials frees each trial's batch before its one young collection,
    # which then finds no transaction left to walk in generation 0.  The
    # caller's collection stays off, so none runs before the backstop.
    plan = TrialPlan(scenario=resolve_scenario(name), trials=1, base_seed=0,
                     sweep=[1000])
    collect, young = gc.collect, []

    def counting(*args):
        young.append(sum(isinstance(obj, Transaction)
                         for obj in gc.get_objects(generation=0)))
        return collect(*args)

    gc.collect()
    monkeypatch.setattr(harness.gc, "collect", counting)
    gc.disable()
    try:
        records = run_trials(plan)
    finally:
        gc.enable()
    assert len(records) == 2 and young == [0]


@pytest.mark.parametrize("name, count", [
    ("ddos_default", 100), ("table2_balance_attack", None),
])
def test_run_trials_builds_each_trial_once_for_both_modes(name, count, monkeypatch):
    # A pair builds the runner's own transactions once, as one build_trial
    # call does, and gives what two runs that each build their own give.
    # DDoS's honest traffic does not depend on its batch, cut here to 100.
    config = resolve_scenario(name)
    if count is not None:
        config = sweep_scenario(config, count)
    built = []

    def counting(build):
        def counted(*args, **kwargs):
            built.append(build.__name__)
            return build(*args, **kwargs)
        return counted

    monkeypatch.setattr(attacks, "transfer_tx", counting(transfer_tx))
    monkeypatch.setattr(attacks, "query_tx", counting(query_tx))
    for seed in range(5):
        built.clear()
        attacks.build_trial(config, seed)
        one_build = sorted(built)
        built.clear()
        records = run_trials(TrialPlan(scenario=config, base_seed=seed))
        assert one_build and sorted(built) == one_build
        apart = [attacks.run_attack(config, mode, seed)
                 for mode in ("baseline", "countermeasures")]
        assert [(r, r.outcome) for r in records] == [
            (MetricsRecord.from_outcome(out), out) for out in apart
        ]


# SHA-256 of the CSV output of `conflictsim sweep --conflicts 1000..2000:1000
# --trials 2` per attack scenario (default seeds), keyed by scenario name; of
# `conflictsim run --trials 20 --seed 0 --policy both` for fig1_race, the one
# scenario with declared dependencies; and, under `run-` keys, of `conflictsim
# run` on each scripted scenario, which covers the pinned orderer, the
# withholding intercept, the balance replay and the text renderer.  Any change
# to these bytes changes the paper's success-rate tables.
SWEEP_ARGS = ["--conflicts", "1000..2000:1000", "--trials", "2"]
RUN_ARGS = ["--trials", "10", "--seed", "0", "--policy", "both"]
GOLDEN_CSV = {
    "table2_block_withholding": (
        "table2_block_withholding", "sweep", SWEEP_ARGS,
        "bdc41001bc90efc30131a9abf3120a674f5845b3e70c4c2ba3c266f7d090bc20"),
    "sec3b_double_spend": (
        "sec3b_double_spend", "sweep", SWEEP_ARGS,
        "b4c08a9c5d4016fac0ba5cb5490afa69d03fbb878e10e8f2ce120e89b7ca912c"),
    "table2_balance_attack": (
        "table2_balance_attack", "sweep", SWEEP_ARGS,
        "b589bc64d182c3e36ca0a72cef01b6724b19996caa7425d9126c19d317d1f491"),
    "ddos_default": (
        "ddos_default", "sweep", SWEEP_ARGS,
        "58a3e2666ca917e1bf6aad20577f2c5586b89a25ccebca0ef4abef54a24f7bdc"),
    "fig1_race": (
        "fig1_race", "run", ["--trials", "20", "--seed", "0", "--policy", "both"],
        "ad660b340240f295aa1e44984d99410993be4ac7cde51c2e6de4a5ae65bdff68"),
    "run-table2_block_withholding": (
        "table2_block_withholding", "run", RUN_ARGS,
        "25521b880e61384ca0dcd95ae574fd2da00a54c6e2e41acea7843812eb0c4bbf"),
    "run-sec3b_double_spend": (
        "sec3b_double_spend", "run", RUN_ARGS,
        "bfc2b6c04b2790e04ab895a0485df70b2e8378b281e3c8805ee729b76065b21d"),
    "run-table2_balance_attack": (
        "table2_balance_attack", "run", RUN_ARGS,
        "f4a67329b6bec09d2d541b3f1ad98ab627bff9aa42ef56939a6370a5e775d302"),
    "run-ddos_default": (
        "ddos_default", "run", RUN_ARGS,
        "0c8c9dd282fcad8d9e7337121db64333538d329906b57bb2592cd942f873da9f"),
    "run-text-fig1_race": (
        "fig1_race", "run",
        ["--trials", "5", "--seed", "0", "--policy", "both", "--format", "text"],
        "5d06c624879245eae5195bac1cff3eaeb084bf3755c244815fd035d215e0dc96"),
}


@pytest.mark.parametrize("key", list(GOLDEN_CSV))
def test_sweep_csv_bytes_match_golden(key, tmp_path, capsys):
    scenario, command, args, expected = GOLDEN_CSV[key]
    out = tmp_path / f"{key}.out"
    assert main([command, "--scenario", scenario, *args, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == expected


# -- bench -------------------------------------------------------------------


def test_bench_small_run_state_ok_and_parallel_gain():
    report = bench_throughput(txs=1200, read_ratio=0.8, workers=4, reps=1,
                              io_delay_us=150, n_wallets=600, seed=3)
    assert all(row.state_ok for row in report.rows)
    assert report.pipeline_tps > report.baseline_tps


def test_bench_generates_each_rep_once(monkeypatch):
    # Baseline and pipeline runs share one batch per rep, which is
    # partitioned once and drained once.
    from conflictsim import attacks, harness

    seeds = []
    calls = {"partition": 0, "_bench_pipeline": 0}
    generate = harness.generate_bench_workload

    def counting(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return generate(*args, **kwargs)

    def counted(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "generate_bench_workload", counting)
    for name in calls:
        monkeypatch.setattr(harness, name, counted(name))
    report = bench_throughput(txs=300, read_ratio=0.5, workers=2, reps=3,
                              io_delay_us=0, n_wallets=200, seed=5)
    assert seeds == [5, 6, 7]
    assert calls == {"partition": 3, "_bench_pipeline": 3}
    assert all(row.state_ok for row in report.rows)


def test_bench_drain_commits_deferred_dependent_after_its_dependency(monkeypatch):
    # t1 spends what t2 brings in and declares t2 as a dependency, but is
    # submitted first: the gate defers it until t2 has committed.
    from conflictsim import attacks, harness

    finalized = []
    finalize = ChannelState.finalize

    def recording(self, tx):
        status = finalize(self, tx)
        finalized.append((tx.id, status.value))
        return status

    monkeypatch.setattr(ChannelState, "finalize", recording)
    txs = [
        transfer_tx("t1", "A", "B", 5, deps=("t2",), submit_time=0),
        transfer_tx("t2", "C", "A", 5, submit_time=1),
    ]
    ledger, _ = harness._bench_pipeline({"A": 0, "B": 0, "C": 5}, txs, 1, 0.0)
    assert finalized == [("t2", "committed"), ("t1", "committed")]
    assert ledger.balances == {"A": 0, "B": 5, "C": 0}
    assert ledger.versions == {"A": 2, "B": 1, "C": 1}
    assert (ledger.height, ledger.committed_tx_count) == (2, 2)


def _dep_batch(rng, trial):
    """Transfers over few, thin wallets with backward, forward, cyclic and
    out-of-batch declared dependencies, plus some queries."""
    wallets = [f"w{i}" for i in range(8)]
    balances = {w: rng.randint(0, 4) for w in wallets}
    ids = [f"d{trial}-{i}" for i in range(rng.randint(2, 30))]
    cycle = (f"d{trial}-cycA", f"d{trial}-cycB")
    txs = []
    for i, tx_id in enumerate(ids + list(cycle)):
        if tx_id in cycle:
            deps = (cycle[1] if tx_id == cycle[0] else cycle[0],)
        elif rng.random() < 0.2:
            txs.append(query_tx(tx_id, (rng.choice(wallets),), submit_time=i))
            continue
        elif rng.random() < 0.4:
            deps = (rng.choice([d for d in ids if d != tx_id] + [f"out{trial}"]),)
        else:
            deps = ()
        src, dst = rng.sample(wallets, 2)
        txs.append(transfer_tx(tx_id, src, dst, rng.randint(1, 3), deps=deps,
                               submit_time=rng.randint(0, 40)))
    return balances, txs


class _InlineThread:
    """A ``threading.Thread`` stand-in that runs its target on ``start``."""

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def join(self):
        pass


def test_bench_threaded_drain_matches_serial_drain(monkeypatch):
    # Each queue drains against its own shard, through a gate of its own, so
    # running the queues on threads or one after another must give the same
    # merged ledger.  A small service cost makes the worker threads
    # interleave; with none, a tiny switch interval does.
    from conflictsim import attacks, harness

    def serial_pipeline(*args):
        with monkeypatch.context() as m:
            m.setattr(harness, "threading", SimpleNamespace(Thread=_InlineThread))
            return harness._bench_pipeline(*args)

    rng = random.Random(23)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            balances, txs = _dep_batch(rng, trial)
            for workers in (1, 2, 3, 4):
                for io_delay_s in (1e-5, 0):
                    args = (balances, txs, workers, io_delay_s)
                    threaded, _ = harness._bench_pipeline(*args)
                    serial, _ = serial_pipeline(*args)
                    assert threaded == serial, (trial, workers, io_delay_s)
                    assert sum(threaded.balances.values()) == sum(balances.values())
    finally:
        sys.setswitchinterval(interval)


def _queues_digest(txs) -> str:
    """SHA-256 of the partition queues' owners, capacities and contents in
    dequeue order, at 1 to 4 workers."""
    h = hashlib.sha256()
    for workers in (1, 2, 3, 4):
        h.update(repr([
            (q.owner, q.capacity, [tx.id for tx in queued(q)])
            for q in partition(txs, workers)
        ]).encode())
    return h.hexdigest()


# Partition queues of the bench batches that test_workload pins, by shape.
QUEUE_DIGESTS = [
    (1, 2, 2,
     "b449dabf71ed0b5afc195be2f65359aeba1038a7516078245ce3131651f85649"),
    (1, 2, 25,
     "b449dabf71ed0b5afc195be2f65359aeba1038a7516078245ce3131651f85649"),
    (1, 24, 2,
     "b449dabf71ed0b5afc195be2f65359aeba1038a7516078245ce3131651f85649"),
    (1, 24, 25,
     "b449dabf71ed0b5afc195be2f65359aeba1038a7516078245ce3131651f85649"),
    (1, 400, 2,
     "b449dabf71ed0b5afc195be2f65359aeba1038a7516078245ce3131651f85649"),
    (1, 400, 25,
     "b449dabf71ed0b5afc195be2f65359aeba1038a7516078245ce3131651f85649"),
    (1, 2000, 2,
     "b449dabf71ed0b5afc195be2f65359aeba1038a7516078245ce3131651f85649"),
    (1, 2000, 25,
     "b449dabf71ed0b5afc195be2f65359aeba1038a7516078245ce3131651f85649"),
    (1, 2001, 2,
     "b449dabf71ed0b5afc195be2f65359aeba1038a7516078245ce3131651f85649"),
    (1, 2001, 25,
     "b449dabf71ed0b5afc195be2f65359aeba1038a7516078245ce3131651f85649"),
    (2, 2, 2,
     "7d0562f1a0db787db6930009fac5ca7851463b1e7f0bd7026aed71c243b28cde"),
    (2, 2, 25,
     "7d0562f1a0db787db6930009fac5ca7851463b1e7f0bd7026aed71c243b28cde"),
    (2, 24, 2,
     "ace46491940dc5918607ee3eef49d41aaf69f19d0b5dcb5c8ed06e78c3f8d28f"),
    (2, 24, 25,
     "92c9657415b5a5b6bcca81d3d3752eb0820ad809c41db1d1313eceaca7ecbcd1"),
    (2, 400, 2,
     "b878bcd63b33fa59b6cad1229093205a0b499eb71158f6b2b28160cb6a645a59"),
    (2, 400, 25,
     "ace46491940dc5918607ee3eef49d41aaf69f19d0b5dcb5c8ed06e78c3f8d28f"),
    (2, 2000, 2,
     "b878bcd63b33fa59b6cad1229093205a0b499eb71158f6b2b28160cb6a645a59"),
    (2, 2000, 25,
     "ace46491940dc5918607ee3eef49d41aaf69f19d0b5dcb5c8ed06e78c3f8d28f"),
    (2, 2001, 2,
     "b878bcd63b33fa59b6cad1229093205a0b499eb71158f6b2b28160cb6a645a59"),
    (2, 2001, 25,
     "ace46491940dc5918607ee3eef49d41aaf69f19d0b5dcb5c8ed06e78c3f8d28f"),
    (1000, 2, 2,
     "3ab2b48c849e050249376ca89f22768985ea9db8578d3b90263ada7ab919bd0c"),
    (1000, 2, 25,
     "3ab2b48c849e050249376ca89f22768985ea9db8578d3b90263ada7ab919bd0c"),
    (1000, 24, 2,
     "99850c49c65f30ea47b2ff469860f2d6b445e8b1acf90a14a5f98e1d9f3cea6b"),
    (1000, 24, 25,
     "a6526bc6f6fa106fbc06998de4ae790e6149027eda0c4d92f0a82c3ae569b011"),
    (1000, 400, 2,
     "f7214fda23ed2794d615113d1463dc6c810fe00849a7ed4c6795c2349f72cffb"),
    (1000, 400, 25,
     "c1cd6792a75e071fc912cc2e551d54bbbe48919b250b3df7d9a84569a95a6658"),
    (1000, 2000, 2,
     "8532a30b7a152023a1ee65bf6451ef47c26390be3697bcf0a35817c269846276"),
    (1000, 2000, 25,
     "b3feccf691fa40abea3f03d79cc6f557d3c5c4a084e76b5936e9c92031caa83c"),
    (1000, 2001, 2,
     "d320945f29185babb42f9862fc17a1983fd7351506c8ac4b7622ce6ef8f3f9b8"),
    (1000, 2001, 25,
     "b03a1c95bbd3b609dd028f0ddf3be82c93d3eaa2bb49bac01f8499c07de5eb47"),
    (20000, 2000, 25,
     "1419c168c9a34710392dc9b783083fc65d449d6da73d6bdcd522e7d906487ef5"),
    (20000, 2001, 2,
     "7fd027503d3689689e4d71bd063339ab6141ed380e147a97bb6fa7ca168560b6"),
]


@pytest.mark.parametrize(
    "count,n_wallets,cluster_size,digest", QUEUE_DIGESTS,
    ids=[f"n{r[0]}-w{r[1]}-c{r[2]}" for r in QUEUE_DIGESTS],
)
def test_bench_partition_queues_match_pinned_digest(count, n_wallets,
                                                    cluster_size, digest):
    h = hashlib.sha256()
    for _balances, txs in bench_batches(count, n_wallets, cluster_size):
        h.update(_queues_digest(txs).encode())
        _check_queue_counts(txs)
    assert h.hexdigest() == digest


def _check_queue_counts(txs) -> None:
    """The digests pin each queue's order; this checks, at 1 to 4 workers,
    that each queue's length and peak count what it holds, every entry
    pending, and that every transaction is held once."""
    ids = sorted(tx.id for tx in txs)
    for workers in (1, 2, 3, 4):
        queues = partition(txs, workers)
        held = [[tx.id for tx in (*q._read, *q._write)] for q in queues]
        assert sorted(tx_id for members in held for tx_id in members) == ids
        for q, members in zip(queues, held):
            assert len(q) == q.peak_occupancy == len(members)
            assert not q._moved and not q._dead


# The same for 40 batches with forward, backward, cyclic and out-of-batch
# declared dependencies.
DEP_QUEUES_DIGEST = "80ae754bd2dfcc25e6f0fb0752978464396282aa346db430cefa229a88047836"


def test_dependency_batch_partition_queues_match_pinned_digest():
    rng = random.Random(31)
    h = hashlib.sha256()
    for trial in range(40):
        _balances, txs = _dep_batch(rng, trial)
        h.update(_queues_digest(txs).encode())
        _check_queue_counts(txs)
    assert h.hexdigest() == DEP_QUEUES_DIGEST


def test_bench_raises_when_pipeline_ledger_diverges(monkeypatch):
    from conflictsim import attacks, harness

    pipeline = harness._bench_pipeline

    def skewed(*args, **kwargs):
        ledger, elapsed = pipeline(*args, **kwargs)
        src, dst = sorted(ledger.balances)[:2]
        ledger.balances[src] -= 1
        ledger.balances[dst] += 1
        return ledger, elapsed

    monkeypatch.setattr(harness, "_bench_pipeline", skewed)
    with pytest.raises(StateMismatchError):
        bench_throughput(txs=200, read_ratio=0.5, workers=2, reps=1,
                         io_delay_us=0, n_wallets=100)


def _gc_left_as_set(enabled: bool, run) -> bool:
    """Call ``run`` with automatic collection set as given; return whether
    it was left that way.  Always re-enables collection on the way out."""
    if not enabled:
        gc.disable()
    try:
        run()
        return gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_bench_leaves_gc_as_the_caller_set_it(enabled, monkeypatch):
    from conflictsim import attacks, harness

    args = dict(txs=2000, read_ratio=0.8, workers=2, reps=2, io_delay_us=0,
                n_wallets=400, seed=1)
    gc.collect()
    assert _gc_left_as_set(enabled, lambda: bench_throughput(**args))
    assert gc.collect() == 0

    pipeline = harness._bench_pipeline

    def diverged(*args, **kwargs):
        ledger, elapsed = pipeline(*args, **kwargs)
        ledger.height += 1
        return ledger, elapsed

    def diverging_bench():
        with pytest.raises(StateMismatchError):
            bench_throughput(**args)

    monkeypatch.setattr(harness, "_bench_pipeline", diverged)
    gc.collect()
    assert _gc_left_as_set(enabled, diverging_bench)
    assert gc.collect() == 0


# The benchmark's parameters for one rep of each regime.
BENCH_REGIMES = {"cpu": (20_000, 0), "io": (4000, 120)}


@pytest.mark.parametrize("regime", list(BENCH_REGIMES))
def test_bench_rep_prints_nothing_and_joins_its_threads(regime, capfd):
    txs, io_delay_us = BENCH_REGIMES[regime]
    threads = threading.active_count()
    report = bench_throughput(txs=txs, read_ratio=0.8, workers=2, reps=1,
                              io_delay_us=io_delay_us, n_wallets=2000, seed=0)
    assert threading.active_count() == threads
    assert capfd.readouterr() == ("", "")
    assert all(row.state_ok for row in report.rows)


@pytest.mark.parametrize("name", ATTACK_SCENARIOS)
def test_sweep_pair_prints_nothing_and_starts_no_thread(name, capfd):
    threads = threading.active_count()
    records = run_trials(TrialPlan(scenario=resolve_scenario(name), trials=1,
                                   policy="both", sweep=[1000]))
    assert threading.active_count() == threads
    assert capfd.readouterr() == ("", "")
    assert len(records) == 2


def _no_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


def test_benchmark_result_is_the_last_stdout_line():
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         "threads", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=root,
    )
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    assert done.stdout.endswith(last + "\n")
    result = json.loads(last, parse_constant=_no_constant)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ops_per_s"]["value"] > 0


def test_library_writes_nothing_to_stdout(capfd):
    # The benchmark's result is the last line of its stdout, so the library
    # must print nothing: not in a sweep pair of any attack, nor in a rep.
    for name in ("table2_block_withholding", "sec3b_double_spend",
                 "table2_balance_attack", "ddos_default"):
        plan = TrialPlan(scenario=resolve_scenario(name), trials=1,
                         sweep=[1000], lean=True)
        assert len(run_trials(plan)) == 2
    bench_throughput(txs=300, read_ratio=0.5, workers=2, reps=1,
                     io_delay_us=0, n_wallets=200)
    out, _err = capfd.readouterr()
    assert out == ""


def test_bench_rejects_bad_args():
    with pytest.raises(ValueError):
        bench_throughput(txs=0, read_ratio=0.5, workers=2)
    with pytest.raises(ValueError):
        bench_throughput(txs=10, read_ratio=0.5, workers=0)
    with pytest.raises(ValueError):
        bench_throughput(txs=10, read_ratio=0.5, workers=2, reps=0)


# -- CLI ----------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "conflictsim.cli", *args],
        capture_output=True, text=True,
    )


def test_cli_validate_ok():
    proc = run_cli("validate", "--scenario", "fig1_race")
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_cli_unknown_scenario_is_config_error():
    proc = run_cli("validate", "--scenario", "no_such_thing")
    assert proc.returncode == 2


def test_cli_bench_zero_reps_is_config_error():
    proc = run_cli("bench", "--txs", "10", "--reps", "0")
    assert proc.returncode == 2
    assert "reps" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("field, value", [
    ("queue_capacity", "0"), ("queue_capacity", "-1"), ("defer_limit", "-1"),
    ("client_timeout", "-3"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_out_of_range_policy_is_config_error(field, value, command,
                                                 tmp_path, capsys):
    lines = [line for line in
             (BUNDLED_DIR / "ddos_default.scn").read_text().splitlines()
             if not line.startswith(field + " ")]
    lines.insert(lines.index("[policy]") + 1, f"{field} {value}")
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, "--scenario", str(path)]) == 2
    assert field in capsys.readouterr().err


def _run_edited(scenario, line, edit, command, tmp_path):
    """The exit code of ``command`` on a copy of a bundled scenario whose one
    ``line`` is replaced by ``edit``."""
    text = (BUNDLED_DIR / f"{scenario}.scn").read_text()
    assert text.count(line + "\n") == 1
    path = tmp_path / "bad.scn"
    path.write_text(text.replace(line + "\n", edit + "\n"))
    args = [command, "--scenario", str(path)]
    if command == "sweep":
        args += ["--conflicts", "100..100:100", "--trials", "1"]
    return main(args)


@pytest.mark.parametrize("scenario, line, edit, named", [
    ("table2_block_withholding",
     "node client1 role=client channels=main latency=5",
     "node client1 role=client channels=main latency=-1", "client1 latency"),
    ("sec3b_double_spend",
     "node hclient role=client channels=main latency=10",
     "node hclient role=client channels=main latency=-1", "hclient latency"),
    ("table2_balance_attack", "param valid_spacing 10", "param valid_spacing -1",
     "valid_spacing"),
    ("table2_balance_attack", "param tail_start 1010", "param tail_start -1",
     "tail_start"),
    ("table2_balance_attack", "link orderer1 peer1 5", "link orderer1 peer1 -1",
     "latency"),
    ("ddos_default", "default_latency 5", "default_latency -1", "latency"),
    ("table2_block_withholding", "param target_submit 0",
     "param target_submit -10", "target_submit"),
    ("table2_block_withholding", "param variant hold",
     "param variant release\nparam release_at -5", "release_at"),
    ("table2_block_withholding", "param variant hold", "param variant release",
     "release_at"),
    ("table2_block_withholding", "param variant hold", "param variant hodl",
     "variant"),
    ("sec3b_double_spend", "param valid_orderer orderer1",
     "param valid_orderer orderer9", "orderer9"),
    ("sec3b_double_spend", "param valid_submit 0", "param valid_submit -20",
     "valid_submit"),
    ("ddos_default", "param burst 1000", "param burst -100", "burst"),
    ("ddos_default", "window=0 start=1000", "window=0 start=-1000", "start"),
    ("fig1_race", "tx tx1 transfer X Y 10 at 0", "tx tx1 transfer X Y 10 at -20",
     "tx1"),
])
@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_cli_arrival_before_time_zero_is_config_error(scenario, line, edit, named,
                                                      command, tmp_path, capsys):
    # Each edit would plan an arrival or a delivery before time 0, a
    # block-withholding release that never fires, or a route to no node.
    assert _run_edited(scenario, line, edit, command, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err


@pytest.mark.parametrize("scenario, line, edit, named", [
    # Scenario fuzz cases 174, 417 and 195, one edit each.
    ("table2_block_withholding",
     "node orderer1 role=orderer channels=main processing=10",
     "node orderer1 role=policy channels=main processing=10", "role"),
    ("table2_block_withholding",
     "node orderer1 role=orderer channels=main processing=10",
     "node orderer1 role=orderer channels=main processing=10 adversary",
     "honest orderer"),
    ("sec3b_double_spend", "A1 100", "A1 1", "cannot fund"),
    ("ddos_default", "node aclient role=client channels=main adversary latency=5",
     "node aclient role=window channels=main adversary latency=5", "window"),
    # The other checks the runners used to make.
    ("ddos_default", "param n_accounts 32", "param n_accounts 33", "accounts"),
    ("table2_balance_attack", "param pool_prefix W", "param pool_prefix Z", "pool"),
    ("table2_balance_attack", "param reference_channel ch2",
     "param reference_channel ch3", "reference_channel"),
    # Param values of the wrong type or out of their bounds.
    ("ddos_default", "param theta 0.5", "param theta abc", "theta"),
    ("ddos_default", "param theta 0.5", "param theta", "theta"),
    ("ddos_default", "param theta 0.5", "param theta 1.5", "theta"),
    ("ddos_default", "param valid_count 100", "param valid_count 1.5",
     "valid_count"),
    ("ddos_default", "param valid_read_ratio 0.8", "param valid_read_ratio -0.5",
     "valid_read_ratio"),
    ("sec3b_double_spend", "param valid_orderer orderer1",
     "param valid_orderer orderer1\nparam endorse_withheld yes", "endorse_withheld"),
    ("table2_block_withholding", "param target_amount 15",
     "param target_amount 0", "target_amount"),
])
@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_cli_scenario_the_runner_would_reject_is_config_error(
    scenario, line, edit, named, command, tmp_path, capsys
):
    # validate checks what the attack's runner needs, every node's role and
    # every param's type and bounds, so no copy that validates fails at run
    # time as a config error.
    assert _run_edited(scenario, line, edit, command, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err


@pytest.mark.parametrize("scenario, line, edit, named", [
    # Fuzz cases 519 and 864 (an adversary orderer turned peer), and a typo
    # on one of two honest orderers, which would run with the other alone.
    ("table2_block_withholding",
     "node badorderer role=orderer channels=main adversary",
     "node badorderer holds=orderer channels=main adversary",
     "node attribute 'holds'"),
    ("table2_block_withholding",
     "node badorderer role=orderer channels=main adversary",
     "node badorderer element=orderer channels=main adversary",
     "node attribute 'element'"),
    ("sec3b_double_spend",
     "node orderer2 role=orderer channels=main processing=10",
     "node orderer2 rol=orderer channels=main processing=10",
     "node attribute 'rol'"),
    # A flag value other than true or false, which made an honest node.
    ("sec3b_double_spend",
     "node aclient role=client channels=main adversary latency=1",
     "node aclient role=client channels=main adversary=yes latency=1",
     "node adversary value 'yes'"),
    # Typos that would drop a dependency or a read, or leave a default in force.
    ("fig1_race", "tx tx3 transfer Q R 30 at 0 deps=tx2",
     "tx tx3 transfer Q R 30 at 0 dpes=tx2", "tx transfer attribute 'dpes'"),
    ("sec3b_double_spend",
     "tx jx00 transfer A1 V1 2 at 14 reads=A1,A2,V1 submitter=aclient",
     "tx jx00 transfer A1 V1 2 at 14 raeds=A1,A2,V1 submitter=aclient",
     "tx transfer attribute 'raeds'"),
    ("fig1_race", "tx tx1 transfer X Y 10 at 0", "tx tx1 query X at 0 reads=Y",
     "tx query attribute 'reads'"),
    ("ddos_default", "window=0 start=1000", "window=0 start=1000 mxi_query=0.5",
     "generate attribute 'mxi_query'"),
    ("ddos_default", "param theta 0.5", "param thetaa 0.5", "ddos param 'thetaa'"),
    # Another kind's param, which nothing would read.
    ("ddos_default", "param theta 0.5", "param theta 0.5\nparam victim V9",
     "ddos param 'victim'"),
])
@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_cli_unknown_key_is_config_error(
    scenario, line, edit, named, command, tmp_path, capsys
):
    # Every key a line sets is one its kind of line takes, and every param
    # one its attack kind takes.
    assert _run_edited(scenario, line, edit, command, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line ")
    assert f"unknown {named}" in err


def test_cli_double_terminal_status_is_runtime_error(monkeypatch, capsys):
    # A terminal status set twice is the program's fault, not the user's
    # configuration: it exits 3.
    finalize = ChannelState.finalize

    def twice(self, tx, stamp=None):
        status = finalize(self, tx, stamp)
        self.set_status(tx, TxStatus.TIMEOUT)
        return status

    monkeypatch.setattr(ChannelState, "finalize", twice)
    assert main(["run", "--scenario", "fig1_race", "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert "runtime error" in err and "terminal status" in err


def test_cli_sweep_attack_mismatch_is_config_error():
    proc = run_cli("sweep", "--scenario", "fig1_race", "--attack", "ddos",
                   "--conflicts", "10..20:10", "--trials", "1")
    assert proc.returncode == 2


def test_cli_run_writes_deterministic_file(tmp_path):
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / f"{tag}.csv"
        proc = run_cli("run", "--scenario", "fig1_race", "--trials", "3",
                       "--seed", "0", "--policy", "both",
                       "--out", str(out), "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_determinism_across_hash_seeds(tmp_path):
    # Byte-identical output must not depend on the interpreter's string
    # hash randomization.
    outs = []
    for hash_seed in ("1", "77"):
        out = tmp_path / f"h{hash_seed}.csv"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "conflictsim.cli", "run", "--scenario",
             "table2_block_withholding", "--trials", "2", "--seed", "0",
             "--policy", "both", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
