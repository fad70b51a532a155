"""Ordering services: pool bounds, countermeasure ops, race behaviour."""

import itertools
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conflictsim
from conflictsim.cli import resolve_scenario
from conflictsim.core import (
    LedgerState,
    Query,
    TxStatus,
    apply_transaction,
    conflicts_with,
    query_tx,
    transfer_tx,
)
from conflictsim.errors import SimulatorError, TerminalStatusError, UnknownWalletError
from conflictsim.ordering import (
    BASELINE,
    COUNTERMEASURES,
    STALLED,
    BaselineOrderingService,
    ChannelState,
    DependencyVerdict,
    OrdererQueue,
    OrderingPolicy,
    PipelineOrderingService,
    SubmitOutcome,
    check_dependencies,
    gate,
    partition,
)
from conflictsim.simnet import Engine, NodeConfig, Topology

SRC_PATH = str(Path(conflictsim.__file__).resolve().parent.parent)


# -- baseline pool ------------------------------------------------------------


def _baseline_service(capacity, orderers=1, pinned=None):
    """A baseline service over wallets a and b whose engine has not run: its
    first ``orderers`` admissions go straight to an idle orderer."""
    nodes = [NodeConfig(f"o{i}", role="orderer") for i in range(orderers)]
    topo = Topology(nodes=[*nodes, NodeConfig("peer1", role="peer")],
                    default_latency=5)
    state = ChannelState("main", LedgerState.from_balances({"a": 10**9, "b": 0}))
    policy = OrderingPolicy(mode=BASELINE, mempool_capacity=capacity)
    engine = Engine(seed=0, topology=topo)
    service = BaselineOrderingService(engine, state, nodes, policy, "peer1", pinned)
    return service, engine


def test_admit_accepts_up_to_capacity():
    service, _ = _baseline_service(capacity=5000)
    for i in range(5001):  # the first goes straight to the orderer
        assert service.admit(transfer_tx(f"t{i}", "a", "b", 1)) is SubmitOutcome.ACCEPTED
    assert len(service._waiting) == len(service._pool) == service.peak_pool == 5000


def test_admit_rejects_at_capacity_without_peak_change():
    service, _ = _baseline_service(capacity=3)
    for i in range(4):
        service.admit(transfer_tx(f"t{i}", "a", "b", 1))
    peak = service.peak_pool
    assert service.admit(transfer_tx("t4", "a", "b", 1)) is SubmitOutcome.MEMPOOL_FULL
    assert service.peak_pool == peak == len(service._waiting) == 3
    assert "t4" not in service._seen


def test_admit_rejects_duplicate_id():
    service, engine = _baseline_service(capacity=10)
    service.admit(transfer_tx("t0", "a", "b", 1))
    assert service.admit(transfer_tx("t0", "a", "b", 2)) is SubmitOutcome.DUPLICATE
    engine.run_until(10_000)  # committed, still a duplicate
    assert service.admit(transfer_tx("t0", "a", "b", 2)) is SubmitOutcome.DUPLICATE


def test_baseline_pool_bound_and_peak_shadow_counter():
    # Seeded admissions (every seventh pinned past the pool), discards and
    # engine steps against a shadow of the ids waiting in the pool.  An
    # accepted transaction counts toward the peak when it is admitted,
    # whether it waits or goes straight to an orderer.
    rng = random.Random(3)
    pinned = {f"x{i}": "o1" for i in range(0, 500, 7)}
    service, engine = _baseline_service(capacity=8, orderers=2, pinned=pinned)
    dispatched = []
    dispatch = service._dispatch

    def recording(orderer, tx, stamp):
        dispatched.append(tx.id)
        dispatch(orderer, tx, stamp)

    service._dispatch = recording
    waiting: dict[str, None] = {}  # in pool order
    pool_order, discarded, seen = [], set(), []
    shadow_peak = 0
    for i in range(500):
        roll = rng.random()
        if roll < 0.65 or not seen:
            tx_id = rng.choice(seen) if seen and rng.random() < 0.05 else f"x{i}"
            outcome = service.admit(transfer_tx(tx_id, "a", "b", 1))
            if tx_id in seen:
                assert outcome is SubmitOutcome.DUPLICATE
            elif len(waiting) >= 8:
                assert outcome is SubmitOutcome.MEMPOOL_FULL
            else:
                assert outcome is SubmitOutcome.ACCEPTED
                seen.append(tx_id)
                shadow_peak = max(shadow_peak, len(waiting) + 1)
                if tx_id not in pinned:
                    waiting[tx_id] = None
                    pool_order.append(tx_id)
        elif roll < 0.85:
            tx_id = rng.choice(seen[-12:])
            assert service.discard(tx_id) is (tx_id in waiting)
            if waiting.pop(tx_id, 0) is None:
                discarded.add(tx_id)
        else:
            engine.run_until(engine.now + rng.randint(1, 12))
        for tx_id in dispatched:
            waiting.pop(tx_id, None)
        assert list(service._waiting) == list(waiting)
        assert service.peak_pool == shadow_peak
        assert len(waiting) <= 8
    # Orderers pull the pool first in, first out, skipping discarded ids.
    pulled = [tx_id for tx_id in dispatched if tx_id not in pinned]
    assert pulled == [x for x in pool_order if x not in discarded][:len(pulled)]
    assert service.peak_queue == shadow_peak


# -- priority (C2) ------------------------------------------------------------


def test_queue_class_comes_from_the_payload():
    # A query is read-class whatever else it declares; a transfer is a
    # writer even when it reads more wallets than it writes.
    queue = OrdererQueue("q0", capacity=10)
    writer = transfer_tx("t", "A1", "V1", 100, extra_reads=("V2",))
    query = query_tx("q", ("V1", "V2"))
    query.declared_deps = ("t",)
    for tx in (writer, query):
        queue.append(tx)
    assert [tx.id for tx in queued(queue)] == ["q", "t"]


def _gate(queue):
    """A gate over ``queue`` with nothing committed or in flight."""
    state = ChannelState("main", LedgerState.from_balances({}))
    return gate(queue, state, {}, 1000)


def _gated_ids(queue):
    """Ids in the order a gate takes them, until the queue is empty."""
    return [tx.id for tx in iter(_gate(queue).__next__, None)]


def test_within_class_fifo_by_submit_time():
    queue = OrdererQueue("q0", capacity=10)
    late = query_tx("late", ("V1",), submit_time=7)
    early = query_tx("early", ("V1",), submit_time=3)
    for tx in (early, late):
        queue.append(tx)
    assert _gated_ids(queue) == ["early", "late"]


def test_read_high_dequeues_before_writes():
    queue = OrdererQueue("q0", capacity=10)
    txs = [transfer_tx("w1", "a", "b", 1), transfer_tx("w2", "b", "c", 1),
           query_tx("r1", ("a",)), transfer_tx("w3", "c", "a", 1),
           query_tx("r2", ("b",))]
    for tx in txs:
        queue.append(tx)
    assert _gated_ids(queue) == ["r1", "r2", "w1", "w2", "w3"]


def test_first_dequeue_is_read_whenever_reads_pending():
    rng = random.Random(11)
    for _ in range(50):
        queue = OrdererQueue("q0", capacity=64)
        pending_reads = 0
        for i in range(rng.randint(1, 20)):
            if rng.random() < 0.4:
                tx = query_tx(f"r{i}", ("a",))
                pending_reads += 1
            else:
                tx = transfer_tx(f"w{i}", "a", "b", 1)
            queue.append(tx)
        first = next(_gate(queue))
        if pending_reads:
            assert isinstance(first.payload, Query)


# -- dependency gate (C1) -------------------------------------------------------


def test_no_deps_and_no_conflicts_is_ready():
    tx = transfer_tx("t", "a", "b", 1)
    assert check_dependencies(tx, {}, []) is DependencyVerdict.READY


def test_pending_dep_defers():
    tx = transfer_tx("t", "a", "b", 1, deps=("d1", "d2"))
    verdict = check_dependencies(tx, {"d1": TxStatus.COMMITTED}, [])
    assert verdict is DependencyVerdict.DEFERRED


def test_failed_dep_aborts():
    # Any terminal status but commit aborts, ahead of a dependency that
    # would defer.
    tx = transfer_tx("t", "a", "b", 1, deps=("d1",))
    later = transfer_tx("t", "a", "b", 1, deps=("d0", "d1"))
    for failed in (TxStatus.CONFLICT_FAILED, TxStatus.INSUFFICIENT_FUNDS,
                   TxStatus.TIMEOUT):
        assert check_dependencies(tx, {"d1": failed}, []) is DependencyVerdict.ABORT
        assert check_dependencies(later, {"d1": failed}) is DependencyVerdict.ABORT


def test_conflicting_in_flight_defers():
    tx = transfer_tx("t", "a", "b", 1)
    in_flight = [transfer_tx("other", "b", "c", 1)]
    assert check_dependencies(tx, {}, in_flight) is DependencyVerdict.DEFERRED


# -- partition (C4) ----------------------------------------------------------------


def queued(queue):
    """The transactions still pending in an ``OrdererQueue``, in dequeue
    order (reads first), without taking any: one pass over its deques
    under the serving rule."""
    moved, dead = queue._moved, queue._dead
    served, out = set(), []
    for tx in (*queue._read, *queue._write):
        if tx.id in moved:
            if tx.id in dead or tx.id in served:
                continue
            served.add(tx.id)
        out.append(tx)
    return out


def test_disjoint_transactions_spread_one_per_queue():
    txs = [transfer_tx(f"t{i}", f"a{i}", f"b{i}", 1) for i in range(4)]
    queues = partition(txs, 4)
    assert [len(q) for q in queues] == [1, 1, 1, 1]


def test_shared_wallet_groups_stay_together():
    txs = [
        transfer_tx("t1", "A1", "V1", 1),
        transfer_tx("t2", "V1", "V2", 1),
        transfer_tx("t3", "X", "Y", 1),
    ]
    queues = partition(txs, 2)
    assert [tx.id for tx in queued(queues[0])] == ["t1", "t2"]
    assert [tx.id for tx in queued(queues[1])] == ["t3"]


def test_single_queue_orders_priority_then_fifo():
    txs = [
        transfer_tx("w1", "a", "b", 1, submit_time=1),
        query_tx("r1", ("a",), submit_time=5),
        transfer_tx("w2", "b", "c", 1, submit_time=2),
        query_tx("r2", ("c",), submit_time=3),
    ]
    (queue,) = partition(txs, 1)
    assert [tx.id for tx in queued(queue)] == ["r2", "r1", "w1", "w2"]


def _union_find_oracle(txs):
    """Reference grouping: connected components of the pairwise conflict
    relation plus declared-dependency edges."""
    index = {tx.id: i for i, tx in enumerate(txs)}
    parent = list(range(len(txs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for i, a in enumerate(txs):
        for j in range(i + 1, len(txs)):
            b = txs[j]
            shared = (a.footprint() & b.footprint())
            if shared and (a.writes or b.writes) and conflicts_with(a, b):
                union(i, j)
            elif shared:
                pass
        for dep in a.declared_deps:
            if dep in index:
                union(i, index[dep])
    groups = {}
    for i, tx in enumerate(txs):
        groups.setdefault(find(i), set()).add(tx.id)
    return {frozenset(members) for members in groups.values()}


def test_partition_matches_union_find_oracle():
    rng = random.Random(17)
    wallets = [f"w{i}" for i in range(12)]
    for trial in range(40):
        ids = [f"x{trial}-{i}" for i in range(rng.randint(2, 24))]
        txs = []
        for i, tx_id in enumerate(ids):
            if rng.random() < 0.25:
                txs.append(query_tx(tx_id, (rng.choice(wallets),),
                                    submit_time=i))
            else:
                src, dst = rng.sample(wallets, 2)
                deps = ()
                if rng.random() < 0.3:
                    # A dependency earlier or later in the batch, or outside it.
                    others = [d for d in ids if d != tx_id]
                    deps = (rng.choice(others + [f"out{trial}"]),)
                txs.append(transfer_tx(tx_id, src, dst, 1, deps=deps,
                                       submit_time=i))
        queues = partition(txs, rng.randint(1, 5))
        got = {
            frozenset(tx.id for tx in queued(q))
            for q in queues if len(q)
        }
        # Queues may hold several groups; every oracle group must sit inside
        # exactly one queue.
        oracle = _union_find_oracle(txs)
        for group in oracle:
            holders = [q for q in queues
                       if group & {tx.id for tx in queued(q)}]
            assert len(holders) == 1
            assert group <= {tx.id for tx in queued(holders[0])}
        assert got  # partition produced output
        queue_of = {tx.id: k for k, q in enumerate(queues) for tx in queued(q)}
        for tx in txs:
            for dep in tx.declared_deps:
                if dep in queue_of:
                    assert queue_of[dep] == queue_of[tx.id]


# -- service-level helpers -----------------------------------------------------------


def _drive(txs, mode, seed, *, workers=3, jitter=(1, 20), balances=None,
           defer_limit=1000, deadline=100_000, queue_capacity=None):
    balances = balances or {"P": 1000, "Q": 100, "R": 1000, "X": 1000, "Y": 1000}
    orderers = [NodeConfig(f"o{i}", role="orderer") for i in range(1, workers + 1)]
    topo = Topology(
        nodes=[NodeConfig("client", role="client")] + orderers
        + [NodeConfig("peer1", role="peer")],
        default_latency=5,
    )
    engine = Engine(seed=seed, topology=topo)
    state = ChannelState("main", LedgerState.from_balances(balances))
    policy = OrderingPolicy(
        mode=mode, workers=workers, jitter=jitter, defer_limit=defer_limit,
        mempool_capacity=5000, queue_capacity=queue_capacity,
    )
    if mode == BASELINE:
        service = BaselineOrderingService(engine, state, orderers, policy, "peer1")
    else:
        service = PipelineOrderingService(engine, state, policy, "peer1",
                                          worker_nodes=orderers)

    for tx in txs:
        engine.schedule_call(tx.submit_time + 5, lambda e, tx: service.admit(tx), tx)
    engine.run_until(deadline)
    return state, service


def _stream_ids(state):
    return [tx.id for tx in state.order_stream]


def _committed(state):
    return {tx_id for tx_id, st in state.statuses.items() if st is TxStatus.COMMITTED}


def fig1_txs():
    return [
        transfer_tx("tx1", "X", "Y", 10),
        transfer_tx("tx2", "P", "Q", 50),
        transfer_tx("tx3", "Q", "R", 30, deps=("tx2",)),
        transfer_tx("tx4", "Y", "X", 5),
        transfer_tx("tx5", "X", "Y", 7),
    ]


# -- baseline ordering ---------------------------------------------------------------


def test_single_orderer_zero_jitter_preserves_submission_order():
    txs = [transfer_tx(f"t{i}", "P", "R", 1, submit_time=i) for i in range(6)]
    state, _ = _drive(txs, BASELINE, seed=0, workers=1, jitter=(0, 0))
    assert state.order_stream == txs


def test_baseline_race_reorders_dependent_pair_on_some_seed():
    hits = []
    for seed in range(100):
        state, _ = _drive(fig1_txs(), BASELINE, seed=seed)
        stream = _stream_ids(state)
        if stream.index("tx3") < stream.index("tx2"):
            hits.append(seed)
            assert state.status("tx2") is TxStatus.CONFLICT_FAILED
            assert state.status("tx3") is TxStatus.COMMITTED
    assert hits, "expected at least one dependency-violating seed in 0..99"


def test_baseline_same_seed_identical_stream():
    a, _ = _drive(fig1_txs(), BASELINE, seed=42)
    b, _ = _drive(fig1_txs(), BASELINE, seed=42)
    assert a.order_stream == b.order_stream
    assert a.statuses == b.statuses


# -- endorsement -----------------------------------------------------------------------


def test_each_service_endorses_when_its_contract_says():
    # Baseline: an accepted transaction is validated at commit against the
    # stamp taken when it was accepted, even after the ledger moves; a
    # rejected one leaves no stamp behind.
    orderer = NodeConfig("o1", role="orderer")
    topo = Topology(nodes=[orderer, NodeConfig("peer1", role="peer")],
                    default_latency=5)
    state = ChannelState("main", LedgerState.from_balances({"a": 100, "b": 100}))
    policy = OrderingPolicy(mode=BASELINE, workers=1, mempool_capacity=1)
    engine = Engine(seed=0, topology=topo)
    service = BaselineOrderingService(engine, state, [orderer], policy, "peer1")
    versions = state.ledger.versions
    versions.update(a=3, b=5)
    first = transfer_tx("t1", "a", "b", 1)
    assert service.admit(first) is SubmitOutcome.ACCEPTED  # dispatched
    versions.update(a=4, b=7)
    second = transfer_tx("t2", "b", "a", 1)
    assert service.admit(second) is SubmitOutcome.ACCEPTED  # waits in the pool
    duplicate = transfer_tx("t1", "a", "b", 2)
    full = transfer_tx("t3", "a", "b", 1)
    assert service.admit(duplicate) is SubmitOutcome.DUPLICATE
    assert service.admit(full) is SubmitOutcome.MEMPOOL_FULL
    assert list(service._waiting) == ["t2"]
    engine.run_until(10_000)
    # t1 was stamped at (3, 5), so it fails; t2 was stamped at (4, 7), which
    # t1's failure left current, so it commits.
    assert state.status("t1") is TxStatus.CONFLICT_FAILED
    assert state.status("t2") is TxStatus.COMMITTED
    assert service._waiting == {}
    assert [tx.reads for tx in (first, second, duplicate, full)] == [
        ("a", "b"), ("b", "a"), ("a", "b"), ("a", "b")]

    # Pipeline: the worker endorses the transaction when it orders it, so it
    # commits though the ledger moved before it arrived.
    engine, state, service, admit = _pipeline(1, None, "ab")
    state.ledger.versions.update(a=3, b=5)
    tx = transfer_tx("p1", "a", "b", 1)
    assert admit(tx) is SubmitOutcome.ACCEPTED
    engine.run_until(10_000)
    assert state.status("p1") is TxStatus.COMMITTED
    assert tx.reads == ("a", "b")


# -- pipeline ordering -----------------------------------------------------------------


def test_pipeline_fig1_all_seeds_and_worker_counts():
    for workers in (1, 2, 3, 4):
        for seed in range(100):
            state, _ = _drive(fig1_txs(), COUNTERMEASURES, seed=seed,
                              workers=workers)
            stream = _stream_ids(state)
            assert stream.index("tx2") < stream.index("tx3")
            assert state.status("tx2") is TxStatus.COMMITTED
            assert state.status("tx3") is TxStatus.COMMITTED
            assert state.dependency_violations() == 0


def test_pipeline_dependent_commit_indexes_ordered():
    rng = random.Random(5)
    wallets = ["P", "Q", "R", "X", "Y"]
    for trial in range(20):
        txs = []
        for i in range(10):
            src, dst = rng.sample(wallets, 2)
            deps = ()
            if txs and rng.random() < 0.4:
                deps = (rng.choice(txs).id,)
            txs.append(transfer_tx(f"t{trial}-{i}", src, dst, rng.randint(1, 5),
                                   deps=deps, submit_time=i))
        state, _ = _drive(txs, COUNTERMEASURES, seed=trial)
        order = {tx_id: i for i, tx_id in enumerate(_stream_ids(state))}
        for tx in txs:
            if state.status(tx.id) is not TxStatus.COMMITTED:
                continue
            for dep in tx.declared_deps:
                assert state.status(dep) is TxStatus.COMMITTED
                assert order[dep] < order[tx.id]


def test_pipeline_final_state_matches_some_serial_execution():
    rng = random.Random(9)
    wallets = ["P", "Q", "R"]
    balances = {w: 50 for w in wallets}
    for trial in range(25):
        txs = []
        for i in range(rng.randint(2, 8)):
            src, dst = rng.sample(wallets, 2)
            txs.append(transfer_tx(f"t{trial}-{i}", src, dst,
                                   rng.randint(1, 30), submit_time=i))
        state, _ = _drive(txs, COUNTERMEASURES, seed=trial, balances=balances)
        committed = [tx for tx in txs if state.status(tx.id) is TxStatus.COMMITTED]
        found = False
        for perm in itertools.permutations(committed):
            ledger = LedgerState.from_balances(balances)
            ok = True
            for tx in perm:
                status = apply_transaction(ledger, tx)
                if status is not TxStatus.COMMITTED:
                    ok = False
                    break
            if ok and ledger.balances == state.ledger.balances:
                found = True
                break
        assert found, f"no serial witness for trial {trial}"


def test_pipeline_all_conflicting_uses_single_queue():
    txs = [transfer_tx(f"t{i}", "P", "Q", 1, submit_time=i) for i in range(12)]
    state, service = _drive(txs, COUNTERMEASURES, seed=1, workers=4)
    used = [q for q in service.queues if q.peak_occupancy > 0]
    assert len(used) == 1
    assert state.ledger.committed_tx_count == 12


def test_pipeline_defer_limit_times_out_cyclic_deps():
    txs = [
        transfer_tx("a", "P", "Q", 1, deps=("b",), submit_time=0),
        transfer_tx("b", "Q", "R", 1, deps=("a",), submit_time=0),
    ]
    state, _ = _drive(txs, COUNTERMEASURES, seed=1, defer_limit=5)
    # The first to exhaust its deferrals times out; the survivor then sees a
    # terminally failed dependency and aborts. Either way the run terminates.
    assert state.status("a") is TxStatus.TIMEOUT
    assert state.status("b") is TxStatus.CONFLICT_FAILED


def test_deferred_read_does_not_starve_ready_writer():
    query = query_tx("q", ("P",), submit_time=0)
    query.declared_deps = ("missing",)
    writer = transfer_tx("w", "P", "Q", 5, submit_time=0)
    finalized = {}
    state, service = _drive([query, writer], COUNTERMEASURES, seed=1,
                            workers=1, deadline=0)
    state.terminal_listeners.append(
        lambda tx, _status: finalized.setdefault(tx.id, service.engine.now))
    service.engine.run_until(200)
    # The writer commits after one arrival, jitter and peer hop; the query
    # waits on its missing dependency, deferred once per wake of its worker.
    assert state.status("w") is TxStatus.COMMITTED
    assert finalized["w"] <= 5 + 20 + 5
    assert state.status("q") is TxStatus.PENDING
    assert service._defer_counts["q"] <= 2 + 200 // 10


def test_gate_looks_at_each_transaction_once_per_pass():
    state = ChannelState("main", LedgerState.from_balances({"P": 9, "Q": 9}))
    blocked = query_tx("r", ("P",))
    blocked.declared_deps = ("missing",)
    waiting = transfer_tx("w1", "P", "Q", 1, deps=("missing",))
    ready = transfer_tx("w2", "Q", "P", 1)
    behind = transfer_tx("w3", "P", "Q", 1)
    queue = OrdererQueue("q0", capacity=10)
    for tx in (blocked, waiting, ready, behind):
        queue.append(tx)
    counts = {}
    passes = gate(queue, state, counts, 1000)
    assert next(passes) is ready
    assert counts == {"r": 1, "w1": 1}
    # Deferred transactions go back to the tail of their class, so writers
    # keep the order the one-at-a-time re-queue gave them.
    assert [tx.id for tx in queued(queue)] == ["r", "w3", "w1"]
    assert next(passes) is behind
    assert next(passes) is STALLED
    assert counts == {"r": 3, "w1": 2}
    assert [tx.id for tx in queued(queue)] == ["r", "w1"]


def test_one_gate_follows_commits_and_the_live_in_flight_view():
    state = ChannelState("main", LedgerState.from_balances({"P": 9, "Q": 9, "R": 9}))
    dependency = transfer_tx("d", "R", "Q", 1)
    dependent = transfer_tx("c", "P", "Q", 1, deps=("d",))
    queue = OrdererQueue("q0", capacity=10)
    queue.append(dependent)
    in_flight, counts = {}, {}
    passes = gate(queue, state, counts, 1000, in_flight.values())
    assert next(passes) is STALLED
    assert next(passes) is STALLED
    assert counts == {"c": 2}
    state.finalize(dependency)
    assert next(passes) is dependent
    assert next(passes) is None
    # A conflicting transaction goes in flight after the gate was made.
    other = transfer_tx("o", "Q", "R", 1)
    in_flight[other.id] = other
    later = transfer_tx("l", "P", "Q", 1)
    queue.append(later)
    assert next(passes) is STALLED
    assert counts == {"c": 2, "l": 1}
    del in_flight[other.id]
    assert next(passes) is later
    assert next(passes) is None


class _LiveSetQueue:
    """Reference model of ``OrdererQueue`` as a live set of pending ids: an
    entry popped while its id is live is served, and serving takes the id
    out of the set."""

    def __init__(self):
        self.read, self.write, self.live = deque(), deque(), set()
        self.peak_occupancy = 0

    def __len__(self):
        return len(self.live)

    def append(self, tx):
        self.live.add(tx.id)
        (self.read if type(tx.payload) is Query else self.write).append(tx)
        self.peak_occupancy = max(self.peak_occupancy, len(self.live))

    def discard(self, tx_id):
        self.live.discard(tx_id)

    def queued(self):
        """Pending transactions in dequeue order: each live id's first entry."""
        first = {}
        for tx in (*self.read, *self.write):
            if tx.id in self.live:
                first.setdefault(tx.id, tx)
        return list(first.values())


def _live_set_gate(queue, state, defer_counts, defer_limit):
    """``gate`` over a ``_LiveSetQueue``, with nothing in flight."""
    statuses = state.statuses
    deferred = []
    while True:
        ready = None
        while queue.read or queue.write:
            tx = (queue.read or queue.write).popleft()
            if tx.id not in queue.live:
                continue
            queue.live.discard(tx.id)
            if tx.id in statuses:
                continue
            verdict = check_dependencies(tx, statuses)
            if verdict is DependencyVerdict.READY:
                ready = tx
                break
            if verdict is DependencyVerdict.ABORT:
                state.order_stream.append(tx)
                state.set_status(tx, TxStatus.CONFLICT_FAILED)
                continue
            defer_counts[tx.id] = defer_counts.get(tx.id, 0) + 1
            if defer_counts[tx.id] > defer_limit:
                state.set_status(tx, TxStatus.TIMEOUT)
                continue
            deferred.append(tx)
        for tx in deferred:
            queue.append(tx)
        if deferred and ready is None:
            ready = STALLED
        deferred.clear()
        yield ready


def test_counted_queue_serves_as_the_live_set_queue():
    # Seeded random sequences of appends, discards of a pending id,
    # relocations (same queue, another queue, or back to one the id has
    # left) and gate passes over declared-dependency deferrals, aborts and
    # timeouts; after every step the counted queues must have served the
    # same transactions and hold the same ones, counts and peaks.
    keys = ("k0", "k1", "k2")
    for seed in range(600):
        rng = random.Random(seed)
        n, limit = rng.randint(1, 3), rng.randint(0, 3)
        states = [ChannelState("main", LedgerState.from_balances({})) for _ in "nr"]
        new = [OrdererQueue(f"q{i}", capacity=100) for i in range(n)]
        ref = [_LiveSetQueue() for _ in range(n)]
        new_gates = [gate(q, states[0], {}, limit) for q in new]
        ref_gates = [_live_set_gate(q, states[1], {}, limit) for q in ref]
        txs, visited = {}, {}

        def served(got):
            return got if got is None or got is STALLED else got.id

        for step in range(rng.randint(1, 40)):
            pending = [(i, tx_id) for i, q in enumerate(ref) for tx_id in sorted(q.live)]
            op = rng.random()
            if op < 0.35 or not pending and op < 0.65:
                deps = tuple(k for k in keys if rng.random() < 0.25)
                tx = (query_tx(f"t{step}", ("a",), deps=deps) if rng.random() < 0.4
                      else transfer_tx(f"t{step}", "a", "b", 1, deps=deps))
                i = rng.randrange(n)
                txs[tx.id], visited[tx.id] = tx, {i}
                new[i].append(tx)
                ref[i].append(tx)
            elif op < 0.65:
                i, tx_id = rng.choice(pending)
                new[i].discard(tx_id)
                ref[i].discard(tx_id)
                if op >= 0.45:  # relocation
                    j = rng.choice(sorted(visited[tx_id]) if rng.random() < 0.5
                                   else range(n))
                    visited[tx_id].add(j)
                    new[j].append(txs[tx_id])
                    ref[j].append(txs[tx_id])
            elif op < 0.75:
                key = rng.choice(keys)
                settle = rng.choice((TxStatus.COMMITTED, TxStatus.CONFLICT_FAILED))
                if all(key not in st.statuses for st in states):
                    for st in states:
                        st.statuses[key] = settle
            else:
                i = rng.randrange(n)
                got = served(next(new_gates[i]))
                assert got == served(next(ref_gates[i])), (seed, step)
                if got is not None and got is not STALLED:
                    for st in states:
                        st.set_status(txs[got], TxStatus.COMMITTED)
            assert [[tx.id for tx in queued(q)] for q in new] == \
                [[tx.id for tx in q.queued()] for q in ref], (seed, step)
            assert [len(q) for q in new] == [len(q) for q in ref], (seed, step)
            assert [q.peak_occupancy for q in new] == \
                [q.peak_occupancy for q in ref], (seed, step)
            assert states[0].statuses == states[1].statuses, (seed, step)
        # Draining both to empty serves the rest in the same order.
        for i in range(n):
            while True:
                got = served(next(new_gates[i]))
                assert got == served(next(ref_gates[i])), (seed, i)
                if got is None:
                    break
                if got is not STALLED:
                    for st in states:
                        st.set_status(txs[got], TxStatus.COMMITTED)
            assert len(new[i]) == 0 and not new[i]._moved and not new[i]._dead


def test_pipeline_aborts_dependent_of_failed_tx():
    txs = [
        transfer_tx("broke", "Q", "P", 9999, submit_time=0),  # insufficient
        transfer_tx("child", "P", "R", 1, deps=("broke",), submit_time=1),
    ]
    state, _ = _drive(txs, COUNTERMEASURES, seed=1)
    assert state.status("broke") is TxStatus.INSUFFICIENT_FUNDS
    assert state.status("child") is TxStatus.CONFLICT_FAILED


def test_pipeline_logical_makespan_beats_baseline_at_scale():
    # Read-heavy many-wallet workload: four workers drain it in well under
    # half the single-orderer baseline's logical time.
    from conflictsim.workload import generate_bench_workload

    _, txs = generate_bench_workload(4000, read_ratio=0.8, n_wallets=400, seed=3)
    balances = {f"B{i:05d}": 1000 for i in range(400)}
    for tx in txs:
        tx.submit_time = 0

    def run(mode, workers):
        orderers = [NodeConfig(f"o{i}", role="orderer") for i in range(workers)]
        topo = Topology(nodes=[NodeConfig("client", role="client")] + orderers
                        + [NodeConfig("peer1", role="peer")], default_latency=5)
        engine = Engine(seed=2, topology=topo)
        state = ChannelState("main", LedgerState.from_balances(balances))
        policy = OrderingPolicy(mode=mode, workers=workers, jitter=(1, 20),
                                mempool_capacity=100_000)
        if mode == BASELINE:
            service = BaselineOrderingService(engine, state, orderers, policy,
                                              "peer1")
        else:
            service = PipelineOrderingService(engine, state, policy, "peer1",
                                              worker_nodes=orderers)

        for tx in txs:
            engine.schedule_call(0, lambda e, tx: service.admit(tx), tx)
        engine.run_until(10_000_000)
        assert len(state.statuses) == len(txs)  # fully drained
        return engine.last_event_time

    baseline_span = run(BASELINE, 1)
    pipeline_span = run(COUNTERMEASURES, 4)
    assert pipeline_span <= baseline_span / 2


def test_terminal_status_never_overwritten():
    state = ChannelState("main", LedgerState.from_balances({"a": 10, "b": 0}))
    tx = transfer_tx("t", "a", "b", 1)
    state.set_status(tx, TxStatus.COMMITTED)
    # A runtime invariant failure, not a configuration error.
    with pytest.raises(TerminalStatusError) as raised:
        state.set_status(tx, TxStatus.TIMEOUT)
    assert isinstance(raised.value, SimulatorError)
    assert not isinstance(raised.value, ValueError)
    # Only a terminal status is recorded; a non-terminal one is refused.
    held = transfer_tx("h", "a", "b", 1)
    with pytest.raises(ValueError, match="not a terminal status"):
        state.set_status(held, TxStatus.PENDING)
    assert "h" not in state.statuses
    state.set_status(held, TxStatus.TIMEOUT)
    assert state.status("h") is TxStatus.TIMEOUT


@pytest.mark.parametrize("amount, outcome", [
    (4, TxStatus.COMMITTED), (40, TxStatus.INSUFFICIENT_FUNDS),
])
@pytest.mark.parametrize("listening", [False, True])
def test_finalize_records_what_set_status_records(amount, outcome, listening):
    # finalize settles in its own call; for the same outcome it must leave
    # what set_status leaves.
    def recorded(settle):
        state = ChannelState("main", LedgerState.from_balances({"a": 10, "b": 0}))
        calls = []
        if listening:
            state.terminal_listeners.append(
                lambda tx, status: calls.append((tx.id, status, dict(state.statuses))))
        settle(state, transfer_tx("t", "a", "b", amount))
        return state.statuses, calls

    def finalize(state, tx):
        assert state.finalize(tx) is outcome

    assert recorded(finalize) == recorded(
        lambda state, tx: state.set_status(tx, outcome))


def _finalize_through_apply(state, tx, stamp=None):
    """``finalize`` as it was for every payload: ``apply_transaction``, then
    the same bookkeeping."""
    status = apply_transaction(state.ledger, tx, stamp)
    state.order_stream.append(tx)
    state.statuses[tx.id] = status
    if status is TxStatus.COMMITTED:
        state.ledger.committed_tx_count += 1
        if tx.writes:
            state.ledger.height += 1
    for listener in state.terminal_listeners:
        listener(tx, status)
    return status


@pytest.mark.parametrize("wallets", [("a",), ("b", "a"), ("a", "z"), ("z",)])
@pytest.mark.parametrize("stamp", [None, "current", "stale"])
def test_query_commit_equals_apply_transaction(wallets, stamp):
    # finalize commits a query itself; status, ledger, order stream,
    # status map, listeners and any unknown-wallet error are those of
    # apply_transaction.
    def committed_by(finalize):
        state = ChannelState("main", LedgerState.from_balances({"a": 10, "b": 0}))
        calls = []
        state.terminal_listeners.append(
            lambda tx, status: calls.append((tx.id, status, dict(state.statuses))))
        finalize(state, transfer_tx("t", "a", "b", 4))  # versions 1, 1
        versions = {"current": 1, "stale": 0}.get(stamp)
        q = query_tx("q", wallets)
        try:
            status = finalize(state, q, None if stamp is None
                              else {w: versions for w in wallets})
        except Exception as exc:
            status = (type(exc), str(exc))
        return status, state.ledger, state.order_stream, state.statuses, calls

    expected = committed_by(_finalize_through_apply)
    assert committed_by(ChannelState.finalize) == expected
    assert expected[0] in (TxStatus.COMMITTED, (UnknownWalletError, "q: unknown wallet z"))


def _pipeline(workers, queue_capacity, wallets):
    """A zero-jitter countermeasure service over ``wallets``, and its admit."""
    orderers = [NodeConfig(f"o{i}", role="orderer") for i in range(workers)]
    topo = Topology(
        nodes=[NodeConfig("client", role="client")] + orderers
        + [NodeConfig("peer1", role="peer")],
        default_latency=5,
    )
    engine = Engine(seed=1, topology=topo)
    state = ChannelState(
        "main", LedgerState.from_balances({w: 1000 for w in wallets})
    )
    policy = OrderingPolicy(mode=COUNTERMEASURES, workers=workers, jitter=(0, 0),
                            mempool_capacity=100, queue_capacity=queue_capacity)
    service = PipelineOrderingService(engine, state, policy, "peer1",
                                      worker_nodes=orderers)
    return engine, state, service, service.admit


def test_group_merge_relocates_only_bridged_group():
    # g0 = {a,b} on queue 0, g1 = {c,d} on queue 1, g2 = {e,f} on queue 2; a
    # bridge touching b and c must pull g1's pending into queue 0 and leave
    # g2 untouched.
    engine, state, service, pipeline_admit = _pipeline(3, None, "abcdef")

    def admit(tx):
        assert pipeline_admit(tx) is SubmitOutcome.ACCEPTED

    seeds = [transfer_tx("s0", "a", "b", 1), transfer_tx("s1", "c", "d", 1),
             transfer_tx("s2", "e", "f", 1)]
    for tx in seeds:
        admit(tx)
    # Workers are busy with the seeds; queue up one more per group.
    waiting = [transfer_tx("w0", "b", "a", 1), transfer_tx("w1", "d", "c", 1),
               transfer_tx("w2", "f", "e", 1)]
    for tx in waiting:
        admit(tx)
    assert [len(q) for q in service.queues] == [1, 1, 1]
    admit(transfer_tx("bridge", "b", "c", 2))
    # g1's pending member moved to queue 0 along with the bridge; g2 stayed.
    assert len(service.queues[1]) == 0
    assert len(service.queues[2]) == 1
    assert {tx.id for tx in queued(service.queues[0])} == {"w0", "w1", "bridge"}
    engine.run_until(10_000)
    assert state.status("bridge") is TxStatus.COMMITTED
    assert all(state.status(tx.id) is TxStatus.COMMITTED
               for tx in seeds + waiting)


def test_bridge_of_three_groups_moves_them_in_merge_order():
    # g0 = {a,b}, g1 = {c,d} and g2 = {e,f} sit on queues 0, 1 and 2, each
    # with a transfer in flight and a transfer and a query waiting.  The
    # bridge reads b, e, c in that order, so g2 merges into g0 before g1
    # does, and both move to queue 0 ahead of the bridge.
    engine, state, service, admit = _pipeline(3, None, "abcdef")
    for x, y in ("ab", "cd", "ef"):
        assert admit(transfer_tx(f"s{x}", x, y, 1)) is SubmitOutcome.ACCEPTED
    for x, y in ("ab", "cd", "ef"):
        assert admit(transfer_tx(f"w{x}", y, x, 1)) is SubmitOutcome.ACCEPTED
        assert admit(query_tx(f"q{x}", (y,))) is SubmitOutcome.ACCEPTED
    bridge = transfer_tx("bridge", "b", "e", 2, extra_reads=("c",))
    assert admit(bridge) is SubmitOutcome.ACCEPTED
    assert [[tx.id for tx in queued(q)] for q in service.queues] == [
        ["qa", "qe", "qc", "wa", "we", "wc", "bridge"], [], [],
    ]
    engine.run_until(10_000)
    assert len(_committed(state)) == 10


def _traced_pipeline(workers, queue_capacity, wallets):
    """``_pipeline``, also recording which worker each transaction went to
    when admission dispatched it at once."""
    engine, state, service, admit = _pipeline(workers, queue_capacity, wallets)
    dispatch, service.dispatched = service._dispatch, {}

    def record(index, tx):
        service.dispatched[tx.id] = index
        dispatch(index, tx)

    service._dispatch = record
    return engine, state, service, admit


def _landing(service, tx_id):
    """The queue index ``tx_id`` waits in, or the worker that took it."""
    for i, q in enumerate(service.queues):
        if any(tx.id == tx_id for tx in queued(q)):
            return i
    return service.dispatched.get(tx_id)


@pytest.mark.parametrize("workers, capacity", [(2, None), (3, None), (2, 3), (3, 2)])
def test_settled_admission_matches_the_key_path_across_bridges(workers, capacity):
    # The reference service has ``settled`` switched off, so every
    # admission takes touched and join.  Four pairs' groups fill up,
    # a bridge merges two of them, settled traffic follows on every wallet
    # of the merged group, a second bridge merges three groups, and settled
    # traffic follows again; both services must agree on every outcome,
    # landing queue and queue content.
    engine, state, service, admit = _traced_pipeline(workers, capacity, "abcdefgh")
    ref_engine, _, ref, ref_admit = _traced_pipeline(workers, capacity, "abcdefgh")
    ref.groups.settled = lambda tx: None
    settled_hits = 0

    def both(tx):
        nonlocal settled_hits
        settled_hits += service.groups.settled(tx) is not None
        outcome = admit(tx)
        assert outcome is ref_admit(tx)
        assert _landing(service, tx.id) == _landing(ref, tx.id)
        assert [queued(q) for q in service.queues] == [queued(q) for q in ref.queues]

    def traffic(tag, pairs):
        # Per pair xy: a query on y, a transfer from y to x, a query on x.
        for n, (x, y) in enumerate(pairs):
            both(query_tx(f"{tag}q{n}", (y,)))
            both(transfer_tx(f"{tag}t{n}", y, x, 1))
            both(query_tx(f"{tag}p{n}", (x,)))

    def run(ms):
        engine.run_until(engine.now + ms)
        ref_engine.run_until(ref_engine.now + ms)

    for x, y in ("ab", "cd", "ef", "gh"):
        both(transfer_tx(f"s{x}", x, y, 1))
    traffic("w", ("ab", "cd", "ef", "gh"))
    # Each bridge's traffic first reads a wallet only the younger groups
    # held, whose map entry must now reach the older group.
    both(transfer_tx("bridge2", "b", "c", 1))
    traffic("m", ("cd", "ba", "ad"))
    run(15)
    both(transfer_tx("bridge3", "f", "h", 1, extra_reads=("a",)))
    traffic("n", ("fe", "hg", "ge", "dh"))
    run(15)
    traffic("r", ("ab", "cd", "ef", "gh"))
    assert settled_hits >= 30  # of 51 admissions: the map did the work
    engine.run_until(10_000)
    ref_engine.run_until(10_000)
    assert _committed(state) == _committed(ref.state)


@pytest.mark.parametrize("capacity, ab, cd", [(2, 3, 3), (3, 2, 4)])
def test_rejected_bridge_leaves_queues_untouched(capacity, ab, cd):
    # Each pair's first transfer is in flight and the rest wait in its
    # group's queue.  A bridge would pull the c,d queue's waiting transfers
    # into the a,b queue, which has no room for them (in the second case it
    # has room for the bridge alone): it is rejected and nothing moves.
    engine, state, service, admit = _pipeline(2, capacity, "abcd")
    for i in range(max(ab, cd)):
        if i < ab:
            assert admit(transfer_tx(f"ab{i}", "a", "b", 1)) is SubmitOutcome.ACCEPTED
        if i < cd:
            assert admit(transfer_tx(f"cd{i}", "c", "d", 1)) is SubmitOutcome.ACCEPTED
    waiting = [ab - 1, cd - 1]
    assert [len(q) for q in service.queues] == waiting
    assert admit(transfer_tx("bridge", "b", "c", 1)) is SubmitOutcome.MEMPOOL_FULL
    assert [len(q) for q in service.queues] == waiting
    assert [q.peak_occupancy for q in service.queues] == waiting
    engine.run_until(10_000)
    assert state.status("bridge") is TxStatus.PENDING
    assert len(_committed(state)) == ab + cd


# Four disjoint wallet pairs; a bridge joins two pairs' groups.
_PAIRS = ("ab", "cd", "ef", "gh")

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(0, 3), st.integers(0, 2)),
        st.tuples(st.just("bridge"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("discard"), st.integers(0, 63), st.just(0)),
        st.tuples(st.just("run"), st.integers(1, 30), st.just(0)),
    ),
    max_size=40,
)


@given(workers=st.integers(1, 3), capacity=st.integers(1, 3), ops=_ops)
def test_admission_respects_capacity_and_rejection_leaves_no_trace(
    workers, capacity, ops
):
    engine, state, service, admit = _pipeline(workers, capacity, "".join(_PAIRS))
    groups = service.groups
    admitted = []

    def shape():
        # Live groups, not raw map entries: path compression may rewrite
        # ``into`` without changing any key's group.
        return ([len(q) for q in service.queues], len(groups), groups.next_queue,
                {w: g.live() for w, g in groups.wallets.items()},
                {i: g.live() for i, g in groups.placed.items()},
                {i: g.live() for i, g in groups.named.items()})

    def map_matches_keys():
        # Every mapped wallet or id reaches a live group, and those groups
        # are all the groups there are.
        reached = {g.live() for g in (*groups.wallets.values(),
                                      *groups.placed.values(),
                                      *groups.named.values())}
        assert all(g.into is None for g in reached)
        assert len(reached) == len(groups)

    for n, (op, x, y) in enumerate(ops):
        tx_id = f"op{n}"
        if op == "run":
            engine.run_until(engine.now + x)
            map_matches_keys()
            continue
        if op == "discard":
            if admitted:
                tx = admitted[x % len(admitted)]
                if not state.status(tx.id).terminal:  # as a client timeout
                    service.discard(tx.id)
                    state.set_status(tx, TxStatus.TIMEOUT)
            map_matches_keys()
            continue
        if op == "bridge":
            tx = transfer_tx(tx_id, _PAIRS[x][0], _PAIRS[y][1], 1)
        elif y == 2:
            tx = query_tx(tx_id, (_PAIRS[x][0],))
        else:
            tx = transfer_tx(tx_id, _PAIRS[x][y], _PAIRS[x][1 - y], 1)
        before = shape()
        outcome = admit(tx)
        if outcome is SubmitOutcome.ACCEPTED:
            admitted.append(tx)
        else:
            assert outcome is SubmitOutcome.MEMPOOL_FULL
            assert shape() == before
        for q in service.queues:
            assert len(q) <= q.peak_occupancy <= capacity
        map_matches_keys()


def _key_components(txs):
    """Connected components of the footprint keys of ``txs``, admitted in
    that order, rebuilt from scratch: a transaction's keys are its wallets,
    its own id and its dependencies' ids."""
    parent = {}

    def find(key):
        while parent[key] != key:
            key = parent[key]
        return key

    for tx in txs:
        keys = [("w", w) for w in (*tx.reads, *tx.writes)]
        keys += [("t", i) for i in (tx.id, *tx.declared_deps)]
        for key in keys:
            parent.setdefault(key, key)
        for key in keys[1:]:
            parent[find(key)] = find(keys[0])
    components = {}
    for key in parent:
        components.setdefault(find(key), set()).add(key)
    return {frozenset(c) for c in components.values()}


_dep_ops = st.lists(
    st.tuples(
        st.sampled_from(["transfer", "transfer", "query", "run"]),
        st.lists(st.integers(0, 11), max_size=3, unique=True),
        # Dependencies by op index: earlier ops, later ones (a forward
        # reference) and ones that never come.
        st.lists(st.integers(0, 32), max_size=2, unique=True),
    ),
    max_size=32,
)


def _dep_tx(n, kind, picks, deps):
    """Op ``n`` of an op list like ``_dep_ops``, as a transaction over
    wallets a..l."""
    wallets = ["abcdefghijkl"[i] for i in picks]
    dep_ids = tuple(f"op{d}" for d in deps if d != n)
    if kind == "transfer" and len(wallets) >= 2:
        return transfer_tx(f"op{n}", wallets[0], wallets[1], 1,
                           extra_reads=tuple(wallets[2:]), deps=dep_ids)
    return query_tx(f"op{n}", tuple(wallets), deps=dep_ids)


@settings(max_examples=300)
@given(workers=st.integers(1, 3), capacity=st.integers(2, 8), ops=_dep_ops)
def test_groups_are_the_components_of_the_accepted_keys(workers, capacity, ops):
    engine, state, service, admit = _pipeline(workers, capacity, "abcdefghijkl")
    groups = service.groups
    accepted = []
    for n, (kind, picks, deps) in enumerate(ops):
        if kind == "run":
            engine.run_until(engine.now + 1 + 10 * len(picks))
            continue
        tx = _dep_tx(n, kind, picks, deps)
        if admit(tx) is SubmitOutcome.ACCEPTED:
            accepted.append(tx)
        live = {}
        for kind_, mapping in (("w", groups.wallets), ("t", groups.placed),
                               ("t", groups.named)):
            for key, group in mapping.items():
                live.setdefault(group.live(), set()).add((kind_, key))
        assert len(live) == len(groups)
        assert {frozenset(c) for c in live.values()} == _key_components(accepted)
        # A pending transaction waits in its group's queue.
        waiting = [{tx.id for tx in queued(q)} for q in service.queues]
        for tx in accepted:
            key_group = groups.placed[tx.id].live()
            for i, ids in enumerate(waiting):
                if tx.id in ids:
                    assert i == key_group.queue_index


# As ``_dep_ops``, over six wallets and with more dependencies ahead, so
# that a named transaction often finds its wallets in one group already.
_batch_ops = st.lists(
    st.tuples(
        st.sampled_from(["transfer", "query", "run"]),
        st.lists(st.integers(0, 5), max_size=3, unique=True),
        st.lists(st.integers(0, 24), max_size=2, unique=True),
    ),
    max_size=24,
)


@settings(max_examples=150)
@given(workers=st.integers(1, 3), ops=_batch_ops)
# A dependency admitted before anything names it.
@example(workers=3, ops=[("transfer", [0, 1], []), ("transfer", [2, 3], [0])])
# A named query whose wallet already sits in another group.
@example(workers=1, ops=[("transfer", [0, 1], []), ("transfer", [2, 3], [2]),
                         ("query", [0], [])])
def test_online_groups_equal_partition_groups(workers, ops):
    # With room for the whole batch nothing is rejected, so admission, with
    # commits between arrivals, forms exactly the groups that ``partition``
    # forms offline over the same batch: the components of their keys.
    engine, state, service, admit = _pipeline(workers, max(len(ops), 1),
                                              "abcdefghijkl")
    batch = []
    for n, (kind, picks, deps) in enumerate(ops):
        if kind == "run":
            engine.run_until(engine.now + 1 + 10 * len(picks))
            continue
        tx = _dep_tx(n, kind, picks, deps)
        assert admit(tx) is SubmitOutcome.ACCEPTED
        batch.append(tx)
    online = {}
    for tx in batch:
        online.setdefault(service.groups.placed[tx.id].live(), set()).add(tx.id)
    # One queue per transaction: each of partition's groups gets its own.
    offline = {frozenset(tx.id for tx in queued(q))
               for q in partition(batch, max(len(batch), 1)) if len(q)}
    assert {frozenset(ids) for ids in online.values()} == offline
    ids = {tx.id for tx in batch}
    assert offline == {frozenset(key for kind, key in c if kind == "t" and key in ids)
                       for c in _key_components(batch)}


_BRIDGE_CASE = """
from conflictsim.core import LedgerState, transfer_tx
from conflictsim.ordering import (
    COUNTERMEASURES, ChannelState, OrderingPolicy, PipelineOrderingService)
from conflictsim.simnet import Engine, NodeConfig, Topology

workers = [NodeConfig(f"o{i}", role="orderer") for i in range(3)]
engine = Engine(seed=1, topology=Topology(
    nodes=[NodeConfig("peer1", role="peer"), *workers], default_latency=5))
state = ChannelState("main", LedgerState.from_balances(
    {w: 1000 for w in "abcdefgh"}))
service = PipelineOrderingService(
    engine, state, OrderingPolicy(mode=COUNTERMEASURES, workers=3),
    "peer1", worker_nodes=workers)
for tx in (transfer_tx("pa", "a", "b", 1, deps=("xa",)),
           transfer_tx("pc", "c", "d", 1, deps=("xc",)),
           transfer_tx("pe", "e", "f", 1, deps=("xe",)),
           transfer_tx("bridge", "g", "h", 1, extra_reads=("a",),
                       deps=("pc", "pe"))):
    service.admit(tx)
print([[tx.id for tx in (*q._read, *q._write)] for q in service.queues])
"""


def test_bridge_relocations_follow_declared_order_under_any_hash_seed():
    # Three groups each wait on a dependency that never comes; a bridge
    # reading ``a`` and naming ``pc`` then ``pe`` pulls both into queue 0,
    # in the order it names them, whatever the string hash seed.
    outs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _BRIDGE_CASE], capture_output=True,
            text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC_PATH, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    # Relocation leaves a dead entry behind in each source queue.
    assert outs[0] == str([["pa", "pc", "pe", "bridge"], ["pc"], ["pe"]]) + "\n"


# -- commit times --------------------------------------------------------------


def _commit_times(service, engine, txs):
    """Admit ``txs`` at time 0, each dispatched as it is admitted, and return
    their commit times with the jitter each dispatch draws, in order, from a
    copy of the engine's RNG."""
    lo, hi = service.policy.jitter
    mirror = random.Random()
    mirror.setstate(engine.rng.getstate())
    committed = {}
    service.state.terminal_listeners.append(
        lambda tx, status: committed.setdefault(tx.id, engine.now)
    )
    for tx in txs:
        assert service.admit(tx) is SubmitOutcome.ACCEPTED
    jitters = [lo + int(mirror.random() * (hi - lo + 1)) for _ in txs]
    engine.run_until(10_000)
    return [committed[tx.id] for tx in txs], jitters


def _delay_service(mode, nodes, *, links=None, peer_id="peer1", workers=1,
                   orderers=None, pinned=None):
    topo = Topology(nodes=[*nodes, NodeConfig("peer1", role="peer")],
                    links=links or {}, default_latency=5)
    engine = Engine(seed=3, topology=topo)
    state = ChannelState("main", LedgerState.from_balances(
        {w: 1000 for w in "abcdef"}))
    policy = OrderingPolicy(mode=mode, workers=workers, jitter=(1, 20))
    orderers = nodes if orderers is None else orderers
    if mode == BASELINE:
        service = BaselineOrderingService(engine, state, orderers, policy,
                                          peer_id, pinned)
    else:
        service = PipelineOrderingService(engine, state, policy, peer_id,
                                          worker_nodes=orderers)
    return service, engine


_DISJOINT = [transfer_tx("t0", "a", "b", 1), transfer_tx("t1", "c", "d", 1),
          transfer_tx("t2", "e", "f", 1)]


@pytest.mark.parametrize("mode", [BASELINE, COUNTERMEASURES])
@pytest.mark.parametrize("case, fixed", [
    # processing_delay + latency, the link's either way round
    ("link", 4 + 9),
    ("node_latency", 4 + 3),  # the node's own latency covers its links
    ("no_peer", 4 + 5),  # the default latency
])
def test_dispatch_commits_after_jitter_processing_and_latency(mode, case, fixed):
    node = NodeConfig("o1", role="orderer", processing_delay=4,
                      latency=3 if case == "node_latency" else None)
    service, engine = _delay_service(
        mode, [node], links={("peer1", "o1"): 9} if case == "link" else None,
        peer_id=None if case == "no_peer" else "peer1",
    )
    times, jitters = _commit_times(service, engine, _DISJOINT[:1])
    assert times == [jitters[0] + fixed]


def test_workers_past_worker_nodes_commit_after_the_default_latency():
    # Three workers, one node: workers 1 and 2 have neither processing delay
    # nor link, and share one default delay in the table.
    node = NodeConfig("o1", role="orderer", processing_delay=4)
    service, engine = _delay_service(COUNTERMEASURES, [node],
                                     links={("o1", "peer1"): 9}, workers=3)
    times, jitters = _commit_times(service, engine, _DISJOINT)
    assert [service.groups.placed[tx.id].queue_index for tx in _DISJOINT] == [0, 1, 2]
    assert times == [jitters[0] + 4 + 9, jitters[1] + 5, jitters[2] + 5]
    assert len(service._delays) == 1


def test_delay_table_holds_one_entry_per_orderer():
    nodes = [NodeConfig(f"o{i}", role="orderer") for i in range(2)]
    service, _engine = _delay_service(COUNTERMEASURES, nodes, workers=100)
    assert service._delays == [5, 5]


def test_pinned_valid_orderer_commits_after_its_own_delay():
    # Double spend pins its valid transfer to ``valid_orderer``, here outside
    # the cycling orderers, so the service resolves its delay on admission.
    config = resolve_scenario("sec3b_double_spend")
    topo = config.topology
    pinned_node = topo.node(config.param("valid_orderer"))
    cycling = [n for n in topo.orderers("main") if n is not pinned_node]
    service, engine = _delay_service(
        BASELINE, topo.orderers("main"), orderers=cycling,
        pinned={"valid": pinned_node.id},
    )
    assert list(service._delays) == [n.id for n in cycling]
    valid = transfer_tx("valid", "a", "b", 1)
    times, jitters = _commit_times(service, engine, [valid, _DISJOINT[1]])
    assert times == [
        jitters[0] + pinned_node.processing_delay + 5,
        jitters[1] + cycling[0].processing_delay + 5,
    ]
    assert len(service._delays) == len(topo.orderers("main"))
