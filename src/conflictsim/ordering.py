"""The race-prone baseline ordering service and the countermeasure
pipeline.

The pipeline composes four measures: read priority (queries dequeue ahead
of writers), dependency gating at dequeue time, wallet-footprint
partitioning into one bounded queue per worker, and the workers themselves
running as concurrent logical processes on the event engine.  Each queue
has one ``gate``, a generator that the pipeline's workers and the thread
bench's drain both draw from.  ``FootprintGroups`` groups admissions and
the bench's ``partition`` alike; a transaction whose wallets all reach one
group is accepted or rejected against that group's queue, joining nothing.

Both services offer one surface to a simulation run (``admit``,
``discard``, ``peak_pool``, ``peak_queue``) and own their endorsement,
keeping it out of the transaction: the baseline takes a stamp of the read
versions when it accepts a transaction and holds it until commit; the
pipeline endorses at ordering time, so a gated transaction commits against
the state its dependencies left.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .core import (
    TERMINAL,
    LedgerState,
    Query,
    Transaction,
    TxStatus,
    apply_transaction,
    conflicts_with,
    stamp_read_versions,
)
from .errors import TerminalStatusError, UnknownWalletError
from .simnet import Engine, NodeConfig, Topology

BASELINE = "baseline"
COUNTERMEASURES = "countermeasures"

# Re-wake interval for a pipeline worker whose whole queue is deferred while
# no commit is in flight anywhere (e.g. cyclic dependencies); keeps deferral
# counting alive so defer_limit can fire.
RETRY_TICK = 10


class SubmitOutcome(Enum):
    ACCEPTED = "accepted"
    MEMPOOL_FULL = "mempool_full"
    DUPLICATE = "duplicate"


class DependencyVerdict(Enum):
    READY = "ready"
    DEFERRED = "deferred"
    ABORT = "abort"


# On CPython 3.11 each read of an enum member through its class runs a
# descriptor in Python; the per-transaction paths, rejections included, read
# these aliases.
_READY, _ABORT = DependencyVerdict.READY, DependencyVerdict.ABORT
_ACCEPTED = SubmitOutcome.ACCEPTED
_MEMPOOL_FULL, _DUPLICATE = SubmitOutcome.MEMPOOL_FULL, SubmitOutcome.DUPLICATE
_COMMITTED = TxStatus.COMMITTED


@dataclass
class OrderingPolicy:
    mode: str = BASELINE
    workers: int = 4
    defer_limit: int = 1000
    jitter: tuple[int, int] = (1, 20)
    mempool_capacity: int = 5000
    queue_capacity: int | None = None
    client_timeout: int | None = None

    def __post_init__(self):
        if self.mode not in (BASELINE, COUNTERMEASURES):
            raise ValueError(f"unknown ordering mode {self.mode!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        lo, hi = self.jitter
        if lo < 0 or hi < lo:
            raise ValueError(f"invalid jitter range {self.jitter}")
        if self.mempool_capacity < 1:
            raise ValueError("mempool capacity must be positive")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.defer_limit < 0:
            raise ValueError("defer_limit must be >= 0")
        if self.client_timeout is not None and self.client_timeout < 0:
            raise ValueError("client_timeout must be >= 0")

    @property
    def per_queue_capacity(self) -> int:
        return self.queue_capacity or self.mempool_capacity


def _fixed_delay(
    topology: Topology, node: NodeConfig | None, peer_id: str | None
) -> int:
    """A dispatch from ``node`` commits at the peer this long after its
    seeded jitter: the node's processing delay plus the node-to-peer latency
    (the default latency when the node or the peer is unknown)."""
    if node is None:
        return topology.default_latency
    if peer_id is None:
        return node.processing_delay + topology.default_latency
    return node.processing_delay + topology.latency(node.id, peer_id)


# -- countermeasure primitives ----------------------------------------------


def check_dependencies(
    tx: Transaction,
    statuses: dict[str, TxStatus],
    in_flight: Iterable[Transaction] = (),
) -> DependencyVerdict:
    """Gate a transaction on declared and data dependencies.

    ``statuses`` maps an id to its terminal status.  Declared dependencies
    must all be committed; a dependency with any other terminal status
    aborts the transaction.  A conflict with any in-flight transaction is
    an implicit dependency and defers as well.
    """
    deps = tx.declared_deps
    if deps:
        for dep in deps:
            if statuses.get(dep, _COMMITTED) is not _COMMITTED:
                return DependencyVerdict.ABORT
        for dep in deps:
            if dep not in statuses:
                return DependencyVerdict.DEFERRED
    for other in in_flight:
        if conflicts_with(tx, other):
            return DependencyVerdict.DEFERRED
    return DependencyVerdict.READY


class OrdererQueue:
    """Per-worker bounded queue: queries dequeue ahead of writers.

    ``pending`` counts the transactions waiting to be served (``len`` reads
    it).  The serving rule: an entry is served when it is the first entry
    of its id popped while that id is pending here; later entries of the id
    are skipped.  Only an id taken out while queued (``discard``, which
    relocation also uses) can leave an entry behind, so only those ids are
    tracked: ``_moved`` maps one to its entries still queued, and ``_dead``
    holds the ones among them not pending here.  ``gate`` pops the class
    deques and keeps the count and both maps itself."""

    def __init__(self, owner: str, capacity: int):
        self.owner = owner
        self.capacity = capacity
        self._read: deque[Transaction] = deque()
        self._write: deque[Transaction] = deque()
        self._moved: dict[str, int] = {}
        self._dead: set[str] = set()
        self.pending = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return self.pending

    def append(self, tx: Transaction) -> None:
        """Queue ``tx``, which is not pending here, at the tail of its
        class."""
        moved = self._moved
        if moved and tx.id in moved:  # its older entries serve again
            moved[tx.id] += 1
            self._dead.discard(tx.id)
        if type(tx.payload) is Query:
            self._read.append(tx)
        else:
            self._write.append(tx)
        self.pending += 1
        if self.pending > self.peak_occupancy:
            self.peak_occupancy = self.pending

    def discard(self, tx_id: str) -> None:
        """Take ``tx_id``, which is pending here, out of the queue; its
        entries stay queued, dead."""
        self._moved.setdefault(tx_id, 1)  # an id never moved has one entry
        self._dead.add(tx_id)
        self.pending -= 1


class _Group:
    __slots__ = ("queue_index", "seq", "members", "into")

    def __init__(self, queue_index: int, seq: int):
        self.queue_index = queue_index
        self.seq = seq
        # Transactions ever enqueued for this group; pruned on relocation.
        self.members: list = []
        self.into: _Group | None = None  # the older group this one merged into

    def live(self) -> _Group:
        """The group this one has merged into, transitively; compresses the
        path there."""
        root = self.into
        if root is None:
            return self
        while root.into is not None:
            root = root.into
        group = self
        while group.into is not root:
            group.into, group = root, group.into
        return root


_seq = attrgetter("seq")


class FootprintGroups:
    """Footprint groups, each dealt to one of ``n`` queues round-robin.

    A transaction's keys are its wallets (the reads, then the writes it does
    not read, sorted to keep the string hash seed out), its own id and its
    dependencies' ids in declared order.  ``wallets`` maps a wallet to a
    group, ``placed`` an accepted id (the caller writes it on acceptance),
    and ``named`` an id a dependent named before it was placed.  A merged
    group forwards through ``into`` to the older group it joined.
    """

    def __init__(self, n: int):
        self.n = n
        self.next_queue = 0  # also the next group's seq
        self.wallets: dict[str, _Group] = {}
        self.placed: dict[str, _Group] = {}
        self.named: dict[str, _Group] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def settled(self, tx: Transaction) -> _Group | None:
        """The live group every wallet of ``tx`` already maps to, when ``tx``
        reads a wallet and neither names a dependency nor was named; else
        None.  Re-points the forwarded entries it reads at that group."""
        named = self.named
        if tx.declared_deps or (named and tx.id in named):
            return None
        wallets = self.wallets
        reads = iter(tx.reads)
        group = wallets.get(next(reads, None))  # None if it reads nothing
        if group is None:
            return None
        if group.into is not None:
            group = wallets[tx.reads[0]] = group.live()
        for w in reads:
            if wallets.get(w) is not group and not self._remap(w, group):
                return None
        for w in tx.writes:
            if wallets.get(w) is not group and not self._remap(w, group):
                return None
        return group

    def _remap(self, wallet: str, group: _Group) -> bool:
        """Whether ``wallet`` maps to ``group`` through merges; if so, maps
        it to ``group`` directly."""
        other = self.wallets.get(wallet)
        if other is None or other.live() is not group:
            return False
        self.wallets[wallet] = group
        return True

    def touched(self, tx: Transaction) -> list[_Group]:
        """The live groups ``tx``'s keys reach, in key order.  Changes
        nothing but path compression."""
        wallets, named = self.wallets, self.named
        reached = [wallets.get(w) for w in tx.reads]
        extra = tx.writes.difference(tx.reads)
        if extra:
            reached.extend(wallets.get(w) for w in sorted(extra))
        if named:
            reached.append(named.get(tx.id))
        if tx.declared_deps:
            placed = self.placed
            reached.extend(placed.get(dep) or named.get(dep) for dep in tx.declared_deps)
        found: list[_Group] = []
        for group in reached:
            if group is not None:
                if group.into is not None:
                    group = group.live()
                if group not in found:
                    found.append(group)
        return found

    def join(
        self, tx: Transaction, found: list[_Group]
    ) -> tuple[_Group, list[tuple[_Group, _Group]]]:
        """Map ``tx``'s wallets and unplaced dependencies to one group:
        ``found``, its ``touched`` groups merged in order into the oldest, or
        a new group.  Returns the group and the ``(younger, older)`` group
        pairs merged, in merge order."""
        merged: list[tuple[_Group, _Group]] = []
        if found:
            group = found[0]
            for other in found[1:]:
                if other.seq < group.seq:
                    group, other = other, group
                other.into = group
                merged.append((other, group))
            self._count -= len(merged)
        else:
            group = _Group(self.next_queue % self.n, self.next_queue)
            self.next_queue += 1
            self._count += 1
        wallets = self.wallets
        for w in tx.reads:
            wallets[w] = group
        for w in tx.writes:
            wallets[w] = group
        placed, named = self.placed, self.named
        for dep in tx.declared_deps:
            if dep not in placed:
                named[dep] = group
        return group, merged


def partition(txs: list[Transaction], n: int) -> list[OrdererQueue]:
    """Split a workload into n queues, keeping conflicting transactions
    together.

    Groups are the pipeline's footprint groups over the whole batch, under
    the same key rule: a dependent shares a queue with every dependency in
    the batch, whichever comes first.  The final groups are dealt
    round-robin in order of first appearance; within each queue
    transactions keep (queries first, submit time, batch index) order.  The
    queues are built in bulk, so each one's count and peak are set once;
    the batch's ids must be distinct.
    """
    if n < 1:
        raise ValueError("need at least one queue")
    groups = FootprintGroups(n)
    wallets, placed, named = groups.wallets, groups.placed, groups.named
    settled, touched, join = groups.settled, groups.touched, groups.join
    for tx in txs:
        footprint = tx.reads
        if len(footprint) == 1 and not (tx.writes or tx.declared_deps or tx.id in named):
            # A one-wallet query: its group is its wallet's, or a new one.
            group = wallets.get(footprint[0]) or join(tx, [])[0]
        else:
            group = settled(tx) or join(tx, touched(tx))[0]
        placed[tx.id] = group
    live = {group: group.live() for group in dict.fromkeys(placed.values())}
    index = {final: i % n for i, final in enumerate(dict.fromkeys(live.values()))}
    queue_of = {group: index[final] for group, final in live.items()}
    queues = [OrdererQueue(owner=f"q{i}", capacity=max(len(txs), 1)) for i in range(n)]
    reads, writes = [q._read for q in queues], [q._write for q in queues]
    # A stable sort on submit time keeps batch order among ties.
    for tx in sorted(txs, key=attrgetter("submit_time")):
        (reads if type(tx.payload) is Query else writes)[queue_of[placed[tx.id]]].append(tx)
    for q in queues:
        q.pending = q.peak_occupancy = len(q._read) + len(q._write)
    return queues


# -- channel commit substrate ------------------------------------------------


class ChannelState:
    """Ledger, chain bookkeeping and status registry for one channel.

    ``statuses`` maps a transaction's id to its terminal status once it has
    one, so an id is terminal exactly when it is in the map.
    ``order_stream`` holds the transactions ordered, each at most once, in
    order: those ``finalize`` validated and those the gate aborted.
    """

    def __init__(self, channel: str, ledger: LedgerState):
        self.channel = channel
        self.ledger = ledger
        self.statuses: dict[str, TxStatus] = {}
        self.order_stream: list[Transaction] = []
        self.terminal_listeners: list[Callable[[Transaction, TxStatus], None]] = []

    def status(self, tx_id: str) -> TxStatus:
        return self.statuses.get(tx_id, TxStatus.PENDING)

    def set_status(self, tx: Transaction, status: TxStatus) -> None:
        """Record terminal ``status`` for ``tx``, which has none yet, and
        tell the listeners."""
        if status not in TERMINAL:
            raise ValueError(f"{tx.id}: {status} is not a terminal status")
        current = self.statuses.get(tx.id)
        if current is not None:
            raise TerminalStatusError(
                f"{tx.id}: terminal status {current} already set"
            )
        self.statuses[tx.id] = status
        for listener in self.terminal_listeners:
            listener(tx, status)

    def finalize(self, tx: Transaction, stamp: dict | None = None) -> TxStatus:
        """Validate an ordered transaction against the ledger, with the read
        stamp of its endorsement or endorsed now when none is given, and
        commit it; records its terminal status as ``set_status`` does.

        A query commits here, whatever its stamp, once every wallet it reads
        exists, and raises ``UnknownWalletError`` as ``apply_transaction``
        does otherwise; a transfer goes through ``apply_transaction``.
        Committed writers extend the chain by one single-transaction block;
        failed transactions never occupy block space.
        """
        tx_id = tx.id
        statuses = self.statuses
        current = statuses.get(tx_id)
        if current is not None:
            return current
        ledger = self.ledger
        if type(tx.payload) is Query:
            versions = ledger.versions
            for wallet in tx.reads:
                if wallet not in versions:
                    raise UnknownWalletError(f"{tx_id}: unknown wallet {wallet}")
            status = _COMMITTED
        else:
            # Every status apply_transaction returns is terminal.
            status = apply_transaction(ledger, tx, stamp)
        self.order_stream.append(tx)
        statuses[tx_id] = status
        if status is _COMMITTED:
            ledger.committed_tx_count += 1
            if tx.writes:
                ledger.height += 1
        if self.terminal_listeners:
            for listener in self.terminal_listeners:
                listener(tx, status)
        return status

    def dependency_violations(self) -> int:
        """Count declared dependencies that were ordered after (or never
        before) their dependents."""
        stream = self.order_stream
        dependents = [(pos, tx) for pos, tx in enumerate(stream) if tx.declared_deps]
        if not dependents:
            return 0
        position = {tx.id: i for i, tx in enumerate(stream)}
        violations = 0
        for pos, tx in dependents:
            for dep in tx.declared_deps:
                dep_pos = position.get(dep)
                if dep_pos is None or dep_pos > pos:
                    violations += 1
        return violations


STALLED = object()  # every transaction left in the queue was deferred


def gate(
    queue: OrdererQueue,
    state: ChannelState,
    defer_counts: dict[str, int],
    defer_limit: int,
    in_flight: Iterable[Transaction] = (),
) -> Iterator:
    """The gated drain (C1): each ``next()`` takes ``queue``'s next
    transaction that is ready to order against ``state``.

    Entries the queue's serving rule skips are dropped as they are popped;
    only ids taken out while queued cost the pop a lookup.  A transaction
    already terminal is skipped, one whose declared dependency failed
    aborts, and a deferred one goes back to the tail of its class, timing
    out once deferred more than ``defer_limit`` times.  A pass looks at
    each queued transaction at most once: deferred ones are held aside and
    re-queued before the pass yields, so a deferred read cannot hide a
    ready writer behind it.  Yields the ready transaction, ``None`` when
    the queue is empty, or ``STALLED`` when every transaction left was
    deferred.  ``in_flight`` is read on every pass, so a live view stays
    current.

    The gate reads the queue's deques and maps directly.  A terminal
    listener that the gate's aborts and timeouts reach must not draw from
    the same gate: a running generator raises.
    """
    statuses = state.statuses
    reads, writes = queue._read, queue._write
    moved, dead = queue._moved, queue._dead
    deferred: list[Transaction] = []
    while True:
        ready = None
        while reads or writes:
            tx = (reads or writes).popleft()
            tx_id = tx.id
            if moved and tx_id in moved:
                left = moved.pop(tx_id) - 1  # its entries queued behind this one
                if left:
                    moved[tx_id] = left
                if tx_id in dead:  # not pending here: skip the entry
                    if not left:
                        dead.discard(tx_id)
                    continue
                if left:
                    dead.add(tx_id)  # served now, so the rest are skipped
            queue.pending -= 1
            if tx_id in statuses:  # already terminal
                continue
            if not tx.declared_deps and not in_flight:
                ready = tx
                break
            verdict = check_dependencies(tx, statuses, in_flight)
            if verdict is _READY:
                ready = tx
                break
            if verdict is _ABORT:
                state.order_stream.append(tx)
                state.set_status(tx, TxStatus.CONFLICT_FAILED)
                continue
            count = defer_counts.get(tx_id, 0) + 1
            defer_counts[tx_id] = count
            if count > defer_limit:
                state.set_status(tx, TxStatus.TIMEOUT)
                continue
            deferred.append(tx)
        if deferred:
            for tx in deferred:
                queue.append(tx)  # tail of its class
            deferred.clear()
            if ready is None:
                ready = STALLED
        yield ready


# -- baseline service ---------------------------------------------------------


class BaselineOrderingService:
    """Default ordering: every orderer races on a shared FIFO pool.

    Each orderer repeatedly pulls the next pending transaction, incurs a
    seeded jitter delay plus its own processing cost, and commits a
    single-transaction block at the peer.  Two orderers holding adjacent
    transactions can finish out of pull order, which is the race that breaks
    dependent transactions on some seeds.

    ``pinned`` maps a transaction id to the orderer a scripted scenario
    routes it to; the service reads it on admission, so entries added after
    construction still apply.  The pool is one deque; ``_waiting`` maps each
    id still waiting in it to the read stamp taken on acceptance, which
    rides in the commit event once the id is pulled.
    """

    def __init__(
        self,
        engine: Engine,
        channel_state: ChannelState,
        orderers: list[NodeConfig],
        policy: OrderingPolicy,
        peer_id: str | None = None,
        pinned: dict[str, str] | None = None,
    ):
        if not orderers:
            raise ValueError("baseline ordering needs at least one orderer")
        self.engine = engine
        self.state = channel_state
        self.policy = policy
        self.peer_id = peer_id
        self.pinned = {} if pinned is None else pinned
        # Each orderer's fixed delay by id; a pinned one joins on admission.
        self._delays = {
            o.id: _fixed_delay(engine.topology, o, peer_id) for o in orderers
        }
        self._idle = deque(orderers)
        self._pool: deque[Transaction] = deque()
        self._waiting: dict[str, dict[str, int]] = {}
        self._seen: set[str] = set()
        self.peak_pool = 0

    @property
    def peak_queue(self) -> int:
        return self.peak_pool  # the shared pool is the only queue

    def admit(self, tx: Transaction) -> SubmitOutcome:
        tx_id = tx.id
        if tx_id in self._seen:
            return _DUPLICATE
        waiting = self._waiting
        if len(waiting) >= self.policy.mempool_capacity:
            return _MEMPOOL_FULL
        self._seen.add(tx_id)
        if len(waiting) >= self.peak_pool:
            self.peak_pool = len(waiting) + 1
        # Endorse on acceptance: the transaction commits with this stamp.
        stamp = stamp_read_versions(tx, self.state.ledger)
        pinned_orderer = self.pinned.get(tx_id)
        if pinned_orderer is not None:
            # Scripted scenarios route a transaction to a named orderer,
            # past the pool.
            topology = self.engine.topology
            orderer = topology.node(pinned_orderer)
            delays = self._delays
            if pinned_orderer not in delays:
                delays[pinned_orderer] = _fixed_delay(topology, orderer, self.peer_id)
            try:
                self._idle.remove(orderer)
            except ValueError:
                pass
            self._dispatch(orderer, tx, stamp)
        else:
            waiting[tx_id] = stamp
            self._pool.append(tx)
            if self._idle:
                self._start_cycle(self._idle.popleft())
        return _ACCEPTED

    def discard(self, tx_id: str) -> bool:
        return self._waiting.pop(tx_id, None) is not None

    def _start_cycle(self, orderer: NodeConfig) -> None:
        pool, waiting = self._pool, self._waiting
        while pool:
            tx = pool.popleft()
            stamp = waiting.pop(tx.id, None)
            if stamp is not None:  # else discarded while waiting
                self._dispatch(orderer, tx, stamp)
                return
        self._idle.append(orderer)

    def _dispatch(self, orderer: NodeConfig, tx: Transaction, stamp: dict) -> None:
        engine = self.engine
        lo, hi = self.policy.jitter
        delay = lo if hi <= lo else lo + int(engine.rng.random() * (hi - lo + 1))
        delay += self._delays[orderer.id]
        engine.schedule_call(engine.now + delay, self._on_commit, (orderer, tx, stamp))

    def _on_commit(self, engine: Engine, payload) -> None:
        orderer, tx, stamp = payload
        self.state.finalize(tx, stamp)
        self._start_cycle(orderer)


# -- countermeasure pipeline ---------------------------------------------------


class PipelineOrderingService:
    """C2 priority + C1 dependency gating + C4 per-worker queues + C3
    concurrent workers, composed as admission -> partition -> gated drain.

    A transaction is endorsed when its worker orders it, so it commits
    with no stamp.
    """

    def __init__(
        self,
        engine: Engine,
        channel_state: ChannelState,
        policy: OrderingPolicy,
        peer_id: str | None = None,
        withheld_worker: int | None = None,
        worker_nodes: list[NodeConfig] | None = None,
    ):
        self.engine = engine
        self.state = channel_state
        self.policy = policy
        self.peer_id = peer_id
        self.withheld_worker = withheld_worker
        n = policy.workers
        cap = policy.per_queue_capacity
        self.queues = [OrdererQueue(owner=f"worker{i}", capacity=cap) for i in range(n)]
        # The fixed delay of each worker with a node; the workers past
        # ``worker_nodes`` share the default latency.
        self._delays = [
            _fixed_delay(engine.topology, node, peer_id)
            for node in (worker_nodes or [])[:n]
        ]
        self.groups = FootprintGroups(n)
        self._busy = [False] * n
        # Workers whose last gate pass stalled: with the withheld worker,
        # these are the only idle workers that can hold pending work.
        self._stalled: set[int] = set()
        self.peak_pool = 0  # most transactions pending across all queues
        self._total_live = 0
        self._in_flight: dict[str, Transaction] = {}
        self._defer_counts: dict[str, int] = {}
        self._retry_scheduled = [False] * n
        in_flight = self._in_flight.values()  # a live view
        self._gates = [
            gate(q, channel_state, self._defer_counts, policy.defer_limit, in_flight)
            for q in self.queues
        ]

    @property
    def peak_queue(self) -> int:
        return max(q.peak_occupancy for q in self.queues)

    def _waiting(self, tx_id: str) -> bool:
        """Whether the admitted ``tx_id`` still waits in its group's queue:
        it is neither in flight nor terminal."""
        return not (tx_id in self._in_flight or tx_id in self.state.statuses)

    def _relocate(self, source: _Group, dest: _Group) -> None:
        # Move only the source group's still-pending members; other groups
        # sharing the queue stay put.
        src_q = self.queues[source.queue_index]
        moved = [tx for tx in source.members if self._waiting(tx.id)]
        for tx in moved:
            src_q.discard(tx.id)
        dest.members.extend(moved)
        if source.queue_index == dest.queue_index:
            for tx in moved:  # same queue: nothing to re-route
                src_q.append(tx)
            return
        dst_q = self.queues[dest.queue_index]
        for tx in moved:
            dst_q.append(tx)
        if moved:
            self._wake(dest.queue_index)

    # admission (C2 + C4)

    def admit(self, tx: Transaction) -> SubmitOutcome:
        groups = self.groups
        placed = groups.placed
        if tx.id in placed:
            return _DUPLICATE
        group = groups.settled(tx)
        if group is not None:
            # Its footprint sits in one group already: nothing to join.
            index = group.queue_index
            queue = self.queues[index]
            if queue.pending >= queue.capacity:
                return _MEMPOOL_FULL
        else:
            # Check the landing queue, the oldest touched group's, before
            # joining, so a rejection leaves no trace: it must hold the
            # transaction plus every pending member a bridge would pull in
            # from other queues.
            touched = groups.touched(tx)
            incoming = 1
            if touched:
                index = min(touched, key=_seq).queue_index
                for other in touched:
                    if other.queue_index != index:
                        incoming += sum(self._waiting(tx.id) for tx in other.members)
            else:
                index = groups.next_queue % groups.n
            queue = self.queues[index]
            if queue.pending + incoming > queue.capacity:
                return _MEMPOOL_FULL
            group, merged = groups.join(tx, touched)
            for younger, older in merged:
                self._relocate(younger, older)
        placed[tx.id] = group
        queue.append(tx)
        group.members.append(tx)
        self._total_live += 1
        if self._total_live > self.peak_pool:
            self.peak_pool = self._total_live
        self._wake(index)
        return _ACCEPTED

    def discard(self, tx_id: str) -> bool:
        group = self.groups.placed.get(tx_id)
        if group is None or not self._waiting(tx_id):
            return False
        self.queues[group.live().queue_index].discard(tx_id)
        self._total_live -= 1
        return True

    # drain (C1 + C3)

    def _wake(self, index: int) -> None:
        if self._busy[index] or index == self.withheld_worker:
            return
        queue = self.queues[index]
        pending = queue.pending
        tx = next(self._gates[index])
        self._total_live -= pending - queue.pending
        if tx is STALLED:
            self._stalled.add(index)
            self._ensure_retry(index)
        else:
            self._stalled.discard(index)
            if tx is not None:
                self._dispatch(index, tx)

    def _ensure_retry(self, index: int) -> None:
        # Whole queue deferred: if nothing is in flight anywhere there is no
        # commit event coming to wake us, so poll until defer_limit resolves
        # the stall (cyclic dependencies time out this way).
        if self._in_flight or self._retry_scheduled[index]:
            return
        self._retry_scheduled[index] = True
        self.engine.schedule_call(self.engine.now + RETRY_TICK, self._on_retry, index)

    def _on_retry(self, engine: Engine, index: int) -> None:
        self._retry_scheduled[index] = False
        if self.queues[index].pending:
            self._wake(index)

    def _dispatch(self, index: int, tx: Transaction) -> None:
        self._busy[index] = True
        self._in_flight[tx.id] = tx
        engine = self.engine
        lo, hi = self.policy.jitter
        delay = lo if hi <= lo else lo + int(engine.rng.random() * (hi - lo + 1))
        fixed = self._delays
        delay += fixed[index] if index < len(fixed) else engine.topology.default_latency
        engine.schedule_call(engine.now + delay, self._on_commit, (index, tx))

    def _on_commit(self, engine: Engine, payload) -> None:
        index, tx = payload
        self._in_flight.pop(tx.id, None)
        self._busy[index] = False
        # Endorsed at ordering time: dependencies were gated, so the
        # transaction executes against the state it was waiting for.
        self.state.finalize(tx)
        self._wake(index)
        # A commit can unblock deferred transactions in other queues.  Waking
        # one worker changes no other worker's queue or stall.
        if self._stalled:
            queues = self.queues
            for i in sorted(self._stalled):
                if i != index and queues[i].pending:
                    self._wake(i)
