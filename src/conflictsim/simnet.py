"""Deterministic discrete-event engine with a logical millisecond clock.

Events fire in (fire_at, seq) order, where seq is the insertion counter, so
equal-time events resolve in schedule order and a whole run is a pure
function of (scenario, seed).  "Races" between orderers come from seeded
jitter delays, not from wall-clock nondeterminism.

Most events are scheduled one at a time onto a heap.  A batch of events
all known at once, such as a trial's conflicting batch, can instead be
handed over as one list with a fire-time rule (``schedule_sorted``): each
element fires at its key plus one constant delay, so the caller builds no
per-event tuple.  The list must be sorted by that key.  It stays outside
the heap, takes the block of seqs the same back-to-back ``schedule_call``s
would have taken, and ``run_until`` merges its head with the heap's, so the
(fire_at, seq) order covers both and is exactly the order those calls
would give.

An event carries only what fires it: a callback and its payload.  The
callbacks are bound to the run and its services, which hold the engine, so
a run that ends calls ``drop_pending`` to let go of the events left past
its deadline and leaves no reference cycle through the engine.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import TimeInPastError, UnknownNodeError

SimTime = int
ROLES = ("client", "orderer", "peer")


@dataclass
class NodeConfig:
    id: str
    role: str = "peer"  # one of ROLES
    channels: frozenset[str] = frozenset(("main",))
    is_adversary: bool = False
    # Fixed per-cycle processing cost added on top of drawn jitter.
    processing_delay: SimTime = 0
    # Latency override for the node's submissions and for every hop out of
    # it that no link sets, orderer-to-peer commits included (falls back to
    # the topology default when None).
    latency: SimTime | None = None


@dataclass
class Topology:
    nodes: list[NodeConfig] = field(default_factory=list)
    links: dict[tuple[str, str], SimTime] = field(default_factory=dict)
    default_latency: SimTime = 5

    def __post_init__(self):
        self._by_id = {n.id: n for n in self.nodes}

    def node(self, node_id: str) -> NodeConfig:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._by_id

    def latency(self, src: str, dst: str) -> SimTime:
        link = self.links.get((src, dst))
        if link is None:
            link = self.links.get((dst, src))
        if link is not None:
            return link
        src_node = self._by_id.get(src)
        if src_node is not None and src_node.latency is not None:
            return src_node.latency
        return self.default_latency

    def client_latency(self, node_id: str) -> SimTime:
        """Submission latency from a client: the node's own override, else
        the default (also for a name the topology does not list)."""
        node = self._by_id.get(node_id)
        if node is not None and node.latency is not None:
            return node.latency
        return self.default_latency

    def orderers(self, channel: str) -> list[NodeConfig]:
        return [
            n for n in self.nodes if n.role == "orderer" and channel in n.channels
        ]

    def validate(self) -> None:
        seen: set[str] = set()
        for node in self.nodes:
            if not node.id:
                raise ValueError("node id must be non-empty")
            if node.id in seen:
                raise ValueError(f"duplicate node id {node.id}")
            seen.add(node.id)
            if node.role not in ROLES:
                raise ValueError(
                    f"node {node.id} role must be one of {', '.join(ROLES)}, "
                    f"not {node.role!r}"
                )
            if node.latency is not None and node.latency < 0:
                raise ValueError(f"node {node.id} latency must be >= 0")
        for (a, b), delay in self.links.items():
            if delay <= 0:
                raise ValueError(f"link {a}->{b} latency must be positive")
        if self.default_latency <= 0:
            raise ValueError("default latency must be positive")


class Engine:
    """Single-threaded event loop. One instance per trial.

    Events fire in (fire_at, seq) order, whether they sit on the heap or in
    the sorted run (see the module docstring).  At most one sorted run is
    pending at a time.
    """

    def __init__(self, seed: int = 0, topology: Topology | None = None):
        self.now: SimTime = 0
        self.rng = random.Random(seed)
        self.topology = topology or Topology()
        self._heap: list[tuple[SimTime, int, Callable, Any]] = []
        self._seq = 0
        # The sorted run: its events, the next one to fire, the seq before
        # its first, the callback that fires each and its fire-time rule.
        self._run: list = []
        self._run_pos = 0
        self._run_seq = 0
        self._run_fn: Callable | None = None
        self._run_key: Callable | None = None
        self._run_delay: SimTime = 0
        self.last_event_time: SimTime = 0

    # -- scheduling -------------------------------------------------------

    def schedule_call(
        self, fire_at: SimTime, fn: Callable[["Engine", Any], None],
        payload: Any = None,
    ) -> None:
        if fire_at < self.now:
            raise TimeInPastError(f"cannot schedule at {fire_at}, now is {self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (fire_at, self._seq, fn, payload))

    def schedule_sorted(
        self, fn: Callable[["Engine", Any], None], events: list,
        key: Callable[[Any], SimTime], delay: SimTime = 0,
    ) -> None:
        """Schedule ``fn(engine, event)`` for each event, at
        ``key(event) + delay``.

        ``events`` must be sorted by ``key``; the engine keeps the list and
        the caller must not change it.  The events fire exactly as
        ``schedule_call(key(event) + delay, fn, event)`` for each of them in
        order would fire them.  Raises ``TimeInPastError`` if the first
        fires before now and ``RuntimeError`` while an earlier run is
        pending.
        """
        if not events:
            return
        if self._run:  # a spent run is cleared as it ends
            raise RuntimeError("a sorted run is still pending")
        first = key(events[0]) + delay
        if first < self.now:
            raise TimeInPastError(f"cannot schedule at {first}, now is {self.now}")
        self._run = events
        self._run_pos = 0
        self._run_seq = self._seq
        self._run_fn = fn
        self._run_key = key
        self._run_delay = delay
        self._seq += len(events)

    # -- execution --------------------------------------------------------

    def run_until(self, deadline: SimTime) -> SimTime:
        if deadline < self.now:
            raise TimeInPastError(f"deadline {deadline} is before now {self.now}")
        heap = self._heap
        heappop = heapq.heappop
        run = self._run
        pos = self._run_pos
        if run:
            fn_run = self._run_fn
            key, delay = self._run_key, self._run_delay
            seq = self._run_seq  # seq of run[pos] is seq + pos + 1
            n = len(run)
            while pos < n:
                event = run[pos]
                at = key(event) + delay
                if at > deadline:
                    break
                # Heap events ahead of run[pos] by (fire_at, seq) fire first.
                while heap:
                    fire_at = heap[0][0]
                    if fire_at > at or (fire_at == at and heap[0][1] > seq + pos):
                        break
                    fire_at, _seq, fn, payload = heappop(heap)
                    self.now = fire_at
                    self.last_event_time = fire_at
                    fn(self, payload)
                pos += 1
                self._run_pos = pos
                self.now = at
                self.last_event_time = at
                fn_run(self, event)
            if pos == n:
                self._clear_run()
        while heap and heap[0][0] <= deadline:
            fire_at, _seq, fn, payload = heappop(heap)
            self.now = fire_at
            self.last_event_time = fire_at
            fn(self, payload)
        self.now = deadline
        return self.now

    def pending_events(self) -> int:
        """Events not yet fired, on the heap and in the sorted run."""
        return len(self._heap) + len(self._run) - self._run_pos

    def drop_pending(self) -> None:
        """Forget every event not yet fired, the sorted run's included.
        Call it between ``run_until`` calls, not from a callback."""
        self._heap.clear()
        self._clear_run()

    def _clear_run(self) -> None:
        self._run = []
        self._run_pos = 0
        self._run_fn = None
        self._run_key = None
