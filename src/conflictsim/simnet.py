"""Deterministic discrete-event engine with a logical millisecond clock.

Events fire in (fire_at, seq) order, where seq is the insertion counter, so
equal-time events resolve in schedule order and a whole run is a pure
function of (scenario, seed).  "Races" between orderers come from seeded
jitter delays, not from wall-clock nondeterminism.

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


@dataclass
class NodeConfig:
    id: str
    role: str = "peer"  # client | peer | orderer
    channels: frozenset[str] = frozenset(("main",))
    is_adversary: bool = False
    # Fixed per-cycle processing cost added on top of drawn jitter.
    processing_delay: SimTime = 0
    # Client-to-service submission latency override (falls back to topology
    # default when None).
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
        for (a, b), delay in self.links.items():
            if delay <= 0:
                raise ValueError(f"link {a}->{b} latency must be positive")
        if self.default_latency <= 0:
            raise ValueError("default latency must be positive")


class Engine:
    """Single-threaded event loop. One instance per trial."""

    def __init__(self, seed: int = 0, topology: Topology | None = None):
        self.now: SimTime = 0
        self.rng = random.Random(seed)
        self.topology = topology or Topology()
        self._heap: list[tuple[SimTime, int, Callable, Any]] = []
        self._seq = 0
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

    # -- execution --------------------------------------------------------

    def run_until(self, deadline: SimTime) -> SimTime:
        if deadline < self.now:
            raise TimeInPastError(f"deadline {deadline} is before now {self.now}")
        heap = self._heap
        while heap and heap[0][0] <= deadline:
            fire_at, _seq, fn, payload = heapq.heappop(heap)
            self.now = fire_at
            self.last_event_time = fire_at
            fn(self, payload)
        self.now = deadline
        return self.now

    def pending_events(self) -> int:
        return len(self._heap)

    def drop_pending(self) -> None:
        """Forget every event not yet fired."""
        self._heap.clear()
