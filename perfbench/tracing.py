"""Layer-attributed tracing from outside the simulator.

Wrappers are installed by rebinding names in the namespace the caller looks
them up in (for example ``attacks.generate_conflicting_set`` or
``harness.partition``), so ``src/`` stays as it is.  Each wrapper records a
span (name, start, end, parent, pair id) in memory; a layer's self time is
its spans' durations minus the part their child spans cover.  A target that
no longer exists is skipped, and every metric that needs it is reported
absent instead of failing the run.

Spans are recorded from the main thread only.  The thread bench's worker
threads touch only the timed commit lock, which keeps its own totals.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable


class TimedLock:
    """Commit lock that sums how long it is held (the commit section)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.held = 0.0
        self.acquires = 0
        self._since = 0.0

    def __enter__(self):
        self._lock.acquire()
        self._since = time.perf_counter()
        return self

    def __exit__(self, *exc):
        # Totals are updated while the lock is still held, so no other
        # worker can interleave.
        self.held += time.perf_counter() - self._since
        self.acquires += 1
        self._lock.release()


class Tracer:
    """In-memory span store with per-pair counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.parent = array("i")
        self.pair = array("I")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.pair_id = 0
        self.pair_tags: list[str] = [""]
        self.counts: Counter = Counter()
        self.locks: list[tuple[int, TimedLock]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_col.append(nid)
        self.parent.append(self.stack[-1])
        self.pair.append(self.pair_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    @contextmanager
    def root(self, name: str, tag: str):
        """Span around one operation (a paired trial or a bench rep); its
        self time is the unattributed remainder."""
        self.pair_id += 1
        self.pair_tags.append(tag)
        self.counts.clear()
        idx = self._open(self.name_id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self.stack.pop()

    def span(self, fn, name, after=None):
        """Wrap ``fn`` in a span.  ``name`` is a string or a function of the
        call's (args, kwargs); ``after`` sees the counters and the result."""
        fixed = self.name_id(name) if isinstance(name, str) else None
        open_span, start, end, stack = self._open, self.start, self.end, self.stack
        counts, clock = self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args, kwargs))
            idx = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def counter(self, fn, after):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(counts, args, result)
            return result

        return wrapper

    def timed_lock(self) -> TimedLock:
        lock = TimedLock()
        self.locks.append((self.stack[-1], lock))
        return lock

    def span_name(self, idx: int) -> str:
        return self.names[self.name_col[idx]]

    def totals(self) -> tuple[dict, dict]:
        """Self and inclusive seconds per (pair tag, span name)."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        self_t: Counter = Counter()
        incl: Counter = Counter()
        names, tags, name_col, pair = self.names, self.pair_tags, self.name_col, self.pair
        for i in range(n):
            key = (tags[pair[i]], names[name_col[i]])
            dur = end[i] - start[i]
            incl[key] += dur
            self_t[key] += dur - covered[i]
        return self_t, incl

    def write(self, prefix: Path) -> None:
        """Write the spans as raw columns plus a JSON header that names them."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        columns = {}
        for col in ("name_col", "parent", "pair", "start", "end"):
            arr = getattr(self, col)
            path = prefix.with_name(f"{prefix.name}.{col}.bin")
            with open(path, "wb") as fh:
                arr.tofile(fh)
            columns[col] = {"file": path.name, "typecode": arr.typecode,
                            "itemsize": arr.itemsize}
        header = {"spans": len(self.start), "names": self.names,
                  "pair_tags": self.pair_tags, "columns": columns}
        with open(prefix.with_name(f"{prefix.name}.json"), "w") as fh:
            json.dump(header, fh, indent=1)


# -- wrapper targets ------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """A name to rebind: ``owner`` is a dotted path under ``conflictsim``
    (a module, or a class or module object reached from one), ``attr`` the
    attribute.  ``span`` names the span, ``after`` counts on each call, and
    ``replace`` builds a stand-in object instead of a wrapper."""

    owner: str
    attr: str
    span: str | Callable | None = None
    after: Callable | None = None
    replace: Callable | None = None


def _resolve(dotted: str):
    module, *rest = dotted.split(".")
    try:
        obj = importlib.import_module(f"conflictsim.{module}")
    except ImportError:
        return None
    for part in rest:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


@contextmanager
def installed(tracer: Tracer, targets):
    """Install every target that still exists; yield the set of span names
    and counter keys whose targets are missing.  Restores all on exit."""
    saved = []
    missing: set[str] = set()
    try:
        for t in targets:
            owner = _resolve(t.owner)
            original = getattr(owner, t.attr, None) if owner is not None else None
            if original is None:
                missing.add(t.span if isinstance(t.span, str) else f"{t.owner}.{t.attr}")
                continue
            if t.replace is not None:
                stand_in = t.replace(tracer, original)
            elif t.span is not None:
                stand_in = tracer.span(original, t.span, t.after)
            else:
                stand_in = tracer.counter(original, t.after)
            own = t.attr in vars(owner)
            saved.append((owner, t.attr, original, own))
            setattr(owner, t.attr, stand_in)
        yield missing
    finally:
        for owner, attr, original, own in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _value(result) -> object:
    return getattr(result, "value", result)


def _planned(counts, args, result):
    counts["planned"] += 1


def _admitted(mode: str):
    def after(counts, args, result):
        counts[f"admit.{mode}"] += 1
        if _value(result) == "accepted":
            counts[f"accepted.{mode}"] += 1
    return after


def _dispatched(counts, args, result):
    pending = getattr(args[0], "pending_events", None)
    if pending is not None:
        counts["pending"] += pending()


def _scheduled(counts, args, result):
    counts["scheduled"] += 1


def _finalized(counts, args, result):
    counts["finalize"] += 1
    if _value(result) == "committed":
        counts["finalize_committed"] += 1


SWEEP_TARGETS = (
    Target("attacks", "generate_conflicting_set", "workload.generate"),
    Target("attacks", "clone_tx", "attacks.clone"),
    Target("harness", "run_attack", "attacks.run"),
    Target("attacks.SimulationRun", "submit", "attacks.plan", _planned),
    Target("attacks.SimulationRun", "_flush_submissions", "attacks.plan"),
    Target("attacks.SimulationRun", "_on_arrivals", "attacks.arrival"),
    Target("attacks.SimulationRun", "collect", "attacks.collect"),
    Target("ordering.BaselineOrderingService", "admit",
           "ordering.admit.baseline", _admitted("baseline")),
    Target("ordering.PipelineOrderingService", "admit",
           "ordering.admit.countermeasures", _admitted("countermeasures")),
    Target("ordering.BaselineOrderingService", "_on_commit", "ordering.commit"),
    Target("ordering.PipelineOrderingService", "_on_commit", "ordering.commit"),
    Target("attacks", "stamp_read_versions", "core.stamp"),
    Target("ordering", "stamp_read_versions", "core.stamp"),
    Target("attacks", "apply_transaction", "core.apply"),
    Target("ordering", "apply_transaction", "core.apply"),
    Target("simnet.Engine", "run_until", "simnet.dispatch", _dispatched),
    Target("simnet.Engine", "schedule_call", after=_scheduled),
    Target("ordering.ChannelState", "finalize", after=_finalized),
    Target("harness.gc", "collect", "harness.gc"),
)


def _bench_pipeline_name(args, kwargs) -> str:
    parallel = kwargs.get("parallel", args[4] if len(args) > 4 else True)
    return "harness.bench.pipeline" if parallel else "harness.bench.reference"


def _threading_with_timed_lock(tracer: Tracer, module):
    return SimpleNamespace(Lock=tracer.timed_lock, Thread=module.Thread)


THREADS_TARGETS = (
    Target("harness", "generate_bench_workload", "workload.generate_bench"),
    Target("harness", "_bench_baseline", "harness.bench.baseline"),
    Target("harness", "_bench_pipeline", _bench_pipeline_name),
    Target("harness", "partition", "ordering.partition"),
    Target("harness", "threading", "harness.bench.lock",
           replace=_threading_with_timed_lock),
)
