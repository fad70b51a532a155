"""Event engine: ordering discipline, determinism, delivery latency."""

from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conflictsim.errors import TimeInPastError, UnknownNodeError
from conflictsim.simnet import Engine, NodeConfig, Topology


def small_topology():
    return Topology(
        nodes=[
            NodeConfig("a", role="client"),
            NodeConfig("b", role="orderer"),
            NodeConfig("c", role="peer"),
        ],
        links={("a", "b"): 7},
        default_latency=5,
    )


def logged(log, kind, target, fn=None):
    """An event callback that records (now, kind, target) as it fires, then
    runs ``fn``."""

    def fire(eng, payload):
        log.append((eng.now, kind, target))
        if fn is not None:
            fn(eng, payload)

    return fire


def test_schedule_and_fire_in_time_order():
    eng = Engine(seed=1)
    fired = []
    eng.schedule_call(5, lambda e, p: fired.append(p), "x")
    eng.schedule_call(3, lambda e, p: fired.append(p), "y")
    eng.run_until(10)
    assert fired == ["y", "x"]
    assert eng.now == 10


def test_schedule_in_past_rejected():
    eng = Engine(seed=1)
    eng.schedule_call(3, lambda e, p: None)
    eng.run_until(3)
    with pytest.raises(TimeInPastError):
        eng.schedule_call(2, lambda e, p: None)


def test_equal_time_events_fire_in_schedule_order():
    eng = Engine(seed=1)
    fired = []
    for tag in ("first", "second", "third"):
        eng.schedule_call(5, lambda e, p: fired.append(p), tag)
    eng.run_until(5)
    assert fired == ["first", "second", "third"]


# An event's subtree: the (delay, subtree) of each event it schedules as it
# fires, at ``now + delay`` (a delay of 0 schedules at now).
subtrees = st.recursive(
    st.just(()),
    lambda children: st.lists(st.tuples(st.integers(0, 2), children),
                              max_size=3).map(tuple),
    max_leaves=6,
)
timed = st.lists(st.tuples(st.integers(0, 6), subtrees), max_size=6)


def spawning(log):
    """An event callback for ``(label, subtree)`` payloads: it records
    ``(now, label)`` and schedules its subtree's events."""

    def fire(eng, payload):
        label, subtree = payload
        log.append((eng.now, label))
        for i, (delay, child) in enumerate(subtree):
            eng.schedule_call(eng.now + delay, fire, (f"{label}.{i}", child))

    return fire


def arriving(log):
    """A sorted-run callback for ``(time, label, subtree)`` events."""
    fire = spawning(log)
    return lambda eng, event: fire(eng, event[1:])


@given(pre=timed, start=st.integers(0, 4), run=timed, post=timed,
       deadlines=st.lists(st.integers(0, 14), max_size=6).map(sorted))
def test_sorted_run_fires_as_back_to_back_schedule_calls(
        pre, start, run, post, deadlines):
    # Heap events scheduled before the run (some fired before it is handed
    # over), the run with equal-time ties, heap events scheduled after it,
    # and callbacks that schedule more, some at now: the engine given the
    # run, each event firing at its time plus ``start``, fires exactly as
    # one given a schedule_call per run event.
    arrivals = sorted(
        ((t, f"run{i}", subtree) for i, (t, subtree) in enumerate(run)),
        key=itemgetter(0),
    )

    def drive(streamed: bool):
        eng, log = Engine(seed=0), []
        fire, arrive = spawning(log), arriving(log)
        for i, (t, subtree) in enumerate(pre):
            eng.schedule_call(t, fire, (f"pre{i}", subtree))
        eng.run_until(start)
        if streamed:
            eng.schedule_sorted(arrive, list(arrivals), itemgetter(0), start)
        else:
            for event in arrivals:
                eng.schedule_call(event[0] + start, arrive, event)
        for i, (t, subtree) in enumerate(post):
            eng.schedule_call(start + t, fire, (f"post{i}", subtree))
        states = [(eng.now, eng.pending_events(), list(log))]
        for deadline in deadlines + [100]:
            if deadline >= eng.now:
                eng.run_until(deadline)
                states.append((eng.now, eng.pending_events(), list(log)))
        return states, eng.last_event_time

    assert drive(streamed=True) == drive(streamed=False)


def test_pending_events_and_drop_pending_cover_the_sorted_run():
    eng, log = Engine(seed=0), []
    arrive = arriving(log)
    eng.schedule_call(2, spawning(log), ("heap", ()))
    eng.schedule_sorted(arrive, [(1, "a", ()), (3, "b", ()), (3, "c", ()),
                                 (5, "d", ())], itemgetter(0))
    assert eng.pending_events() == 5
    eng.run_until(3)
    assert eng.pending_events() == 1
    eng.drop_pending()
    assert eng.pending_events() == 0
    eng.run_until(10)
    assert log == [(1, "a"), (2, "heap"), (3, "b"), (3, "c")]
    # A dropped run is gone: another can be handed over.
    eng.schedule_sorted(arrive, [(10, "e", ())], itemgetter(0))
    eng.run_until(10)
    assert log[-1] == (10, "e")


def test_sorted_run_before_now_rejected():
    eng = Engine(seed=1)
    eng.run_until(5)
    with pytest.raises(TimeInPastError):
        eng.schedule_sorted(lambda e, p: None, [(4, "x"), (6, "y")],
                            itemgetter(0))
    with pytest.raises(TimeInPastError):  # the delay counts
        eng.schedule_sorted(lambda e, p: None, [(0, "x")], itemgetter(0), 4)
    assert eng.pending_events() == 0


def test_second_sorted_run_rejected_while_one_is_pending():
    eng, log = Engine(seed=1), []
    arrive = arriving(log)
    eng.schedule_sorted(arrive, [(1, "a", ()), (4, "b", ())], itemgetter(0))
    eng.run_until(2)
    with pytest.raises(RuntimeError):
        eng.schedule_sorted(arrive, [(3, "c", ())], itemgetter(0))
    eng.run_until(4)
    eng.schedule_sorted(arrive, [(6, "d", ())], itemgetter(0))  # the first is spent
    eng.run_until(6)
    assert log == [(1, "a"), (4, "b"), (6, "d")]


def test_empty_queue_returns_deadline():
    eng = Engine(seed=1)
    assert eng.run_until(100) == 100


def deliver(eng, src, dst, fn, payload=None):
    """Schedule ``fn`` at ``dst`` after the src->dst latency, the way the
    ordering services schedule their commits."""
    topo = eng.topology
    topo.node(src)
    topo.node(dst)
    at = eng.now + topo.latency(src, dst)
    eng.schedule_call(at, fn, payload)
    return at


def test_send_uses_link_latency():
    topo = small_topology()
    assert topo.latency("a", "b") == topo.latency("b", "a") == 7
    assert topo.latency("a", "c") == 5  # no link: default latency
    eng = Engine(seed=1, topology=topo)
    fired = []
    eng.schedule_call(10, lambda e, p: deliver(e, "a", "b",
                                               lambda e2, p2: fired.append(e2.now)))
    eng.run_until(50)
    assert fired == [17]


def test_broadcast_distinct_latencies():
    topo = Topology(
        nodes=[NodeConfig("src"), NodeConfig("p1"), NodeConfig("p2"),
               NodeConfig("p3")],
        links={("src", "p1"): 3, ("src", "p2"): 8, ("src", "p3"): 11},
    )
    eng = Engine(seed=1, topology=topo)
    log = []
    for peer in ("p1", "p2", "p3"):
        deliver(eng, "src", peer, logged(log, "commit", peer))
    eng.run_until(20)
    assert log == [(3, "commit", "p1"), (8, "commit", "p2"), (11, "commit", "p3")]


def test_send_unknown_node():
    topo = small_topology()
    assert topo.node("a").role == "client"
    with pytest.raises(UnknownNodeError):
        topo.node("zz")


def test_trace_is_pure_function_of_seed():
    def run(seed):
        eng = Engine(seed=seed, topology=small_topology())
        trace = []

        def ping(e, depth):
            if depth < 30:
                delay = e.rng.randint(1, 9)
                e.schedule_call(e.now + delay,
                                logged(trace, "order-tick", "b", ping), depth + 1)

        eng.schedule_call(0, logged(trace, "order-tick", "a", ping), 0)
        eng.run_until(10_000)
        return trace

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_no_lost_events_and_causality():
    eng = Engine(seed=3, topology=small_topology())
    sent, log = [], []

    def chain(e, n):
        if n < 25:
            sent.append(e.now)
            deliver(e, "a", "b", logged(log, "commit", "b", chain), n + 1)

    eng.schedule_call(0, chain, 0)
    eng.run_until(1000)
    delivers = [t for t, _kind, _target in log]
    assert len(delivers) == len(sent)  # exactly once each
    for send_time, deliver_time in zip(sent, delivers):
        assert deliver_time > send_time  # never before its send


def test_submit_window_spread_stays_within_window():
    # 100 submissions over a 10000-unit window land inside the window.
    from conflictsim.workload import ConflictSpec, generate_conflicting_set

    spec = ConflictSpec(wallets=("A1", "V1", "V2"), count=100, window=10_000,
                        seed=9)
    txs = generate_conflicting_set(spec)
    assert all(0 <= tx.submit_time <= 10_000 for tx in txs)
    assert max(tx.submit_time for tx in txs) <= 10_000


def test_topology_validation():
    topo = Topology(nodes=[NodeConfig("a"), NodeConfig("a")])
    with pytest.raises(ValueError):
        topo.validate()
    topo = Topology(nodes=[NodeConfig("a")], links={("a", "a"): 0})
    with pytest.raises(ValueError):
        topo.validate()


def test_client_latency_is_the_node_override_or_the_default():
    topo = Topology(
        nodes=[NodeConfig("slow", role="client", latency=9), NodeConfig("c")],
        links={("c", "slow"): 2}, default_latency=4,
    )
    assert topo.client_latency("slow") == 9
    assert topo.client_latency("c") == 4
    assert topo.client_latency("absent") == 4
