"""Event engine: ordering discipline, determinism, delivery latency."""

import pytest

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
