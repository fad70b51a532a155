"""Ledger semantics: conflict detection, validation, commit, conservation."""

import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conflictsim.core import (
    MAX_TOKENS,
    LedgerState,
    Query,
    Transaction,
    Transfer,
    TxStatus,
    apply_transaction,
    conflicts_with,
    query_tx,
    stamp_read_versions,
    total_supply,
    transfer_tx,
)
from conflictsim.errors import (
    SimulatorError,
    TokenOverflowError,
    UnknownWalletError,
)
from conflictsim.ordering import ChannelState


def fresh_state(**balances):
    return LedgerState.from_balances(balances or {"A1": 1000, "V1": 1000, "V2": 1000})


def finalize_all(channel: ChannelState, txs, stamps) -> list[TxStatus]:
    """Commit ``txs`` in order through the channel's commit path, each with
    its read stamp in ``stamps`` (by id)."""
    return [channel.finalize(tx, stamps[tx.id]) for tx in txs]


# -- conflicts_with -----------------------------------------------------------


def test_write_write_overlap_conflicts():
    a = transfer_tx("a", "V1", "V2", 5)
    b = transfer_tx("b", "V1", "A1", 5)
    assert conflicts_with(a, b)
    assert conflicts_with(b, a)


def test_read_write_overlap_conflicts():
    a = query_tx("a", ("V1",))
    b = transfer_tx("b", "V1", "V2", 5)
    assert conflicts_with(a, b)
    assert conflicts_with(b, a)


def test_read_read_is_not_a_conflict():
    a = query_tx("a", ("V1",))
    b = query_tx("b", ("V1",))
    assert not conflicts_with(a, b)


def test_no_self_conflict_by_id():
    a = transfer_tx("a", "V1", "V2", 5)
    twin = transfer_tx("a", "V1", "V2", 5)
    assert not conflicts_with(a, twin)


# -- apply_transaction ---------------------------------------------------------


def test_simple_transfer_commits():
    state = fresh_state(V1=1000, V2=1000)
    status = apply_transaction(state, transfer_tx("t", "V1", "V2", 15))
    assert status is TxStatus.COMMITTED
    assert state.balances == {"V1": 985, "V2": 1015}
    assert state.versions == {"V1": 1, "V2": 1}


def test_stale_read_version_fails_without_side_effects():
    state = fresh_state(V1=1000, V2=1000)
    stale = transfer_tx("t", "V1", "V2", 15)
    before = state.copy()
    status = apply_transaction(state, stale, {"V1": 3, "V2": 0})
    assert status is TxStatus.CONFLICT_FAILED
    assert state == before


def test_insufficient_funds_fails_without_side_effects():
    state = fresh_state(V1=1000, V2=1000)
    before = state.copy()
    status = apply_transaction(state, transfer_tx("t", "V1", "V2", 1001))
    assert status is TxStatus.INSUFFICIENT_FUNDS
    assert state == before


def test_read_only_query_always_commits():
    state = fresh_state(V1=1000, V2=1000)
    q = query_tx("q", ("V1",))
    # A stale stamp must not matter for pure reads.
    status = apply_transaction(state, q, {"V1": 99})
    assert status is TxStatus.COMMITTED
    assert state == fresh_state(V1=1000, V2=1000)


def test_unknown_wallet_raises():
    state = fresh_state(V1=1000, V2=1000)
    with pytest.raises(UnknownWalletError):
        apply_transaction(state, transfer_tx("t", "V1", "Z9", 5))


def test_overflow_is_an_error_not_a_wrap():
    state = LedgerState.from_balances({"A": 10, "B": MAX_TOKENS - 3})
    with pytest.raises(TokenOverflowError):
        apply_transaction(state, transfer_tx("t", "A", "B", 5))


POOL = ("w0", "w1", "w2", "w3")


@st.composite
def ledgers(draw):
    """A ledger over some of ``POOL`` (possibly none), with balances at the
    bottom of the amount domain or at its top, and arbitrary versions."""
    wallets = draw(st.lists(st.sampled_from(POOL), unique=True))
    amounts = st.one_of(st.integers(0, 30), st.integers(MAX_TOKENS - 30, MAX_TOKENS))
    state = LedgerState.from_balances({w: draw(amounts) for w in wallets})
    for wallet in wallets:
        state.versions[wallet] = draw(st.integers(0, 3))
    return state


@st.composite
def pool_txs(draw):
    """A query or a transfer over ``POOL``; a transfer may leave its
    destination unread and read extra wallets."""
    extra = tuple(draw(st.lists(st.sampled_from(POOL), max_size=2)))
    if draw(st.booleans()):
        wallets = tuple(draw(st.lists(st.sampled_from(POOL), min_size=1,
                                      max_size=2, unique=True)))
        return query_tx("q", wallets)
    src, dst = draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=2,
                             unique=True))
    reads = ((src, dst) if draw(st.booleans()) else (src,)) + extra
    return Transaction("t", Transfer(src, dst, draw(st.integers(1, 40))),
                       reads=reads)


def _outcome(state, tx, stamped):
    try:
        stamp = stamp_read_versions(tx, state) if stamped else None
        return apply_transaction(state, tx, stamp)
    except SimulatorError as exc:
        return type(exc)


@given(ledgers(), pool_txs())
@example(LedgerState.from_balances({"w0": 5}), transfer_tx("t", "w0", "w1", 1))
@example(  # unknown transfer wallet: the destination is not read
    LedgerState.from_balances({"w0": 5}),
    Transaction("t", Transfer("w0", "w1", 1), reads=("w0",)),
)
@example(LedgerState.from_balances({"w0": 5, "w1": 0}),
         transfer_tx("t", "w0", "w1", 6))
@example(LedgerState.from_balances({"w0": 5, "w1": MAX_TOKENS}),
         transfer_tx("t", "w0", "w1", 1))
def test_no_stamp_is_a_stamp_taken_now(state, tx):
    # Applying with no stamp endorses the transaction at that moment, so it
    # must act exactly as applying with a stamp just taken from the ledger:
    # the same status or error type, the same ledger after.
    reads = tx.reads
    unstamped, stamped = state.copy(), state.copy()
    assert _outcome(unstamped, tx, False) == _outcome(stamped, tx, True)
    assert unstamped == stamped
    assert tx.reads == reads


def test_transfer_invariants_enforced_at_construction():
    with pytest.raises(ValueError):
        transfer_tx("t", "V1", "V1", 5)
    with pytest.raises(ValueError):
        transfer_tx("t", "V1", "V2", 0)
    with pytest.raises(ValueError):
        Transaction(id="t", payload=Query(("V1",)), writes=frozenset({"V1"}))
    with pytest.raises(ValueError):
        Transaction(id="", payload=Transfer("a", "b", 1))


def test_reads_are_distinct_wallet_ids_in_declared_order():
    assert query_tx("q", ("A1", "A1")).reads == ("A1",)
    assert query_tx("q", ("B1", "A1", "B1")).reads == ("B1", "A1")
    assert transfer_tx("t", "A1", "B1", 1, extra_reads=("A1", "C1")).reads == (
        "A1", "B1", "C1")
    tx = Transaction("t", Transfer("A1", "B1", 1), reads=("A1", "C1", "A1"))
    assert tx.reads == ("A1", "C1")


# -- channel commit ----------------------------------------------------------------


def test_single_valid_block():
    state = fresh_state(V1=1000, V2=1000)
    channel = ChannelState("main", state)
    assert channel.finalize(transfer_tx("t", "V1", "V2", 5)) is TxStatus.COMMITTED
    assert state.height == 1
    assert state.committed_tx_count == 1


def test_two_spends_of_last_tokens_first_wins():
    # Serial re-execution oracle over both orders: each transfer endorsed
    # against the state it actually executes on, so the loser runs out of
    # funds rather than hitting a stale version.
    for first, second in (("a", "b"), ("b", "a")):
        state = LedgerState.from_balances({"W": 10, "X": 0, "Y": 0})
        txs = {
            "a": transfer_tx("a", "W", "X", 10),
            "b": transfer_tx("b", "W", "Y", 10),
        }
        statuses = []
        for name in (first, second):
            stamp = stamp_read_versions(txs[name], state)
            status = apply_transaction(state, txs[name], stamp)
            statuses.append(status)
        assert statuses == [TxStatus.COMMITTED, TxStatus.INSUFFICIENT_FUNDS]
        assert state.balances["W"] == 0

    # Endorsed at the same snapshot, the loser trips the version check
    # instead.
    state = LedgerState.from_balances({"W": 10, "X": 0, "Y": 0})
    txs = [transfer_tx("a", "W", "X", 10), transfer_tx("b", "W", "Y", 10)]
    stamps = {tx.id: stamp_read_versions(tx, state) for tx in txs}
    statuses = finalize_all(ChannelState("main", state), txs, stamps)
    assert statuses == [TxStatus.COMMITTED, TxStatus.CONFLICT_FAILED]


def test_scripted_conflict_batch_inflates_height_to_105():
    # Five committed transfers, one block each, on top of height 100 / 200
    # transactions.
    state = LedgerState.from_balances(
        {"A1": 1000, "V1": 1000, "V2": 1000}, height=100, tx_count=200
    )
    channel = ChannelState("main", state)
    moves = [
        ("V1", "A1", 5), ("V1", "A1", 5), ("V1", "V2", 5),
        ("A1", "V2", 5), ("V2", "A1", 5),
    ]
    for i, (src, dst, amount) in enumerate(moves):
        tx = transfer_tx(f"w{i}", src, dst, amount)
        stamp = stamp_read_versions(tx, state)
        assert channel.finalize(tx, stamp) is TxStatus.COMMITTED
    assert state.height == 105
    assert state.committed_tx_count == 205
    assert state.balances == {"A1": 1010, "V1": 985, "V2": 1005}


# -- total_supply ------------------------------------------------------------------


def test_total_supply_sums_balances():
    assert total_supply(fresh_state(A1=1000, V1=1000, V2=1000)) == 3000
    assert total_supply(LedgerState.from_balances({})) == 0
    assert total_supply(
        LedgerState.from_balances({"A1": 1010, "V1": 985, "V2": 1005})
    ) == 3000


def test_total_supply_overflow():
    state = LedgerState.from_balances({"A": MAX_TOKENS, "B": MAX_TOKENS})
    with pytest.raises(TokenOverflowError):
        total_supply(state)


# -- properties --------------------------------------------------------------------


def _random_tx(rng, wallets, i):
    if rng.random() < 0.2:
        return query_tx(f"q{i}", (rng.choice(wallets),))
    src, dst = rng.sample(wallets, 2)
    tx = transfer_tx(f"t{i}", src, dst, rng.randint(1, 30))
    return tx


def _serial_oracle(balances, txs, stamps):
    """Independent interpreter: dict arithmetic, no LedgerState involved."""
    bal = dict(balances)
    ver = {w: 0 for w in balances}
    statuses = []
    for tx in txs:
        if isinstance(tx.payload, Query):
            statuses.append(TxStatus.COMMITTED)
            continue
        p = tx.payload
        if any(ver[w] != v for w, v in stamps[tx.id].items()):
            statuses.append(TxStatus.CONFLICT_FAILED)
            continue
        if bal[p.src] < p.amount:
            statuses.append(TxStatus.INSUFFICIENT_FUNDS)
            continue
        bal[p.src] -= p.amount
        bal[p.dst] += p.amount
        for w in (p.src, p.dst):
            ver[w] += 1
        statuses.append(TxStatus.COMMITTED)
    return bal, ver, statuses


def test_serial_oracle_equivalence_exhaustive_orders():
    # Every commit order of five transactions over 4 wallets, some with
    # stale stamps, against an independent serial interpreter.
    wallets = ["w0", "w1", "w2", "w3"]
    balances = {w: 40 for w in wallets}
    rng = random.Random(7)
    base = [_random_tx(rng, wallets, i) for i in range(5)]
    stamps = {tx.id: dict.fromkeys(tx.reads, 0) for tx in base}
    for tx in base:
        if isinstance(tx.payload, Transfer) and rng.random() < 0.5:
            stamps[tx.id][tx.payload.src] = rng.randint(0, 1)  # some stale
    for perm in itertools.permutations(base):
        state = LedgerState.from_balances(balances)
        snapshot = [t.reads for t in perm]
        statuses = finalize_all(ChannelState("main", state), perm, stamps)
        assert [t.reads for t in perm] == snapshot  # untouched
        obal, over, ostatus = _serial_oracle(balances, perm, stamps)
        assert statuses == ostatus
        assert state.balances == obal
        assert state.versions == over


def test_conservation_and_version_monotonicity_random_blocks():
    rng = random.Random(21)
    wallets = ["w0", "w1", "w2", "w3"]
    for trial in range(30):
        balances = {w: rng.randint(0, 100) for w in wallets}
        state = LedgerState.from_balances(balances)
        channel = ChannelState("main", state)
        supply = total_supply(state)
        versions_seen = {w: 0 for w in wallets}
        for b in range(6):
            txs = [_random_tx(rng, wallets, f"{trial}-{b}-{i}")
                   for i in range(rng.randint(1, 10))]
            # Some stamps are taken now, the rest declare version 0.
            stamps = {
                tx.id: stamp_read_versions(tx, state) if rng.random() < 0.6
                else dict.fromkeys(tx.reads, 0)
                for tx in txs
            }
            statuses = finalize_all(channel, txs, stamps)
            assert total_supply(state) == supply
            committed_writes = {}
            for tx, status in zip(txs, statuses):
                if status is TxStatus.COMMITTED:
                    for w in tx.writes:
                        committed_writes[w] = committed_writes.get(w, 0) + 1
            for w in wallets:
                expected = versions_seen[w] + committed_writes.get(w, 0)
                assert state.versions[w] == expected  # +1 per committed write
                assert state.versions[w] >= versions_seen[w]
                versions_seen[w] = state.versions[w]


def test_failure_atomicity_random():
    rng = random.Random(5)
    wallets = ["w0", "w1", "w2"]
    state = LedgerState.from_balances({w: 20 for w in wallets})
    for i in range(200):
        tx = _random_tx(rng, wallets, i)
        stamp = dict.fromkeys(tx.reads, 0)
        if isinstance(tx.payload, Transfer):
            stamp[tx.payload.src] = rng.randint(0, 3)
            if rng.random() < 0.4:
                tx.payload.amount = rng.randint(15, 60)
        before = state.copy()
        status = apply_transaction(state, tx, stamp)
        if status is not TxStatus.COMMITTED:
            assert state == before
