"""Conflict generation, scenario files and the bench workload."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import conflictsim
from conflictsim import harness
from conflictsim.cli import BUNDLED_DIR, resolve_scenario
from conflictsim.core import Query, Transfer, conflicts_with, query_tx, transfer_tx
from conflictsim.errors import (
    InfeasibleSpecError,
    ScenarioParseError,
    ScenarioValidationError,
)
from conflictsim.workload import (
    ConflictSpec,
    generate_bench_workload,
    generate_conflicting_set,
    parse_scenario,
    transaction_ids,
)

SRC_PATH = str(Path(conflictsim.__file__).resolve().parent.parent)

CANONICAL = [
    "table2_block_withholding",
    "sec3b_double_spend",
    "table2_balance_attack",
    "ddos_default",
    "fig1_race",
]


# -- generator -----------------------------------------------------------------


def conflict_graph_has_isolated(txs) -> bool:
    """Quadratic reference check: some transaction conflicts with no other."""
    for tx in txs:
        if not any(conflicts_with(tx, other) for other in txs if other.id != tx.id):
            return True
    return False


def test_generated_set_shape_and_conflict_density():
    spec = ConflictSpec(wallets=("A1", "V1", "V2"), count=100, window=10_000,
                        seed=7)
    txs = generate_conflicting_set(spec)
    assert len(txs) == 100
    assert not conflict_graph_has_isolated(txs)
    assert all(0 <= tx.submit_time <= 10_000 for tx in txs)
    amounts = [tx.payload.amount for tx in txs
               if isinstance(tx.payload, Transfer)]
    assert amounts and all(1 <= a <= 20 for a in amounts)


def test_generated_set_deterministic_in_seed():
    spec = ConflictSpec(wallets=("A1", "V1", "V2"), count=60, window=500, seed=3)
    assert generate_conflicting_set(spec) == generate_conflicting_set(spec)
    other = ConflictSpec(wallets=("A1", "V1", "V2"), count=60, window=500, seed=4)
    assert generate_conflicting_set(spec) != generate_conflicting_set(other)


def test_single_transaction_is_infeasible():
    spec = ConflictSpec(wallets=("A1", "V1"), count=1, window=100)
    with pytest.raises(InfeasibleSpecError):
        generate_conflicting_set(spec)


def test_one_wallet_is_infeasible_at_construction():
    with pytest.raises(InfeasibleSpecError):
        ConflictSpec(wallets=("A1",), count=10, window=100, mix_query=0.5)


def test_all_query_mix_is_infeasible():
    spec = ConflictSpec(wallets=("A1", "V1"), count=10, window=100,
                        mix_query=1.0)
    with pytest.raises(InfeasibleSpecError):
        generate_conflicting_set(spec)


def test_query_mix_respected_and_still_connected():
    spec = ConflictSpec(wallets=tuple(f"w{i}" for i in range(8)), count=200,
                        window=1000, seed=5, mix_query=0.4)
    txs = generate_conflicting_set(spec)
    queries = sum(isinstance(tx.payload, Query) for tx in txs)
    assert 40 <= queries <= 120
    assert not conflict_graph_has_isolated(txs)


def test_burst_window_zero_puts_everything_at_start():
    spec = ConflictSpec(wallets=("a", "b"), count=50, window=0, start=1000,
                        seed=1)
    txs = generate_conflicting_set(spec)
    assert {tx.submit_time for tx in txs} == {1000}


# Batches pinned by value: (wallets, count, window, mix_query, seed) and the
# SHA-256 of every transaction's fields, taken before isolation was counted
# during generation.  Several specs repair isolated transfers and queries.
GENERATOR_DIGESTS = [
    (2, 2, 0, 0.0, 1,
     "43bf8eaa451dfeb5c8376e515e616afbd21900388849bd795d7501b4c16b1c69"),
    (3, 1000, 1000, 0.0, 7,
     "785199516346bea31d7f17080d87bae017d068fd37dc0abe7a3fb33b3c279938"),
    (40, 2, 0, 0.0, 3,
     "a52ca74ff172ff1da4a110ce6a0a2338a63643e9d06a6fefe087a549b714baab"),
    (40, 2, 10, 0.95, 5,
     "8c3648555104df09f39955c0a96ca7ef57bdb6fcc621b7269a3c427667a3ebb9"),
    (40, 10, 1000, 0.95, 11,
     "772e2a501f6152c11e82d0f885701af57aadf06c1878aa856318aa83ddc4a2b4"),
    (40, 12, 10, 0.8, 2,
     "303b1dda7894355b4987b63dcfd6a7a59969e047e360f39c1edbd8f8d161996d"),
    (20, 6, 1000, 0.3, 4,
     "ef5f0b537958406c3c6a0718f3f9bd0da6355fbf0629da924f47201dc7017711"),
    (30, 8, 0, 0.0, 9,
     "5e0fca2f99b5d2ec41271d462cf9e3dd7e3a716d6a0f43446f9149c0f84759e6"),
    (5, 40, 10, 0.8, 13,
     "02cfb69261e6ec90c20ffe90fb79288e6a8a6af1c8743bbe3cbfd07db7d3fee0"),
    (12, 300, 1000, 0.3, 21,
     "2e86ad388c15bcf6595591ffc9c3d1b973f8b08d7e453d6d12b57184db99d788"),
    (40, 1000, 1000, 0.95, 17,
     "3d63717b4ce61442dd496206458341f937b08c03430b720bed8f2ad4420604ef"),
    (8, 3, 0, 0.3, 6,
     "249ba6e11f812b687722fa921d588befe4aa268132dd3fd2a412cb17510dcd61"),
    (25, 5, 10, 0.8, 8,
     "6cdd2ca042138fb5e259207aa8fb4acb1fa2f483a52346cd5c2c14b4a9f7c004"),
    (2, 50, 1000, 0.95, 10,
     "5594097bd89638d4e070c760232332aa951156c188984d3269ac7c6b1539ae0b"),
    (16, 100, 0, 0.0, 12,
     "9ced29f58c8264d31c5cb34ff4c2e138ac9dacac19d521ef9f1ed41654d07beb"),
    (40, 20, 10, 0.3, 14,
     "494689d275694629282f003689f9ef9cee7868e22df92d2af325cf3eb50d8878"),
    (33, 4, 1000, 0.0, 15,
     "39a95f4a0436752efced497ab174ee9b71372d23f7c1df6c0ab3f3fdb9b9a76b"),
    (40, 3, 10, 0.95, 16,
     "fa494efc3b2a555603e52ea70159524f93e0527616f756a86417c34f3cf5d081"),
]


def _batch_digest(txs) -> str:
    # The constant 2 stands where each transaction's priority class was
    # hashed when transactions carried one: every generated transaction
    # carried the unassigned class, 2.  Likewise each read is hashed with
    # the version 0 it declared when reads carried versions.  So the pinned
    # digests still hold.
    h = hashlib.sha256()
    for tx in txs:
        reads = [(w, 0) for w in tx.reads]
        h.update(repr((
            tx.id, tx.payload, tx.channel, tx.submitter, reads,
            sorted(tx.writes), sorted(tx.declared_deps), 2, tx.submit_time,
        )).encode())
    return h.hexdigest()


def _repaired(txs) -> tuple[int, int]:
    """(queries, transfers) that gained a read outside their payload."""
    queries = transfers = 0
    for tx in txs:
        p = tx.payload
        own = {p.src, p.dst} if isinstance(p, Transfer) else set(p.wallets)
        if set(tx.reads) - own:
            if isinstance(p, Transfer):
                transfers += 1
            else:
                queries += 1
    return queries, transfers


def _pinned_spec(wallets, count, window, mix, seed):
    return ConflictSpec(
        wallets=tuple(f"W{i:02d}" for i in range(wallets)), count=count,
        window=window, mix_query=mix, seed=seed,
    )


def _pinned_batch(*row):
    return generate_conflicting_set(_pinned_spec(*row))


@pytest.mark.parametrize(
    "wallets,count,window,mix,seed,digest", GENERATOR_DIGESTS,
    ids=[f"w{r[0]}-n{r[1]}-win{r[2]}-q{r[3]}-s{r[4]}" for r in GENERATOR_DIGESTS],
)
def test_generated_batch_matches_pinned_digest(wallets, count, window, mix,
                                               seed, digest):
    assert _batch_digest(_pinned_batch(wallets, count, window, mix, seed)) == digest


def test_pinned_generator_specs_cover_both_repairs():
    repaired = [_repaired(_pinned_batch(*row[:5])) for row in GENERATOR_DIGESTS]
    assert any(queries for queries, _ in repaired)
    assert any(transfers for _, transfers in repaired)
    assert any(queries == transfers == 0 for queries, transfers in repaired)


def test_generators_build_reads_as_distinct_ids_from_the_payload():
    # Both generators skip __post_init__, so each build site must make the
    # tuple itself: the payload's wallets first, each id once.
    batches = [_pinned_batch(*row[:5]) for row in GENERATOR_DIGESTS]
    batches.append(generate_bench_workload(2000, 0.5, seed=3)[1])
    for tx in (tx for batch in batches for tx in batch):
        p = tx.payload
        own = (p.src, p.dst) if isinstance(p, Transfer) else p.wallets
        assert type(tx.reads) is tuple
        assert len(set(tx.reads)) == len(tx.reads)
        assert tx.reads[:len(own)] == own


def test_generators_share_one_query_payload_per_wallet(monkeypatch):
    # Every query on a wallet carries that wallet's one payload, and an
    # unrepaired query reads the payload's own tuple.  A bench rep leaves
    # the payloads and reads it was handed as they were.
    batches = [_pinned_batch(*row[:5]) for row in GENERATOR_DIGESTS if row[3]]
    handed = []

    def generate(*args, **kwargs):
        balances, txs = generate_bench_workload(*args, **kwargs)
        handed.append([(tx, tx.payload, repr(tx.payload), tx.reads) for tx in txs])
        return balances, txs

    monkeypatch.setattr(harness, "generate_bench_workload", generate)
    harness.bench_throughput(txs=2000, read_ratio=0.8, workers=2, reps=1,
                             io_delay_us=0, seed=3)
    batches.append([tx for tx, *_ in handed[0]])
    shared = 0
    for batch in batches:
        payloads = {}
        queries = [tx for tx in batch if isinstance(tx.payload, Query)]
        for tx in queries:
            assert payloads.setdefault(tx.payload.wallets, tx.payload) is tx.payload
            if tx.reads == tx.payload.wallets:
                assert tx.reads is tx.payload.wallets
        shared += len(queries) - len(payloads)
    assert shared > 1000
    for tx, payload, text, reads in handed[0]:
        assert tx.payload is payload and repr(payload) == text and tx.reads is reads


def _fields(tx):
    return (tx.id, repr(tx.payload), tx.channel, tx.submitter, tx.submit_time,
            tx.writes, tx.declared_deps, tx.reads)


@pytest.mark.parametrize(
    "wallets,count,window,mix,seed", [row[:5] for row in GENERATOR_DIGESTS],
    ids=[f"w{r[0]}-n{r[1]}-win{r[2]}-q{r[3]}-s{r[4]}" for r in GENERATOR_DIGESTS],
)
def test_cut_batch_is_the_prefix_submitted_by_the_horizon(wallets, count,
                                                          window, mix, seed):
    # A horizon keeps the transactions submitted at or before it, and always
    # the first; each is built as the full batch builds it.
    spec = _pinned_spec(wallets, count, window, mix, seed)
    full = generate_conflicting_set(spec)
    times = sorted({tx.submit_time for tx in full})
    cuts = times[:: max(1, len(times) // 6)]
    for horizon in (-1, *cuts, times[len(times) // 2] - 1, times[-1]):
        cut = generate_conflicting_set(spec, horizon=horizon)
        kept = max(1, sum(tx.submit_time <= horizon for tx in full))
        assert [_fields(tx) for tx in cut] == [_fields(tx) for tx in full[:kept]]


def test_cut_batch_anchors_the_first_transfer_past_the_horizon():
    # The first transfer is isolated, and its repair anchors on the next
    # transfer's source, submitted after the query between them (isolated
    # too, and anchored on the first transfer).  A cut between them must
    # still repair the first transfer from the full batch.
    spec = ConflictSpec(wallets=tuple(f"W{i:02d}" for i in range(6)), count=3,
                        window=1000, seed=12, mix_query=0.5)
    full = generate_conflicting_set(spec)
    first, query, later = full
    assert list(first.reads) == [first.payload.src, first.payload.dst,
                                 later.payload.src]
    assert isinstance(query.payload, Query)
    assert list(query.reads) == [*query.payload.wallets, first.payload.src]
    assert first.submit_time < query.submit_time < later.submit_time
    for horizon in (first.submit_time, query.submit_time, later.submit_time - 1):
        cut = generate_conflicting_set(spec, horizon=horizon)
        assert len(cut) == 1 + (horizon >= query.submit_time)
        assert [_fields(tx) for tx in cut] == [_fields(tx) for tx in full[:len(cut)]]


def test_transaction_ids_are_shared_and_grow_to_the_largest_count():
    spec = ConflictSpec(wallets=("A1", "V1"), count=40, window=10,
                        id_prefix="idtable")
    first, second = generate_conflicting_set(spec), generate_conflicting_set(spec)
    assert [tx.id for tx in first] == [f"idtable{i:05d}" for i in range(40)]
    assert all(a.id is b.id for a, b in zip(first, second))
    # A later, larger batch extends the table and keeps the earlier ids.
    longer = generate_conflicting_set(replace(spec, count=75))
    assert [tx.id for tx in longer] == [f"idtable{i:05d}" for i in range(75)]
    assert all(a.id is b.id for a, b in zip(first, longer))
    # Prefixes and widths each keep a table of their own.
    other = generate_conflicting_set(replace(spec, id_prefix="idother"))
    assert [tx.id for tx in other] == [f"idother{i:05d}" for i in range(40)]
    assert transaction_ids("idtable", 3, 6)[:3] == (
        "idtable000000", "idtable000001", "idtable000002")
    assert transaction_ids("idtable", 3, 5)[:3] == (
        "idtable00000", "idtable00001", "idtable00002")


def test_transaction_ids_past_five_digits_match_the_format():
    ids = transaction_ids("idwide", 100_002, 5)
    assert ids[99_998:100_002] == ("idwide99998", "idwide99999",
                                   "idwide100000", "idwide100001")
    assert list(ids[:100_002]) == [f"idwide{i:05d}" for i in range(100_002)]


# -- bench workload ----------------------------------------------------------------

BENCH_READ_RATIOS = (0.0, 0.5, 0.8, 1.0)
BENCH_SEEDS = (0, 1, 7)


def bench_batches(count, n_wallets, cluster_size):
    """The bench batches of one shape at every read ratio, in a fixed order:
    at three seeds, or at one for the bench's own 20 000 transactions."""
    seeds = BENCH_SEEDS if count < 20_000 else BENCH_SEEDS[:1]
    for read_ratio in BENCH_READ_RATIOS:
        for seed in seeds:
            yield generate_bench_workload(
                count, read_ratio, n_wallets=n_wallets, seed=seed,
                cluster_size=cluster_size,
            )


# SHA-256 over the balances and every transaction field of the bench batches
# of each (count, n_wallets, cluster_size).  Counts up to 1 000 cover every
# wallet count and cluster size; the bench's own 20 000 covers its shape and
# an uneven wallet count.
BENCH_DIGESTS = [
    (1, 2, 2,
     "a575b51e1f8eae36afad1976857a0e3b8745e46d5dfdd47ad5a50f036677b8ae"),
    (1, 2, 25,
     "a575b51e1f8eae36afad1976857a0e3b8745e46d5dfdd47ad5a50f036677b8ae"),
    (1, 24, 2,
     "a64215ceb921510ec24af6d0f77df6dde0dc84c84444449123bc4392b57f30fd"),
    (1, 24, 25,
     "7a298e57f7b9e78f3515188797b0bdfaf61eb4c1b61821598410b847629f4bf4"),
    (1, 400, 2,
     "9c4fb06086272efaf5c5159b791cd5b560f700b40fa3c5be53efb94252269cb0"),
    (1, 400, 25,
     "0024e4306eb4d9800684a92f37d59a332904ae894cc0a8f5f3655f6a5f6486c1"),
    (1, 2000, 2,
     "446ca4a741d7c361854c1c02006cf3e44135907bca5b8573e2dd07270e113e9e"),
    (1, 2000, 25,
     "8e8fcd1734fa778427e717ebc877460fd34b153d4d5e619ae950b8c075e97f02"),
    (1, 2001, 2,
     "f9dd76eef3fa6b23b234bf857ba8c8fd97091c5114cb592d51090cdd47f51c29"),
    (1, 2001, 25,
     "0472658cf8dede1526dd64fef059c130840120243b31e8f127ca74c0b5dbf341"),
    (2, 2, 2,
     "b58b029a08d9d7f1f5aab6508f8ac4ad816a848fa3964323aee048a5d6531643"),
    (2, 2, 25,
     "b58b029a08d9d7f1f5aab6508f8ac4ad816a848fa3964323aee048a5d6531643"),
    (2, 24, 2,
     "81214780741c8164863896a9dcd460851c052f15b3848d12dc9b037664ac1d01"),
    (2, 24, 25,
     "17870343af3c0733a907e3639598170ac41d8b2167d13ac4f2904741ee680264"),
    (2, 400, 2,
     "501497f2dce0a5393be05b33c54dee87ffbc5e126ab2812ae7ebb74b2eadc809"),
    (2, 400, 25,
     "3a882609f28455c7434c6d014d467fb0399ac6e3c0b861c36e5081579402e789"),
    (2, 2000, 2,
     "e38941cd6e99431a84307a4751559caae356a48efa0b84fee75b3f32d0424eac"),
    (2, 2000, 25,
     "d6b2287edd29a51165f9b759b7b0133acbb40e2ae8d7c924214e65ed0a03da92"),
    (2, 2001, 2,
     "a1ef57de8550c9159be02e5e85c19565bc201de63c328b6b7ab35d39fd4895ff"),
    (2, 2001, 25,
     "a05346092a340c4356455ce72ef0c6fc43598ef2c8c5d43079208d9ec4dd0551"),
    (1000, 2, 2,
     "8e7eb874340eea45f9e77460ebcf0af5cb046476f9aaca94705c7f2a73b69127"),
    (1000, 2, 25,
     "8e7eb874340eea45f9e77460ebcf0af5cb046476f9aaca94705c7f2a73b69127"),
    (1000, 24, 2,
     "8df930c675e920f35c12bf1d8ce8681d182db3f0e18b745324e32e0d40eb0230"),
    (1000, 24, 25,
     "58e5c5439d15ae964e6f01a24269d95582f6b22cce4ef5f3525640fd74a9513b"),
    (1000, 400, 2,
     "b9896bdf3c121fe95c134cf8204ae4ee8d53019c4fd517953c1d716ea7c92664"),
    (1000, 400, 25,
     "345c0b4976164fdc7ae2dadd90c9bb23b253846451712430e60991da9c6d8fab"),
    (1000, 2000, 2,
     "5107caf4c22c1ffb9ba2fb344b5223d1865fee8854ad20f8748306e3ca0c4ff3"),
    (1000, 2000, 25,
     "37acf31c4fa359f42fab13949d60345d47ee8cdcc56b935fdbee65fa70da2110"),
    (1000, 2001, 2,
     "4a7efb2cd8bc19aeb4fedaa7a5d94f1fc67652dd18cc8ac4ce2ac89f1bbb7c8e"),
    (1000, 2001, 25,
     "596ab921620df9a7c27537a15388ffdf4d272dabba8f2eb28db06f90815bedc3"),
    (20000, 2000, 25,
     "fcdc939b25fbaf96958f902265ed433f2bf042247fe8e5f32ea41de644ebc825"),
    (20000, 2001, 2,
     "843a47858d0e9d8f7d1d34edec8d324632d7f29f3440e52105ae059dad72d1dd"),
]


@pytest.mark.parametrize(
    "count,n_wallets,cluster_size,digest", BENCH_DIGESTS,
    ids=[f"n{r[0]}-w{r[1]}-c{r[2]}" for r in BENCH_DIGESTS],
)
def test_bench_batch_matches_pinned_digest(count, n_wallets, cluster_size, digest):
    h = hashlib.sha256()
    for balances, txs in bench_batches(count, n_wallets, cluster_size):
        h.update(repr(list(balances.items())).encode())
        h.update(_batch_digest(txs).encode())
    assert h.hexdigest() == digest


EMPTY_RANGE_CALLS = [
    "generate_bench_workload(50, 0.5, n_wallets=0)",
    "generate_bench_workload(50, 1.0, n_wallets=0)",
    "generate_bench_workload(50, 0.5, n_wallets=1)",
    "generate_bench_workload(50, 0.5, cluster_size=0)",
    "generate_bench_workload(50, 1.0, cluster_size=0)",
    "generate_bench_workload(50, 0.5, cluster_size=1)",
    "generate_bench_workload(50, 0.0, n_wallets=2, cluster_size=1)",
    "generate_bench_workload(50, float('nan'), n_wallets=1)",
]


@pytest.mark.parametrize("call", EMPTY_RANGE_CALLS)
def test_bench_generator_rejects_empty_ranges_before_drawing(call):
    # In a child process with a timeout, so a draw loop that never ends
    # fails the test instead of hanging the suite.
    code = (
        "import random\n"
        "from conflictsim.workload import generate_bench_workload\n"
        "def no_draws(*args, **kwargs):\n"
        "    raise AssertionError('drew before validating')\n"
        "for name in ('random', 'getrandbits', 'randrange', 'randint'):\n"
        "    setattr(random.Random, name, no_draws)\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=30, env={**os.environ, "PYTHONPATH": SRC_PATH},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ValueError: "), done.stdout


def test_bench_generator_all_queries_need_one_wallet():
    balances, txs = generate_bench_workload(50, 1.0, n_wallets=1, cluster_size=1)
    assert balances == {"B00000": 1000}
    assert len(txs) == 50
    assert all(tx.payload == Query(("B00000",)) for tx in txs)


# -- scenario files ---------------------------------------------------------------


@pytest.mark.parametrize("name", CANONICAL)
def test_canonical_scenarios_ship_and_validate(name):
    assert (BUNDLED_DIR / f"{name}.scn").exists()
    config = resolve_scenario(name)
    config.validate()


def test_missing_balance_for_attack_wallet_is_validation_error():
    text = (BUNDLED_DIR / "table2_block_withholding.scn").read_text()
    broken = text.replace("A1 1000\n", "")
    with pytest.raises(ScenarioValidationError):
        parse_scenario(broken)


def test_malformed_syntax_is_parse_error_with_line():
    text = "[topology]\nnode n1 role=orderer\n[balances]\nA1 notanumber\n"
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert "line 4" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("[wat]\n")


def test_channel_without_orderer_rejected():
    text = """
[topology]
node client1 role=client channels=main
node peer1 role=peer channels=main
[balances]
A1 100
[attack]
kind ordering_race
[policy]
mode baseline
[conflicts]
tx t1 transfer A1 V1 5 at 0
[seed]
1
[deadline]
100
"""
    with pytest.raises(ScenarioValidationError):
        parse_scenario(text)


def test_scripted_tx_unknown_wallet_rejected():
    text = """
[topology]
node client1 role=client channels=main
node orderer1 role=orderer channels=main
[balances]
A1 100
[attack]
kind ordering_race
[policy]
mode baseline
[conflicts]
tx t1 transfer A1 NOPE 5 at 0
[seed]
1
[deadline]
100
"""
    with pytest.raises(ScenarioValidationError):
        parse_scenario(text)


def test_scripted_tx_lines_build_what_the_constructors_build():
    text = """
[topology]
node client1 role=client channels=main
node orderer1 role=orderer channels=main
[balances]
A1 100
B1 100
C1 100
[attack]
kind ordering_race
[policy]
mode baseline
[conflicts]
tx t1 transfer A1 B1 5 at 0 reads=C1,A1 deps=q1,t0 submitter=client1
tx q1 query A1,C1 at 3 deps=t1 channel=main orderer=orderer1
tx q2 query A1,A1 at 4
[seed]
1
[deadline]
100
"""
    config = parse_scenario(text)
    assert config.conflicts == [
        transfer_tx("t1", "A1", "B1", 5, submitter="client1",
                    extra_reads=("C1", "A1"), deps=("q1", "t0")),
        query_tx("q1", ("A1", "C1"), deps=("t1",), submit_time=3),
        query_tx("q2", ("A1", "A1"), submit_time=4),
    ]
    assert config.conflicts[0].reads == ("A1", "B1", "C1")
    assert config.conflicts[2].reads == ("A1",)
    assert config.conflicts[1].declared_deps == ("t1",)
    assert config.pinned_orderers == {"q1": "orderer1"}


_GENERATE_TEMPLATE = """
[topology]
node client1 role=client channels=main,side
node orderer1 role=orderer channels=main,side
[balances]
A1 100
B1 100
[attack]
kind ordering_race
[policy]
mode baseline
[conflicts]
{line}
[seed]
1
[deadline]
100
"""


def test_generate_lines_build_what_the_spec_builds():
    # A key the line leaves out keeps ConflictSpec's default.
    short = parse_scenario(_GENERATE_TEMPLATE.format(
        line="generate wallets=B1,A1 count=10 window=7"))
    assert short.conflicts == ConflictSpec(("A1", "B1"), 10, 7)
    full = parse_scenario(_GENERATE_TEMPLATE.format(
        line="generate wallets=A1,B1 count=3 window=5 mix_query=0.25 "
             "channel=side submitter=client1 start=40"))
    assert full.conflicts == ConflictSpec(
        ("A1", "B1"), 3, 5, mix_query=0.25, channel="side",
        submitter="client1", start=40)


@pytest.mark.parametrize("flag, adversary", [
    ("adversary", True), ("adversary=true", True), ("adversary=false", False),
    ("", False),
])
def test_node_adversary_flag_values(flag, adversary):
    # A bare flag is true; any value but true or false fails (the CLI tests).
    text = _GENERATE_TEMPLATE.format(line="generate wallets=A1,B1 count=1 window=1")
    config = parse_scenario(text.replace(
        "node client1 role=client channels=main,side",
        f"node client1 role=client channels=main,side {flag}"))
    assert config.topology.nodes[0].is_adversary is adversary


def test_two_conflict_sources_rejected():
    text = """
[topology]
node client1 role=client channels=main
node orderer1 role=orderer channels=main
[balances]
A1 100
B1 100
[attack]
kind ordering_race
[policy]
mode baseline
[conflicts]
generate wallets=A1,B1 count=10 window=10
tx t1 transfer A1 B1 5 at 0
[seed]
1
[deadline]
100
"""
    with pytest.raises(ScenarioValidationError):
        parse_scenario(text)

