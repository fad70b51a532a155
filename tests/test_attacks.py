"""Attack orchestration: scripted outcomes, negative variants, invariants."""

import gc
from dataclasses import replace
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conflictsim import attacks, harness
from conflictsim.attacks import (
    SimulationRun,
    build_trial,
    clone_tx,
    recompute_success,
    run_attack,
)
from conflictsim.cli import resolve_scenario
from conflictsim.core import (
    Query,
    Transaction,
    TxStatus,
    apply_transaction,
    total_supply,
    transfer_tx,
)
from conflictsim.errors import ScenarioValidationError
from conflictsim.harness import MetricsRecord, TrialPlan, run_trials, sweep_scenario
from conflictsim.workload import (
    ConflictSpec,
    generate_conflicting_set,
    parse_scenario,
)


def test_scripted_block_withholding_matches_final_state():
    config = resolve_scenario("table2_block_withholding")
    out = run_attack(config, "baseline", config.seed)
    ledger = out.ledgers["main"]
    assert out.success
    assert ledger.height == 105
    assert ledger.committed_tx_count == 205
    assert ledger.balances == {"A1": 1010, "V1": 985, "V2": 1005}
    assert out.facts["target_committed"] is False
    assert out.facts["attacker_delta"] == 10


def test_scripted_double_spend_matches_text_outcome():
    config = resolve_scenario("sec3b_double_spend")
    out = run_attack(config, "baseline", config.seed)
    ledger = out.ledgers["main"]
    assert out.success
    assert ledger.balances == {"A1": 0, "A2": 100, "V1": 1000}
    assert out.facts["double_spend_committed"]
    assert not out.facts["valid_committed"]
    assert out.facts["asset_delivered"]


def test_scripted_balance_attack_matches_final_state():
    config = resolve_scenario("table2_balance_attack")
    out = run_attack(config, "baseline", config.seed)
    assert out.success
    assert out.chain_sizes == {"ch1": 1050, "ch2": 1100}
    assert out.pending == {"ch1": 40, "ch2": 0}
    assert out.facts["replay_committed"]


def test_ddos_overflow_and_failure_rate():
    config = resolve_scenario("ddos_default")
    out = run_attack(config, "baseline", config.seed)
    assert out.peak_mempool >= config.policy.mempool_capacity
    assert out.facts["valid_fail_rate"] > 0.5
    assert out.success


def test_ddos_small_batch_no_overflow_no_success():
    config = sweep_scenario(resolve_scenario("ddos_default"), 100)
    out = run_attack(config, "baseline", 5)
    assert out.peak_mempool < config.policy.mempool_capacity
    assert not out.facts["overflowed"]
    assert not out.success


# -- variant scenarios ---------------------------------------------------------


WITHHOLD_TEMPLATE = """
[topology]
default_latency 5
node client1 role=client channels=main latency=5
node advclient role=client channels=main adversary latency=5
node orderer1 role=orderer channels=main processing=10
node badorderer role=orderer channels=main adversary
node peer1 role=peer channels=main
[balances]
A1 1000
V1 1000
V2 1000
X 0
Y 1000
[attack]
kind block_withholding
param variant {variant}
param release_at {release_at}
[policy]
mode baseline
jitter 0 0
[conflicts]
{conflicts}
[seed]
3
[deadline]
10000
"""


def test_withholding_fails_when_conflicting_batch_cannot_commit():
    # Every conflicting transfer is unfunded, so the attacker gains nothing.
    conflicts = "\n".join(
        f"tx c{i} transfer X Y 10 at {1 + i}" for i in range(6)
    )
    config = parse_scenario(
        WITHHOLD_TEMPLATE.format(variant="hold", release_at=0,
                                 conflicts=conflicts)
    )
    out = run_attack(config, "baseline", 3)
    assert out.facts["attacker_delta"] == 0
    assert not out.facts["target_committed"]
    assert not out.success
    assert all(s == 0 for s in (out.status_counts["committed"],))


def test_withholding_release_commits_untouched_target():
    # The batch never touches V1/V2, so the released transfer still
    # validates and the attack fails by its own predicate.
    conflicts = "\n".join(
        f"tx c{i} transfer Y A1 2 at {1 + i}" for i in range(6)
    )
    config = parse_scenario(
        WITHHOLD_TEMPLATE.format(variant="release", release_at=5000,
                                 conflicts=conflicts)
    )
    out = run_attack(config, "baseline", 3)
    assert out.facts["target_status"] == TxStatus.COMMITTED.value
    assert out.facts["attacker_delta"] > 0
    assert not out.success
    assert ("P5", 5000) in [(p, t) for p, t in out.phase_log]


def test_withholding_release_past_the_deadline_leaves_the_target_withheld():
    # The release never fires, so the held target ends the run pending: its
    # fact reads withheld, and no status is recorded for it.
    conflicts = "\n".join(
        f"tx c{i} transfer Y A1 2 at {1 + i}" for i in range(6)
    )
    config = parse_scenario(
        WITHHOLD_TEMPLATE.format(variant="release", release_at=20000,
                                 conflicts=conflicts)
    )
    out = run_attack(config, "baseline", 3)
    assert out.facts["target_status"] == "withheld"
    assert not out.facts["target_committed"]
    assert out.status_counts["pending"] == 1
    assert out.success
    assert ("P5", 10000) in out.phase_log


def test_withholding_requires_adversary_orderer():
    text = WITHHOLD_TEMPLATE.format(
        variant="hold", release_at=0, conflicts="tx c0 transfer Y A1 2 at 1"
    ).replace("node badorderer role=orderer channels=main adversary\n", "")
    with pytest.raises(ScenarioValidationError, match="adversary orderer"):
        parse_scenario(text)


DS_TEMPLATE = """
[topology]
default_latency 5
node hclient role=client channels=main latency=10
node aclient role=client channels=main adversary latency=1
node orderer1 role=orderer channels=main processing={p1}
node orderer2 role=orderer channels=main processing={p2}
node peer1 role=peer channels=main
[balances]
A1 100
A2 0
V1 1000
[attack]
kind double_spending
param valid_orderer orderer1
{extra}
[policy]
mode baseline
jitter 0 0
[conflicts]
tx dsx transfer A1 A2 100 at 12 submitter=aclient orderer=orderer2
tx jx0 transfer A1 V1 2 at 14 reads=A1,A2,V1 submitter=aclient
tx jx1 transfer A1 V1 2 at 15 reads=A1,A2,V1 submitter=aclient
[seed]
3
[deadline]
5000
"""


def test_double_spend_fails_when_valid_commits_first():
    # Swapped processing delays: the honest orderer wins the race.
    config = parse_scenario(DS_TEMPLATE.format(p1=10, p2=25, extra=""))
    out = run_attack(config, "baseline", 3)
    assert out.facts["valid_committed"]
    assert not out.facts["double_spend_committed"]
    assert not out.success
    assert out.ledgers["main"].balances["V1"] == 1100


def test_double_spend_fails_without_asset_delivery():
    config = parse_scenario(
        DS_TEMPLATE.format(p1=25, p2=10, extra="param endorse_withheld true")
    )
    out = run_attack(config, "baseline", 3)
    assert out.facts["double_spend_committed"]  # race still won
    assert not out.facts["asset_delivered"]
    assert not out.success


def _balance_variant(valid_head, valid_reference):
    from conflictsim.cli import BUNDLED_DIR

    text = (BUNDLED_DIR / "table2_balance_attack.scn").read_text()
    text = text.replace("param valid_head 40", f"param valid_head {valid_head}")
    text = text.replace("param valid_tail 40", "param valid_tail 0")
    text = text.replace(
        "param valid_reference 90", f"param valid_reference {valid_reference}"
    )
    # Keep only two junk transactions: they commit late and harmlessly.
    lines = [l for l in text.splitlines() if not l.startswith("tx bj")]
    junk = ["tx bj000 transfer W098 W099 1 at 5000 channel=ch1 submitter=aclient",
            "tx bj001 transfer W098 W099 1 at 9000 channel=ch1 submitter=aclient"]
    idx = lines.index("[seed]")
    lines[idx:idx] = junk
    return parse_scenario("\n".join(lines))


def test_balance_attack_fails_without_meaningful_injection():
    # Both channels keep pace; no fork advantage, nothing pending to replay.
    config = _balance_variant(valid_head=90, valid_reference=90)
    out = run_attack(config, "baseline", 3)
    assert out.chain_sizes["ch1"] >= out.chain_sizes["ch2"]
    assert not out.success


def test_balance_attack_fails_when_attacked_chain_outpaces():
    config = _balance_variant(valid_head=90, valid_reference=50)
    out = run_attack(config, "baseline", 3)
    assert out.chain_sizes["ch1"] > out.chain_sizes["ch2"]
    assert not out.success


# -- cross-cutting invariants ----------------------------------------------------


def _outcome_zoo():
    zoo = []
    for name in ("table2_block_withholding", "sec3b_double_spend",
                 "table2_balance_attack", "fig1_race"):
        config = resolve_scenario(name)
        for mode in ("baseline", "countermeasures"):
            for seed in (config.seed, config.seed + 1):
                zoo.append((config, run_attack(config, mode, seed)))
    ddos = resolve_scenario("ddos_default")
    for mode in ("baseline", "countermeasures"):
        zoo.append((ddos, run_attack(ddos, mode, ddos.seed)))
    return zoo


@pytest.fixture(scope="module")
def outcome_zoo():
    return _outcome_zoo()


# Pre-condition phases that every outcome of a kind must contain.
PRECONDITION_PHASES = {
    "block_withholding": ("P1", "P2", "P3"),
    "double_spending": ("P1", "P2", "P3", "P4"),
    "balance": ("P1", "P2", "P3", "P4"),
    "ddos": ("P1", "P2"),
    "ordering_race": ("P1",),
}


def test_phase_log_strictly_increasing_with_preconditions(outcome_zoo):
    for _, out in outcome_zoo:
        times = [t for _, t in out.phase_log]
        assert times == sorted(times)
        assert all(b > a for a, b in zip(times, times[1:]))
        names = [p for p, _ in out.phase_log]
        for required in PRECONDITION_PHASES[out.kind]:
            assert required in names, (out.kind, names)


# The zoo's successful runs, recorded while each runner still computed its
# own success flag: 7 of the 18 outcomes.
ZOO_SUCCESSES = {
    ("block_withholding", "baseline", 7), ("block_withholding", "baseline", 8),
    ("double_spending", "baseline", 11), ("double_spending", "baseline", 12),
    ("balance", "baseline", 13), ("balance", "baseline", 14),
    ("ddos", "baseline", 17),
}


def test_success_recomputable_from_outcome_fields(outcome_zoo):
    assert len(outcome_zoo) == 18
    for _, out in outcome_zoo:
        key = (out.kind, out.policy_mode, out.seed)
        assert out.success == (key in ZOO_SUCCESSES), key
        assert recompute_success(out) == out.success


def conservation_holds(config, outcome):
    initial = sum(config.balances.values())
    return all(
        total_supply(ledger) == initial for ledger in outcome.ledgers.values()
    )


def test_conservation_across_attacks(outcome_zoo):
    for config, out in outcome_zoo:
        assert conservation_holds(config, out)


def test_countermeasure_dominance_small_sample():
    for name in ("table2_block_withholding", "sec3b_double_spend",
                 "table2_balance_attack", "ddos_default"):
        config = sweep_scenario(resolve_scenario(name), 600)
        base = sum(run_attack(config, "baseline", s).success for s in range(15))
        cm = sum(
            run_attack(config, "countermeasures", s).success for s in range(15)
        )
        assert cm <= base


def test_counts_sum_to_submitted(outcome_zoo):
    for _, out in outcome_zoo:
        assert sum(out.status_counts.values()) == out.submitted


# -- transaction copies and submission planning ----------------------------------


WALLETS = ("A1", "A2", "V1", "V2", "W001", "W002")
NAMES = st.text(alphabet="abcxyz0123456789-", min_size=1, max_size=8)


@st.composite
def transactions(draw):
    tx_id = draw(NAMES)
    extra = tuple(draw(st.lists(st.sampled_from(WALLETS), max_size=3)))
    deps = draw(st.frozensets(NAMES, max_size=3))
    common = dict(
        channel=draw(st.sampled_from(("main", "ch1", "ch2"))),
        submitter=draw(NAMES),
        submit_time=draw(st.integers(-50, 20_000)),
    )
    if draw(st.booleans()):
        src, dst = draw(st.lists(
            st.sampled_from(WALLETS), min_size=2, max_size=2, unique=True))
        tx = transfer_tx(tx_id, src, dst, draw(st.integers(1, 20)),
                         extra_reads=extra, deps=tuple(deps), **common)
    else:
        wallets = tuple(draw(st.lists(
            st.sampled_from(WALLETS), min_size=1, max_size=3, unique=True)))
        tx = Transaction(id=tx_id, payload=Query(wallets),
                         reads=wallets + extra, declared_deps=deps, **common)
    return tx


@given(transactions())
def test_clone_tx_equals_source_and_copies_are_independent(tx):
    assert not hasattr(tx, "__dict__")
    before = (tx.reads, tx.channel, tx.submitter, tx.submit_time)
    dup = clone_tx(tx)
    assert dup == tx and dup is not tx
    dup.reads += ("ZZ",)
    dup.channel += "-copy"
    dup.submitter += "-copy"
    dup.submit_time += 1
    assert (tx.reads, tx.channel, tx.submitter, tx.submit_time) == before


def _record_arrivals(monkeypatch):
    """Record, in firing order, every admission ``_on_arrivals`` sees as
    ("arrive", now, id) and every phase entered as ("phase", name, t)."""
    log = []
    on_arrivals, enter = SimulationRun._on_arrivals, attacks.PhaseRecorder.enter

    def arriving(run, engine, tx):
        log.append(("arrive", engine.now, tx.id))
        return on_arrivals(run, engine, tx)

    def entering(recorder, phase, t):
        log.append(("phase", phase, t))
        enter(recorder, phase, t)

    monkeypatch.setattr(SimulationRun, "_on_arrivals", arriving)
    monkeypatch.setattr(attacks.PhaseRecorder, "enter", entering)
    return log


def test_submission_arriving_after_deadline_is_never_planned(monkeypatch):
    log = _record_arrivals(monkeypatch)
    config = resolve_scenario("fig1_race")
    run = SimulationRun(config, "baseline", config.seed)
    latency = config.topology.client_latency("client1")
    for tx_id, arrive_at in (("late", config.deadline + 1),
                             ("on_time", config.deadline)):
        run.submit(
            transfer_tx(tx_id, "X", "Y", 1, submitter="client1",
                        submit_time=arrive_at - latency),
            valid=True,
        )
    run.submit_batch(
        [transfer_tx(f"b{i}", "X", "Y", 1, submitter="adv",
                     submit_time=config.deadline - latency + i)
         for i in (1, 2)],
        via="client1", first_phase="M",
    )
    run._flush_submissions()
    assert run.engine.pending_events() == 1  # nothing late is scheduled
    run.engine.run_until(config.deadline)
    assert log == [("arrive", config.deadline, "on_time")]
    assert run.arrived == {"main": {"on_time"}}
    assert run.valid_ids == {"on_time"}


def test_submit_batch_plans_as_per_transaction_submits(monkeypatch):
    log = _record_arrivals(monkeypatch)
    config = resolve_scenario("fig1_race")
    latency = 5  # client1's
    late = config.deadline - latency + 1
    batch = [
        transfer_tx(f"b{i}", "X", "Y", 1, submitter="adv", submit_time=t)
        for i, t in enumerate((3, 7, 100, 100, late - 1, late, late))
    ]
    # Each ties with batch arrivals: one submitted before the batch, one after.
    before = transfer_tx("v0", "P", "Q", 1, submitter="client1", submit_time=100)
    after = transfer_tx("v1", "Q", "R", 1, submitter="client1", submit_time=3)

    def arrivals(one_call: bool, batch):
        run = SimulationRun(config, "baseline", config.seed)
        run.submit(before, valid=True)
        if one_call:
            run.submit_batch(batch, via="client1", first_phase="M")
        else:
            for i, tx in enumerate(batch):
                run.submit(tx, valid=False, via="client1",
                           on_arrival=run.phase_marker("M") if i == 0 else None)
        run.submit(after, valid=True)
        run.run_until_deadline()
        fired = list(log)
        log.clear()
        return fired, run.arrived, run.valid_ids, run.phases.log

    fired, arrived, valid, phases = arrivals(True, batch)
    assert (fired, arrived, valid, phases) == arrivals(False, batch)
    # Equal-time arrivals fire in submission order; the marker fires right
    # before the batch's first arrival, and the late tail never arrives.
    assert fired == [
        ("phase", "M", 8), ("arrive", 8, "b0"), ("arrive", 8, "v1"),
        ("arrive", 12, "b1"), ("arrive", 105, "v0"), ("arrive", 105, "b2"),
        ("arrive", 105, "b3"), ("arrive", config.deadline, "b4"),
    ]
    assert phases == [("M", 8)]
    assert valid == {"v0", "v1"}
    assert arrived["main"] - valid == {"b0", "b1", "b2", "b3", "b4"}
    # A batch whose first transaction arrives too late takes its marker along.
    assert arrivals(True, batch[5:]) == arrivals(False, batch[5:])
    fired, arrived, _, phases = arrivals(True, batch[5:])
    assert phases == [] and arrived["main"] == {"v0", "v1"}
    assert [event[2] for event in fired] == ["v1", "v0"]


def _record_submissions(monkeypatch):
    """Record on each run, in ``run.submitted``, every transaction handed to
    ``submit`` or ``submit_batch`` by id (a later one with an id wins): the
    lookup the oracles below read."""
    submit, submit_batch = SimulationRun.submit, SimulationRun.submit_batch

    def submitting(run, tx, **kwargs):
        vars(run).setdefault("submitted", {})[tx.id] = tx
        submit(run, tx, **kwargs)

    def submitting_batch(run, txs, **kwargs):
        vars(run).setdefault("submitted", {}).update((tx.id, tx) for tx in txs)
        submit_batch(run, txs, **kwargs)

    monkeypatch.setattr(SimulationRun, "submit", submitting)
    monkeypatch.setattr(SimulationRun, "submit_batch", submitting_batch)


# -- outcome collection ------------------------------------------------------------


def _collect_by_arrival(run):
    """The per-arrival collection loop ``SimulationRun.collect`` replaced,
    kept as its oracle: every arrived id, looked up on its channel."""
    statuses = {
        "committed": 0, "conflict_failed": 0, "insufficient_funds": 0,
        "timeout": 0, "rejected": 0, "pending": 0,
    }
    pending = {ch: 0 for ch in run.channels}
    submitted_ids = set().union(*run.arrived.values())
    for tx_id in submitted_ids:
        if tx_id in run.rejected:
            statuses["rejected"] += 1
            continue
        ch = run.submitted[tx_id].channel
        st = run.channels[ch].status(tx_id)
        if st is TxStatus.COMMITTED:
            statuses["committed"] += 1
        elif st is TxStatus.CONFLICT_FAILED:
            statuses["conflict_failed"] += 1
        elif st is TxStatus.INSUFFICIENT_FUNDS:
            statuses["insufficient_funds"] += 1
        elif st is TxStatus.TIMEOUT:
            statuses["timeout"] += 1
        else:
            statuses["pending"] += 1
            pending[ch] += 1
    return statuses, pending, len(submitted_ids)


@pytest.fixture
def collect_oracle(monkeypatch):
    """Check every ``collect`` against the per-arrival oracle; yields the
    outcomes checked."""
    _record_submissions(monkeypatch)
    checked = []
    collect = SimulationRun.collect

    def checking(run, kind, facts):
        out = collect(run, kind, facts)
        assert (out.status_counts, out.pending, out.submitted) \
            == _collect_by_arrival(run)
        checked.append(out)
        return out

    monkeypatch.setattr(SimulationRun, "collect", checking)
    return checked


@pytest.mark.parametrize("name", [
    "table2_block_withholding", "sec3b_double_spend", "table2_balance_attack",
    "ddos_default", "fig1_race",
])
def test_collect_matches_per_arrival_oracle_on_bundled_scenarios(
    name, collect_oracle
):
    config = resolve_scenario(name)
    for mode in ("baseline", "countermeasures"):
        run_attack(config, mode, config.seed)
    assert len(collect_oracle) == 2


@pytest.mark.parametrize("name", [
    "table2_block_withholding", "sec3b_double_spend", "table2_balance_attack",
    "ddos_default",
])
def test_collect_matches_per_arrival_oracle_on_10k_sweep_pair(
    name, collect_oracle
):
    config = sweep_scenario(resolve_scenario(name), 10_000)
    for mode in ("baseline", "countermeasures"):
        run_attack(config, mode, 0)
    assert len(collect_oracle) == 2
    assert all(out.submitted > 4_000 for out in collect_oracle)


DUPLICATE_ID = """
[topology]
default_latency 5
node client1 role=client channels=main latency=5
node orderer1 role=orderer channels=main
node peer1 role=peer channels=main
[balances]
P 1000
Q 1000
X 1000
Y 1000
[attack]
kind ordering_race
[policy]
mode {mode}
jitter 1 1
[conflicts]
tx t1 transfer X Y 10 at 0
tx t2 transfer P Q 5 at 0
tx t1 transfer X Y 10 at 500
[seed]
1
[deadline]
1000
"""


@pytest.mark.parametrize("mode", ["baseline", "countermeasures"])
def test_id_arriving_again_after_its_status_counts_only_as_rejected(
    mode, collect_oracle
):
    config = parse_scenario(DUPLICATE_ID.format(mode=mode))
    out = run_attack(config, mode, config.seed)
    # The first t1 committed before its second copy arrived and was refused.
    assert collect_oracle == [out]
    assert out.ledgers["main"].balances == {"P": 995, "Q": 1005, "X": 990, "Y": 1010}
    assert out.status_counts == {
        "committed": 1, "conflict_failed": 0, "insufficient_funds": 0,
        "timeout": 0, "rejected": 1, "pending": 0,
    }
    assert out.pending == {"main": 0}
    assert out.submitted == 2


# -- the batch a runner is handed ----------------------------------------------------


def _generated(name):
    config = resolve_scenario(name)
    if config.attack.kind == "ordering_race":
        return replace(config, conflicts=ConflictSpec(
            wallets=tuple(config.balances), count=300, window=1000,
        ))
    return sweep_scenario(config, 300)


def _scripted(name):
    config = resolve_scenario(name)
    if isinstance(config.conflicts, ConflictSpec):
        # ddos_default generates its batch; script one like it.
        spec = replace(config.conflicts, count=300, seed=5)
        return replace(config, conflicts=generate_conflicting_set(spec))
    return config


def _fields(tx):
    """Everything a run must leave as it was handed over."""
    return (tx.id, repr(tx.payload), tx.channel, tx.submitter, tx.submit_time,
            tx.writes, tx.declared_deps, tx.reads)


def _observed(out):
    """A run's record plus the outcome fields the record leaves out."""
    return (MetricsRecord.from_outcome(out), out.phase_log, out.facts,
            out.ledgers, out.status_counts, out.peak_queue, out.dep_violations)


@pytest.mark.parametrize("modes", [
    ("baseline",), ("countermeasures",), ("baseline", "countermeasures"),
], ids=["baseline", "countermeasures", "both"])
@pytest.mark.parametrize("build", [_generated, _scripted])
@pytest.mark.parametrize("name", [
    "table2_block_withholding", "sec3b_double_spend", "table2_balance_attack",
    "ddos_default", "fig1_race",
])
def test_runner_leaves_the_batch_it_is_handed_unchanged(name, build, modes):
    # Runs in turn on the same trial give what each gives on a trial of its
    # own, and leave its batch and honest transactions as they were built.
    config = build(name)
    seed = config.seed
    trial = build_trial(config, seed)
    before = [[_fields(tx) for tx in txs] for txs in trial]
    outs = [run_attack(config, mode, seed, trial) for mode in modes]
    assert all(out.submitted > 0 for out in outs)
    assert [[_fields(tx) for tx in txs] for txs in trial] == before
    assert [_observed(out) for out in outs] == [
        _observed(run_attack(config, mode, seed, build_trial(config, seed)))
        for mode in modes
    ]


_BUNDLED = (
    "table2_block_withholding", "sec3b_double_spend", "table2_balance_attack",
    "ddos_default", "fig1_race",
)


# -- a batch cut at its horizon --------------------------------------------------


def _uncut(config, seed, monkeypatch):
    """The trial as ``build_trial`` builds it, with no horizon on its
    batch."""
    generate = attacks.generate_conflicting_set
    with monkeypatch.context() as m:
        m.setattr(attacks, "generate_conflicting_set",
                  lambda spec, horizon=None: generate(spec))
        return build_trial(config, seed)


def _lead(config):
    """How many transactions lead the generated part of the trial's batch:
    double spend's own transfer, ``dsx``."""
    return int(config.attack.kind == "double_spending")


def _batch_latency(config):
    submitter = config.conflicts.submitter
    if config.attack.kind != "ordering_race":
        submitter = next(n.id for n in config.topology.nodes
                         if n.role == "client" and n.is_adversary)
    return config.topology.client_latency(submitter)


@pytest.mark.parametrize("count", [1000, 10_000])
@pytest.mark.parametrize("name", _BUNDLED[:4])
def test_cut_batch_is_the_prefix_of_the_full_batch(name, count, monkeypatch):
    # Built up to the last submit time that still arrives (the first always),
    # and field by field the full batch's prefix.  Double spend's own
    # transfer leads its generated batch; the honest traffic is not cut.
    config = sweep_scenario(resolve_scenario(name), count)
    last = config.deadline - _batch_latency(config)
    lead = _lead(config)
    for seed in range(5):
        cut, cut_honest = build_trial(config, seed)
        full, full_honest = _uncut(config, seed, monkeypatch)
        assert len(full) == lead + count
        arriving = sum(tx.submit_time <= last for tx in full[lead:])
        assert len(cut) == lead + max(1, arriving)
        assert [_fields(tx) for tx in cut] == [_fields(tx) for tx in full[:len(cut)]]
        assert [_fields(tx) for tx in cut_honest] == [
            _fields(tx) for tx in full_honest
        ]


def _ddos_from_zero():
    # A DDoS batch with no burst time enters P1 by its first transaction.
    config = _generated("ddos_default")
    return replace(config, conflicts=replace(config.conflicts, start=0, window=1000))


@pytest.mark.parametrize("name", [*_BUNDLED, "ddos_from_zero"])
def test_cut_batch_gives_the_outcomes_of_the_full_batch(name, monkeypatch):
    # Deadlines before the first arrival (0 and one step before it), mid
    # batch, and after the last arrival.  The first deadlines cut all but
    # the first transaction.
    config = _ddos_from_zero() if name == "ddos_from_zero" else _generated(name)
    seed = config.seed
    full = _uncut(config, seed, monkeypatch)
    batch = full[0]
    lead = _lead(config)
    latency = _batch_latency(config)
    first = batch[lead].submit_time + latency
    last = max(tx.submit_time for tx in batch) + latency
    cut_lengths = []
    for deadline in (0, first - 1, (first + last) // 2, last + 1):
        trial = replace(config, deadline=max(0, deadline))
        cut_lengths.append(len(build_trial(trial, seed)[0]))
        for mode in ("baseline", "countermeasures"):
            assert _observed(run_attack(trial, mode, seed)) == _observed(
                run_attack(trial, mode, seed, full)
            ), (deadline, mode)
    assert cut_lengths[0] == cut_lengths[1] == lead + 1
    assert cut_lengths[-1] == len(batch)
    if first < last:  # a burst arrives all at once
        assert lead + 1 < cut_lengths[2] < len(batch)


@pytest.mark.parametrize("name", _BUNDLED)
def test_a_finished_pair_frees_itself(name):
    # With automatic collection off, reference counting alone frees a pair
    # of runs: of the bundled scenario, and of each attack's 1k sweep variant.
    config = resolve_scenario(name)
    configs = [config]
    if config.attack.kind != "ordering_race":
        configs.append(sweep_scenario(config, 1000))
    gc.collect()
    gc.disable()
    try:
        for config in configs:
            for mode in ("baseline", "countermeasures"):
                run_attack(config, mode, config.seed)
            assert gc.collect() == 0, config.conflict_count
    finally:
        gc.enable()


def _replay_by_full_scan(run, attacked, trial):
    """The balance replay's pick, kept as its oracle: the minimum, by submit
    time then id, of every pending attacked-channel transaction of the
    trial's valid list and batch, scanned in that order to the end."""
    batch, valid_txs = trial
    pending = run.arrived[attacked].difference(
        run.rejected, run.channels[attacked].statuses
    )
    if not pending:
        return None
    return min(
        (tx for tx in chain(valid_txs, batch)
         if tx.id in pending and tx.channel == attacked),
        key=lambda tx: (tx.submit_time, tx.id),
    )


@pytest.mark.parametrize("count", [None, 1000, 10_000])
def test_balance_replays_the_first_pending_transaction(count, monkeypatch):
    # The replayed id, and whether it commits on the reference chain, equal
    # the full scan's, seeds 0-9, both modes, run as a sweep runs them.
    config = resolve_scenario("table2_balance_attack")
    if count is not None:
        config = sweep_scenario(config, count)
    picks = []
    trials = []
    collect = SimulationRun.collect

    def building(config, seed):
        trials.append(build_trial(config, seed))
        return trials[-1]

    def recording(run, kind, facts):
        scanned = _replay_by_full_scan(run, facts["attacked_channel"], trials[-1])
        expected = (None, False)
        if scanned is not None:
            reference = run.channels[facts["reference_channel"]].ledger.copy()
            status = apply_transaction(reference, scanned)
            expected = (scanned.id, status is TxStatus.COMMITTED)
        picks.append(((facts["replayed_tx"], facts["replay_committed"]), expected))
        return collect(run, kind, facts)

    monkeypatch.setattr(harness, "build_trial", building)
    monkeypatch.setattr(SimulationRun, "collect", recording)
    run_trials(TrialPlan(scenario=config, trials=10, base_seed=0, lean=True))
    assert len(trials) == 10 and len(picks) == 20
    assert all(new == old for new, old in picks), picks
    if count is None:  # the pipeline leaves nothing pending here
        assert any(new[0] is None for new, _old in picks)
    assert any(new[0] is not None for new, _old in picks)


# -- linear replay oracle ------------------------------------------------------


def _replay(ledger, stream):
    """Replay an order stream serially on ``ledger``, as ``finalize`` commits
    with no stamp, and return the statuses.  A transaction one of whose
    declared dependencies has not committed earlier in the stream fails
    without applying, as the gate's abort does."""
    statuses = {}
    for tx in stream:
        if any(statuses.get(dep) is not TxStatus.COMMITTED
               for dep in tx.declared_deps):
            statuses[tx.id] = TxStatus.CONFLICT_FAILED
            continue
        status = apply_transaction(ledger, tx)
        if status is TxStatus.COMMITTED:
            ledger.committed_tx_count += 1
            ledger.height += bool(tx.writes)
        statuses[tx.id] = status
    return statuses


@pytest.mark.parametrize("name, count", [
    *((name, None) for name in _BUNDLED), *((name, 1000) for name in _BUNDLED[:4]),
])
def test_pipeline_run_equals_the_linear_replay_of_its_order_stream(
    name, count, monkeypatch
):
    # Each channel's statuses and final ledger equal a serial replay of its
    # order stream from the initial ledger: on the bundled scenarios and on
    # each attack's 1k sweep variant, in countermeasures mode, seeds 0-2.
    config = resolve_scenario(name)
    if count is not None:
        config = sweep_scenario(config, count)
    _record_submissions(monkeypatch)
    init, collect = SimulationRun.__init__, SimulationRun.collect
    replayed = []

    def recording(run, *args):
        init(run, *args)
        run.initial = {ch: s.ledger.copy() for ch, s in run.channels.items()}

    def checking(run, kind, facts):
        for ch, state in run.channels.items():
            stream = state.order_stream
            assert len({tx.id for tx in stream}) == len(stream)
            # The stream holds the submitted transactions themselves.
            assert all(run.submitted[tx.id] is tx and tx.channel == ch
                       for tx in stream)
            ledger = run.initial[ch]
            statuses = _replay(ledger, stream)
            # Every status but a client timeout comes from the stream.
            assert statuses == {tx_id: st for tx_id, st in state.statuses.items()
                                if st is not TxStatus.TIMEOUT}
            assert ledger == state.ledger
            replayed.append(len(stream))
        return collect(run, kind, facts)

    monkeypatch.setattr(SimulationRun, "__init__", recording)
    monkeypatch.setattr(SimulationRun, "collect", checking)
    for seed in range(3):
        run_attack(config, "countermeasures", seed)
    assert sum(replayed) > 0
