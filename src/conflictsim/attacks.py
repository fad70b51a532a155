"""Attack orchestration: scripted adversary behaviours over the simulation.

Each attack runs as event handlers on the engine with an explicit phase log
and a success predicate that is recomputable from the recorded outcome
fields.  ``build_trial`` builds every transaction of a trial once, from the
trial seed: the conflicting batch, from the scenario's conflict source, and
the attack's own honest traffic (targeted transfers, valid background
workload).  The runner of each mode submits them as they are.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import attrgetter

from .core import (
    LedgerState,
    Transaction,
    Transfer,
    TxStatus,
    apply_transaction,
    stamp_read_versions,
    transfer_tx,
    query_tx,
)
from .ordering import (
    BASELINE,
    BaselineOrderingService,
    ChannelState,
    PipelineOrderingService,
    _ACCEPTED,
)
from .simnet import Engine
from .workload import ConflictSpec, ScenarioConfig, generate_conflicting_set

# Block withholding redirects every PROFIT_STRIDE-th transfer of a generated
# batch, counting from the first, into the attacker's wallet.
PROFIT_STRIDE = 3


class PhaseRecorder:
    """Phase log with strictly increasing entry timestamps."""

    def __init__(self):
        self.log: list[tuple[str, int]] = []
        self._entered: set[str] = set()

    def enter(self, phase: str, t: int) -> None:
        if phase in self._entered:
            return
        if self.log and t <= self.log[-1][1]:
            t = self.log[-1][1] + 1
        self._entered.add(phase)
        self.log.append((phase, t))

    def entered(self, phase: str) -> bool:
        return phase in self._entered


@dataclass
class AttackOutcome:
    kind: str
    policy_mode: str
    seed: int
    success: bool
    phase_log: list[tuple[str, int]]
    ledgers: dict[str, LedgerState]
    chain_sizes: dict[str, int]
    pending: dict[str, int]
    status_counts: dict[str, int]
    submitted: int
    conflict_count: int
    peak_mempool: int
    peak_queue: int
    makespan: int
    dep_violations: int
    facts: dict[str, object] = field(default_factory=dict)


_TERMINAL = tuple(st for st in TxStatus if st.terminal)

_SUBMIT_TIME = attrgetter("submit_time")
_CHANNEL = attrgetter("channel")
_ID = attrgetter("id")
_REPLAY_ORDER = attrgetter("submit_time", "id")


def recompute_success(outcome: AttackOutcome) -> bool:
    """Re-derive the success flag from recorded outcome fields only."""
    facts = outcome.facts
    kind = outcome.kind
    if kind == "block_withholding":
        return (not facts["target_committed"]) and facts["attacker_delta"] > 0
    if kind == "double_spending":
        return (
            facts["double_spend_committed"]
            and not facts["valid_committed"]
            and facts["asset_delivered"]
        )
    if kind == "balance":
        lagging = facts["attacked_channel"]
        reference = facts["reference_channel"]
        return (
            outcome.chain_sizes[reference] > outcome.chain_sizes[lagging]
            and facts["replay_committed"]
        )
    if kind == "ddos":
        overflowed = outcome.peak_mempool >= facts["mempool_capacity"]
        return overflowed and facts["valid_fail_rate"] > facts["theta"]
    if kind == "ordering_race":
        return outcome.dep_violations >= 1
    raise ValueError(f"unknown attack kind {kind}")


def clone_tx(tx: Transaction) -> Transaction:
    # Field-by-field copy; every field is immutable or only ever rebound, so
    # sharing them is safe.  Skips __init__ (and its validation, which the
    # source already passed).
    dup = Transaction.__new__(Transaction)
    dup.id = tx.id
    dup.payload = tx.payload
    dup.channel = tx.channel
    dup.submitter = tx.submitter
    dup.reads = tx.reads
    dup.writes = tx.writes
    dup.declared_deps = tx.declared_deps
    dup.submit_time = tx.submit_time
    return dup


class SimulationRun:
    """Shared machinery: channels, ordering services, submission plumbing."""

    def __init__(self, config: ScenarioConfig, mode: str, seed: int):
        self.config = config
        self.seed = seed
        policy = replace(config.policy, mode=mode)
        self.policy = policy
        self.engine = Engine(seed=seed * 4 + 3, topology=config.topology)
        self.phases = PhaseRecorder()
        self.channels: dict[str, ChannelState] = {}
        self.services: dict[
            str, BaselineOrderingService | PipelineOrderingService
        ] = {}
        self.valid_ids: set[str] = set()
        self.rejected: set[str] = set()  # ids an admission rejected
        # Ids that arrived, per channel.
        self.arrived: dict[str, set[str]] = {ch: set() for ch in config.channels}
        self.pinned = dict(config.pinned_orderers)
        self._requests: list = []
        # The batch's arriving prefix, in submit-time order.
        self._batch: list[Transaction] = []
        self.conflict_count = config.conflict_count

        kind = config.attack.kind
        init_height = config.param("initial_height")
        init_count = config.param("initial_tx_count")
        for channel in config.channels:
            ledger = LedgerState.from_balances(
                config.balances, height=init_height, tx_count=init_count
            )
            state = ChannelState(channel, ledger)
            self.channels[channel] = state
            peers = [
                n for n in config.topology.nodes
                if n.role == "peer" and channel in n.channels
            ]
            peer_id = peers[0].id if peers else None
            orderers = config.topology.orderers(channel)
            honest = [o for o in orderers if not o.is_adversary]
            if policy.mode == BASELINE:
                # The adversary orderer participates in the shared pull loop
                # only when it is not busy withholding (block withholding
                # manages it out of band).
                cycling = honest if kind == "block_withholding" else orderers
                self.services[channel] = BaselineOrderingService(
                    self.engine, state, cycling, policy, peer_id, self.pinned
                )
            else:
                withheld = None
                if kind == "block_withholding":
                    for i, node in enumerate(orderers):
                        if node.is_adversary:
                            withheld = i % policy.workers
                            break
                self.services[channel] = PipelineOrderingService(
                    self.engine, state, policy, peer_id,
                    withheld_worker=withheld, worker_nodes=orderers,
                )

    # -- submission plumbing ------------------------------------------------

    def submit(
        self,
        tx: Transaction,
        *,
        valid: bool,
        via: str | None = None,
        timeout: int | None = None,
        on_arrival=None,
    ) -> None:
        """Plan endorsement + admission at submit_time + client latency.

        ``on_arrival(tx)`` runs first at the arrival; returning True
        intercepts the transaction before admission.  A transaction that
        would arrive after the deadline is not planned: the engine would
        never fire its arrival, and everything read after the run
        (collection, the balance replay, the DDoS failure rate) looks only
        at arrived transactions, in ``arrived``.
        """
        self._requests.append(
            (False, tx, via or tx.submitter, on_arrival, valid, timeout)
        )

    def submit_batch(
        self, txs: list[Transaction], *, via: str, first_phase: str | None = None
    ) -> None:
        """Plan an adversary batch sent through client ``via``, in
        submit-time order, and enter ``first_phase`` when its first
        transaction arrives.

        The batch arrives as ``submit(tx, valid=False, via=via)`` for each
        transaction in order would, but costs nothing per transaction to
        plan: its arriving prefix goes to the engine as one sorted run, and
        its ids join ``arrived`` in one update after the run.
        """
        self._requests.append((True, txs, via, first_phase, False, None))

    def _flush_submissions(self) -> None:
        # Schedule the requests in submission order, so equal-time arrivals
        # fire in that order, testing the deadline with the client latency
        # looked up once per request.
        deadline = self.config.deadline
        engine = self.engine
        client_latency = self.config.topology.client_latency
        for is_batch, sent, via, hook, valid, timeout in self._requests:
            latency = client_latency(via)
            last = deadline - latency  # the latest submit time that arrives
            if is_batch:
                arriving = bisect_right(sent, last, key=_SUBMIT_TIME)
                if arriving:
                    prefix = sent if arriving == len(sent) else sent[:arriving]
                    if hook is not None:
                        engine.schedule_call(
                            prefix[0].submit_time + latency, self._on_phase, hook
                        )
                    engine.schedule_sorted(
                        self._on_arrivals, prefix, _SUBMIT_TIME, latency
                    )
                    self._batch = prefix
            elif sent.submit_time <= last:
                if valid:
                    self.valid_ids.add(sent.id)
                engine.schedule_call(
                    sent.submit_time + latency, self._on_single,
                    (sent, hook, timeout),
                )
        self._requests = []

    def _on_single(self, engine: Engine, single) -> None:
        tx, hook, timeout = single
        self.arrived[tx.channel].add(tx.id)
        if hook is not None and hook(tx):
            return  # intercepted (e.g. withheld by the adversary)
        if self._on_arrivals(engine, tx) and timeout is not None:
            engine.schedule_call(engine.now + timeout, self._on_timeout, tx)

    def _on_arrivals(self, engine: Engine, tx: Transaction) -> bool:
        """Admit an arrived transaction; True if its service accepted it."""
        outcome = self.services[tx.channel].admit(tx)
        if outcome is _ACCEPTED:
            return True
        self.rejected.add(tx.id)
        return False

    def _on_phase(self, engine: Engine, phase: str) -> None:
        self.phases.enter(phase, engine.now)

    def _on_timeout(self, engine: Engine, tx: Transaction) -> None:
        state = self.channels[tx.channel]
        if state.status(tx.id).terminal:
            return
        self.services[tx.channel].discard(tx.id)
        state.set_status(tx, TxStatus.TIMEOUT)

    def phase_marker(self, phase: str):
        """Arrival hook that records a phase without intercepting."""

        def hook(tx: Transaction) -> bool:
            self.phases.enter(phase, self.engine.now)
            return False

        return hook

    # -- collection -----------------------------------------------------------

    def run_until_deadline(self) -> None:
        self._flush_submissions()
        self.engine.run_until(self.config.deadline)
        # The whole arriving prefix of the batch has arrived by now.
        arrived = self.arrived
        for channel, txs in groupby(self._batch, key=_CHANNEL):
            arrived[channel].update(map(_ID, txs))

    def collect(self, kind: str, facts: dict) -> AttackOutcome:
        """Gather the run's outcome; success comes from its recorded facts
        through ``recompute_success``, the one predicate per attack.  Every
        runner calls it last: the run ends here.

        Counts come from each channel's status registry and its arrived
        ids.  An id counts as rejected if any arrival of it was rejected;
        otherwise it counts on the channel it arrived on, by its terminal
        status there or as pending."""
        # The events left past the deadline and the runners' listeners point
        # back into the run; dropping them lets reference counting free it.
        self.engine.drop_pending()
        for state in self.channels.values():
            state.terminal_listeners.clear()
        rejected = self.rejected
        statuses = {st.value: 0 for st in _TERMINAL}
        statuses["rejected"] = len(rejected)
        pending: dict[str, int] = {}
        for ch, state in self.channels.items():
            registry = state.statuses
            tally = Counter(registry.values())
            for tx_id in registry.keys() & rejected:
                tally[registry[tx_id]] -= 1
            arrived = self.arrived[ch]
            live = len(arrived) - len(arrived.intersection(rejected))
            for st in _TERMINAL:
                statuses[st.value] += tally[st]
                live -= tally[st]
            pending[ch] = live
        statuses["pending"] = sum(pending.values())
        services = self.services.values()
        outcome = AttackOutcome(
            kind=kind,
            policy_mode=self.policy.mode,
            seed=self.seed,
            success=False,
            phase_log=list(self.phases.log),
            ledgers={ch: s.ledger for ch, s in self.channels.items()},
            chain_sizes={ch: s.ledger.height for ch, s in self.channels.items()},
            pending=pending,
            status_counts=statuses,
            submitted=sum(len(ids) for ids in self.arrived.values()),
            conflict_count=self.conflict_count,
            peak_mempool=max(s.peak_pool for s in services),
            peak_queue=max(s.peak_queue for s in services),
            makespan=min(self.engine.last_event_time, self.config.deadline),
            dep_violations=sum(
                s.dependency_violations() for s in self.channels.values()
            ),
            facts=facts,
        )
        outcome.success = recompute_success(outcome)
        return outcome


Trial = tuple[list[Transaction], list[Transaction]]


def build_trial(config: ScenarioConfig, seed: int) -> Trial:
    """Every transaction the trial submits, as ``(batch, honest)``: built
    once, and submitted as they are by the run of each mode.

    ``batch`` is the conflicting batch, shaped for its attack and in
    submit-time order.  A generated batch is drawn on the attack's channel
    (the file's own for the ordering race).  Double spend's starts with its
    own transfer, ``dsx``.  Block withholding redirects every
    ``PROFIT_STRIDE``-th transfer into the attacker's wallet: the attack's
    point is a balance increase, not neutral churn.  The redirect follows
    generation and its isolation repair and draws nothing.  A scripted list
    is cloned, onto the first channel for block withholding and DDoS, and
    stable-sorted by submit time.

    A generated batch stops at its horizon: the deadline less the latency of
    the client that sends it, the bound ``_flush_submissions`` tests, so no
    transaction is built that could not arrive (the first always is).

    ``honest`` is the runner's own traffic: block withholding's target,
    double spend's valid transfer, the balance attack's valid transfers and
    DDoS's background traffic.
    """
    kind = config.attack.kind
    client = _client_of(config, adversary=False)
    honest: list[Transaction] = []
    if kind == "block_withholding":
        _attacker, src, dst = config.attack_wallets()
        honest.append(transfer_tx(
            "target", src, dst, config.param("target_amount"),
            channel=config.channels[0], submitter=client,
            submit_time=config.param("target_submit"),
        ))
    elif kind == "double_spending":
        src, victim, _alt = config.attack_wallets()
        honest.append(transfer_tx(
            "valid", src, victim, config.param("amount"),
            channel=config.channels[0], submitter=client,
            submit_time=config.param("valid_submit"),
        ))
    elif kind == "balance":
        _balance_valid(config, client, honest)
    elif kind == "ddos":
        _ddos_background(config, seed, client, honest)
    source = config.conflicts
    if not isinstance(source, ConflictSpec):
        batch = sorted(map(clone_tx, source), key=_SUBMIT_TIME)
        if kind in ("block_withholding", "ddos"):
            channel = config.channels[0]
            for tx in batch:
                tx.channel = channel
        return batch, honest
    channel = source.channel
    if kind == "balance":
        channel = config.param("attacked_channel")
    elif kind != "ordering_race":
        channel = config.channels[0]
    start = source.start
    if kind == "double_spending":
        start += _lead_time(config) + 1
    # The ordering race submits each transaction through its own submitter.
    via = source.submitter
    if kind != "ordering_race":
        via = _client_of(config, adversary=True)
    batch = generate_conflicting_set(
        replace(source, seed=seed * 4 + 1, channel=channel, start=start),
        horizon=config.deadline - config.topology.client_latency(via),
    )
    if kind == "double_spending":
        src, _victim, alt = config.attack_wallets()
        batch.insert(0, transfer_tx(
            "dsx", src, alt, config.param("amount"), channel=channel,
            submitter=via, submit_time=_lead_time(config),
        ))
    elif kind == "block_withholding":
        attacker = config.attack_wallets()[0]
        for tx in batch[::PROFIT_STRIDE]:
            payload = tx.payload
            if not isinstance(payload, Transfer) or payload.dst == attacker:
                continue
            src = payload.src if payload.src != attacker else payload.dst
            tx.payload = Transfer(src, attacker, payload.amount)
            tx.writes = frozenset((src, attacker))
            tx.reads = (src, attacker)
    return batch, honest


def _balance_valid(config: ScenarioConfig, client: str, out: list) -> None:
    pool = config.pool_wallets("pool_prefix")
    amount = config.param("valid_amount")
    spacing = config.param("valid_spacing")
    initial_pending = config.param("initial_pending")
    latency = config.topology.client_latency(client)

    def add(tx_id: str, k: int, channel: str, submit_time: int) -> None:
        k %= len(pool) // 2
        out.append(transfer_tx(
            tx_id, pool[2 * k], pool[2 * k + 1], amount, channel=channel,
            submitter=client, submit_time=submit_time,
        ))

    def build(channel: str, head: int, tail: int, tail_start: int) -> None:
        for i in range(initial_pending):
            add(f"pre-{channel}-{i:03d}", i, channel, -latency)  # arrives at t=0
        for i in range(head):
            add(f"val-{channel}-{i:03d}", initial_pending + i, channel,
                spacing * (i + 1) - latency)
        for i in range(tail):
            add(f"val-{channel}-{head + i:03d}", initial_pending + head + i,
                channel, tail_start + spacing * i - latency)

    build(
        config.param("attacked_channel"),
        config.param("valid_head"),
        config.param("valid_tail"),
        config.param("tail_start"),
    )
    build(config.param("reference_channel"), config.param("valid_reference"), 0, 0)


def _ddos_background(
    config: ScenarioConfig, seed: int, client: str, out: list
) -> None:
    # Read-heavy, from its own seeded draws.
    valid_pool = config.pool_wallets("valid_pool_prefix")
    channel = config.channels[0]
    valid_rng = random.Random(seed * 4 + 2)
    valid_window = config.param("valid_window")
    read_ratio = config.param("valid_read_ratio")
    for i in range(config.param("valid_count")):
        t = valid_rng.randint(0, valid_window)
        if valid_rng.random() < read_ratio:
            wallet = valid_pool[valid_rng.randrange(len(valid_pool))]
            out.append(query_tx(f"hon{i:04d}", (wallet,), channel=channel,
                                submitter=client, submit_time=t))
        else:
            a, b = valid_rng.sample(range(len(valid_pool)), 2)
            out.append(transfer_tx(
                f"hon{i:04d}", valid_pool[a], valid_pool[b],
                valid_rng.randint(1, 20), channel=channel, submitter=client,
                submit_time=t,
            ))


# -- block withholding ---------------------------------------------------------


def run_block_withholding(
    config: ScenarioConfig, mode: str, seed: int, trial: Trial
) -> AttackOutcome:
    batch, (target,) = trial
    attacker_wallet = config.attack_wallets()[0]
    variant = config.param("variant")

    run = SimulationRun(config, mode, seed)
    state = run.channels[target.channel]
    run.phases.enter("P1", target.submit_time)

    withheld: list[tuple[Transaction, dict[str, int]]] = []

    def intercept(tx: Transaction) -> bool:
        # The adversary orderer validates the endorsed transaction, then
        # holds it instead of broadcasting (baseline only; the pipeline's
        # withheld worker models the same behaviour under countermeasures).
        # A release commits the withheld transaction with this stamp.
        if run.policy.mode == BASELINE:
            run.phases.enter("P2", run.engine.now)
            withheld.append((tx, stamp_read_versions(tx, state.ledger)))
            return True
        run.phases.enter("P2", run.engine.now)
        return False

    run.submit(target, valid=True, on_arrival=intercept)
    run.submit_batch(
        batch, via=_client_of(config, adversary=True), first_phase="P3"
    )

    if variant == "release":
        def release(engine: Engine, _payload) -> None:
            run.phases.enter("P5", engine.now)
            for tx, stamp in withheld:
                state.finalize(tx, stamp)

        run.engine.schedule_call(config.param("release_at"), release)

    run.run_until_deadline()

    if variant != "release":
        run.phases.enter("P4", config.deadline)
        for tx, _stamp in withheld:
            if not state.status(tx.id).terminal:
                state.set_status(tx, TxStatus.TIMEOUT)
    elif withheld and not run.phases.entered("P5"):
        run.phases.enter("P5", config.deadline)

    target_status = state.status("target")
    if run.policy.mode != BASELINE and not target_status.terminal:
        # Pipeline run where the attack group landed on the withheld worker.
        run.phases.enter("P4", config.deadline)
    attacker_delta = state.ledger.balances[attacker_wallet] - config.balances[
        attacker_wallet
    ]
    facts = {
        "target_committed": target_status is TxStatus.COMMITTED,
        # Only the target is intercepted; a release past the deadline leaves
        # it held.
        "target_status": (
            "withheld" if withheld and not target_status.terminal
            else target_status.value
        ),
        "attacker_delta": attacker_delta,
        "variant": variant,
    }
    return run.collect("block_withholding", facts)


# -- double spending -------------------------------------------------------------


def _lead_time(config: ScenarioConfig) -> int:
    """When double spend sends its own transfer, 12 after the valid one; a
    generated batch follows."""
    return config.param("valid_submit") + 12


def run_double_spending(
    config: ScenarioConfig, mode: str, seed: int, trial: Trial
) -> AttackOutcome:
    batch, (valid,) = trial
    run = SimulationRun(config, mode, seed)
    state = run.channels[valid.channel]
    endorse_withheld = config.param("endorse_withheld")
    asset_delivered = [False]

    valid_orderer = config.param("valid_orderer")
    if valid_orderer is not None:
        run.pinned["valid"] = valid_orderer
    run.phases.enter("P1", valid.submit_time)

    def on_valid_arrival(tx: Transaction) -> bool:
        # P2: the victim releases the off-chain asset on endorsement proof.
        if not endorse_withheld:
            asset_delivered[0] = True
            run.phases.enter("P2", run.engine.now)
        return False

    run.submit(valid, valid=True, on_arrival=on_valid_arrival)
    ds_id = "dsx"  # leads a generated batch; a scripted one names its own
    run.submit_batch(
        batch, via=_client_of(config, adversary=True), first_phase="P3"
    )

    def watch(tx: Transaction, status: TxStatus) -> None:
        if tx.id == ds_id:
            run.phases.enter("P4", run.engine.now)
        elif tx.id == "valid":
            run.phases.enter("P5", run.engine.now)

    state.terminal_listeners.append(watch)
    run.run_until_deadline()
    run.phases.enter("P4", config.deadline)

    ds_committed = state.status(ds_id) is TxStatus.COMMITTED
    valid_committed = state.status("valid") is TxStatus.COMMITTED
    facts = {
        "double_spend_committed": ds_committed,
        "valid_committed": valid_committed,
        "asset_delivered": asset_delivered[0],
        "valid_status": state.status("valid").value,
    }
    return run.collect("double_spending", facts)


# -- balance attack ---------------------------------------------------------------


def run_balance_attack(
    config: ScenarioConfig, mode: str, seed: int, trial: Trial
) -> AttackOutcome:
    batch, valid_txs = trial
    attacked = config.param("attacked_channel")
    reference = config.param("reference_channel")

    run = SimulationRun(config, mode, seed)
    for tx in valid_txs:
        run.submit(tx, valid=True)

    run.submit_batch(
        batch, via=_client_of(config, adversary=True), first_phase="P1"
    )

    ref_state = run.channels[reference]
    att_state = run.channels[attacked]

    def watch(tx: Transaction, status: TxStatus) -> None:
        if run.phases.entered("P1"):
            if tx.channel == reference and status is TxStatus.COMMITTED:
                run.phases.enter("P2", run.engine.now)
            if tx.channel == attacked and tx.id not in run.valid_ids \
                    and status is not TxStatus.COMMITTED:
                run.phases.enter("P3", run.engine.now)

    ref_state.terminal_listeners.append(watch)
    att_state.terminal_listeners.append(watch)

    run.run_until_deadline()
    run.phases.enter("P2", config.deadline)
    run.phases.enter("P3", config.deadline)
    run.phases.enter("P4", config.deadline)

    # P5 epilogue: replay the first still-pending attacked-channel transaction
    # (by submit time, then id, a valid one first on a tie) on the reference
    # chain, endorsed there now (validated on a copy so recorded metrics stay
    # a deadline snapshot).  An id's status is terminal exactly when it is in
    # the status map.  The batch is in submit-time order, so its walk stops
    # past the first submit time that holds a candidate.
    pending = run.arrived[attacked].difference(run.rejected, att_state.statuses)
    replay_committed = False
    replayed = None
    if pending:
        first = min(
            (tx for tx in valid_txs
             if tx.id in pending and tx.channel == attacked),
            key=_REPLAY_ORDER, default=None,
        )
        for tx in batch:
            if first is not None and tx.submit_time > first.submit_time:
                break
            if tx.id in pending and tx.channel == attacked and (
                first is None or _REPLAY_ORDER(tx) < _REPLAY_ORDER(first)
            ):
                first = tx
        replayed = first.id
        st = apply_transaction(ref_state.ledger.copy(), first)
        replay_committed = st is TxStatus.COMMITTED
        run.phases.enter("P5", config.deadline + 1)

    facts = {
        "attacked_channel": attacked,
        "reference_channel": reference,
        "replay_committed": replay_committed,
        "replayed_tx": replayed,
        "initial_pending": config.param("initial_pending"),
    }
    return run.collect("balance", facts)


# -- DDoS --------------------------------------------------------------------------


def run_ddos(
    config: ScenarioConfig, mode: str, seed: int, trial: Trial
) -> AttackOutcome:
    batch, background = trial
    channel = config.channels[0]

    run = SimulationRun(config, mode, seed)
    state = run.channels[channel]
    for tx in background:
        run.submit(tx, valid=True, timeout=run.policy.client_timeout)

    burst = isinstance(config.conflicts, ConflictSpec) and config.conflicts.start or 0
    run.phases.enter("P1", max(0, (burst or batch[0].submit_time) - 1))
    run.submit_batch(
        batch, via=_client_of(config, adversary=True), first_phase="P2"
    )

    run.run_until_deadline()
    run.phases.enter("P3", config.deadline)

    failed = 0
    submitted_valid = run.valid_ids & run.arrived[channel]
    for tx_id in submitted_valid:
        if tx_id in run.rejected:
            failed += 1  # admission rejection surfaces as a client timeout
            continue
        if state.status(tx_id) in (TxStatus.TIMEOUT, TxStatus.CONFLICT_FAILED):
            failed += 1
    rate = failed / len(submitted_valid) if submitted_valid else 0.0

    capacity = run.policy.mempool_capacity
    peak = run.services[channel].peak_pool
    facts = {
        "mempool_capacity": capacity,
        "overflowed": peak >= capacity,
        "valid_fail_rate": rate,
        "theta": config.param("theta"),
        "n_accounts": config.param("n_accounts"),
    }
    return run.collect("ddos", facts)


# -- ordering race probe -------------------------------------------------------------


def run_ordering_race(
    config: ScenarioConfig, mode: str, seed: int, trial: Trial
) -> AttackOutcome:
    batch, _honest = trial
    run = SimulationRun(config, mode, seed)
    first = True
    for tx in batch:
        hook = run.phase_marker("P1") if first else None
        first = False
        run.submit(tx, valid=True, on_arrival=hook)
    run.run_until_deadline()
    run.phases.enter("P2", config.deadline)
    run.phases.enter("P3", config.deadline)
    return run.collect("ordering_race", {})


# -- dispatch ---------------------------------------------------------------------


_RUNNERS = {
    "block_withholding": run_block_withholding,
    "double_spending": run_double_spending,
    "balance": run_balance_attack,
    "ddos": run_ddos,
    "ordering_race": run_ordering_race,
}


def run_attack(
    config: ScenarioConfig, mode: str, seed: int, trial: Trial | None = None,
) -> AttackOutcome:
    """Run one trial in one mode.  ``trial`` is the trial's transactions
    from ``build_trial``, built here when not given; the runner submits them
    as they are, builds no transaction and assigns no attribute of one."""
    if trial is None:
        trial = build_trial(config, seed)
    return _RUNNERS[config.attack.kind](config, mode, seed, trial)


def _client_of(config: ScenarioConfig, adversary: bool) -> str:
    for node in config.topology.nodes:
        if node.role == "client" and node.is_adversary == adversary:
            return node.id
    for node in config.topology.nodes:
        if node.role == "client":
            return node.id
    return config.topology.nodes[0].id

