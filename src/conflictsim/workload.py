"""Conflicting-transaction generation and scenario file handling.

Scenario files are a line-oriented text format with the sections
topology / balances / attack / policy / conflicts / seed / deadline.
The conflicts section is either a single ``generate`` directive (a seeded
synthetic bank-transfer batch over a small wallet set) or an explicit
``tx`` list used by the scripted attack reproductions, which pin amounts,
submit times and orderer assignments.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from .core import Query, Transaction, Transfer, query_tx, transfer_tx
from .errors import (
    InfeasibleSpecError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .ordering import BASELINE, COUNTERMEASURES, OrderingPolicy
from .simnet import NodeConfig, Topology

ATTACK_KINDS = (
    "block_withholding",
    "double_spending",
    "balance",
    "ddos",
    "ordering_race",
)


@dataclass(eq=True)
class ConflictSpec:
    """Parameters for one synthetic conflicting batch."""

    wallets: tuple[str, ...]
    count: int
    window: int
    seed: int = 0
    mix_query: float = 0.0
    channel: str = "main"
    submitter: str = "adversary"
    start: int = 0
    id_prefix: str = "cx"

    def __post_init__(self):
        self.wallets = tuple(sorted(set(self.wallets)))
        if self.count < 1:
            raise InfeasibleSpecError("conflict count must be at least 1")
        if len(self.wallets) < 2:
            raise InfeasibleSpecError("conflicts need at least two wallets")
        if self.window < 0 or self.start < 0:
            raise InfeasibleSpecError("window and start must be non-negative")
        if not 0.0 <= self.mix_query <= 1.0:
            raise InfeasibleSpecError("query mix must be within [0, 1]")


# Transaction ids by (prefix, digits), shared by every batch: a batch of n
# transactions reads the first n, and a table grows to the largest count
# asked for, so a sweep formats each id once instead of once per trial.
# An entry depends only on its key and index, so sharing changes no result.
_ID_TABLES: dict[tuple[str, int], tuple[str, ...]] = {}


def transaction_ids(prefix: str, count: int, digits: int) -> tuple[str, ...]:
    """At least ``count`` ids: ``prefix`` followed by 0, 1, ... zero-padded
    to ``digits`` (longer numbers keep every digit)."""
    key = (prefix, digits)
    table = _ID_TABLES.get(key, ())
    if len(table) < count:
        table += tuple(f"{prefix}{i:0{digits}d}" for i in range(len(table), count))
        _ID_TABLES[key] = table
    return table


def generate_conflicting_set(
    spec: ConflictSpec, horizon: int | None = None
) -> list[Transaction]:
    """Produce ``spec.count`` transactions over a shared wallet set such that
    every one conflicts with at least one other.

    Transfers draw amounts from [1, 20]; submit times spread uniformly over
    the window.  Queries on one wallet share one ``Query`` payload, and an
    unrepaired query's ``reads`` is that payload's ``wallets``.
    Deterministic in ``spec.seed``.

    With a ``horizon``, return only the prefix of that batch submitted at
    or before it, and always its first transaction.  The isolation repair
    still sees the whole batch: the transactions past the horizon are
    drawn and counted while the counts can still change a repair, but
    never built.
    """
    transfer_mix = 1.0 - spec.mix_query
    if spec.count == 1:
        raise InfeasibleSpecError("a single transaction cannot conflict")
    if len(spec.wallets) < 2 and transfer_mix > 0:
        raise InfeasibleSpecError("transfers need at least two wallets")
    if transfer_mix <= 0.0:
        raise InfeasibleSpecError("an all-query batch cannot conflict")

    rng = random.Random(spec.seed)
    rand = rng.random
    mix = spec.mix_query
    count = spec.count
    span = spec.window + 1
    times = sorted([int(rand() * span) for _ in range(count)])
    start = spec.start
    built = count
    if horizon is not None:
        built = max(1, bisect_right(times, horizon - start))
    wallets = list(spec.wallets)
    pair_writes = {}
    n = len(wallets)
    # Per wallet index: transfers writing it and queries reading it.  They
    # decide which transactions the conflict graph leaves isolated.
    written = [0] * n
    queried = [0] * n
    # Query payloads by wallet index, built on first use; nothing writes
    # into a payload.
    queries: list[Query | None] = [None] * n
    txs: list[Transaction] = []
    new = Transaction.__new__
    empty = frozenset()
    channel = spec.channel
    submitter = spec.submitter
    ids = transaction_ids(spec.id_prefix, built, 5)
    for i in range(built):
        # Construction bypasses dataclass validation: the generator only
        # emits well-formed payloads, with reads as __post_init__ builds
        # them, and this path is white-hot in sweeps.
        tx = new(Transaction)
        tx.id = ids[i]
        tx.channel = channel
        tx.submitter = submitter
        tx.declared_deps = ()
        tx.submit_time = start + times[i]
        # The first element is always a transfer so the batch has a writer
        # for the conflict-density repair below to anchor on.
        if i > 0 and rand() < mix:
            k = int(rand() * n)
            queried[k] += 1
            query = queries[k]
            if query is None:
                query = queries[k] = Query((wallets[k],))
            tx.payload = query
            tx.reads = query.wallets
            tx.writes = empty
        else:
            a = int(rand() * n)
            b = int(rand() * (n - 1))
            if b >= a:
                b += 1
            written[a] += 1
            written[b] += 1
            src, dst = wallets[a], wallets[b]
            tx.payload = Transfer(src, dst, 1 + int(rand() * 20))
            tx.reads = (src, dst)
            key = (a, b)
            writes = pair_writes.get(key)
            if writes is None:
                writes = frozenset((src, dst))
                pair_writes[key] = writes
            tx.writes = writes
        txs.append(tx)
    # The rest of the batch, past the horizon: the same draws and counts,
    # plus the first transfer's source, which can anchor the first
    # transaction's repair.  The repair only asks whether a wallet was
    # written never, once or more often; once every wallet is written
    # twice, no later draw can change its answer, so none is made.
    late_src = None
    for _ in range(built, count) if min(written) < 2 else ():
        if rand() < mix:
            queried[int(rand() * n)] += 1
        else:
            a = int(rand() * n)
            b = int(rand() * (n - 1))
            if b >= a:
                b += 1
            written[a] += 1
            written[b] += 1
            rand()  # the amount
            if late_src is None:
                late_src = wallets[a]
    # Repair conflict-graph isolation.  A transfer is isolated when nothing
    # else touches either of its wallets, a query when nothing writes its
    # wallet; the batch is scanned only when some wallet allows either.
    # Every isolated transaction gains a read of the first other transfer's
    # source wallet in the whole batch, appended to its reads: the first
    # transaction's source for all but the first, whose anchor may lie past
    # the horizon.
    once = {wallets[k] for k in range(n) if written[k] == 1 and not queried[k]}
    unwritten = {wallets[k] for k in range(n) if queried[k] and not written[k]}
    if once or unwritten:

        def isolated(tx: Transaction) -> bool:
            p = tx.payload
            if isinstance(p, Transfer):
                return p.src in once and p.dst in once
            return p.wallets[0] in unwritten

        first = txs[0]
        for tx in filter(isolated, txs):
            if tx is not first:
                anchor = first.payload.src
            else:
                anchor = next(
                    (other.payload.src for other in txs[1:]
                     if isinstance(other.payload, Transfer)),
                    late_src,
                )
            if anchor is not None:  # another transfer writes it: not read yet
                tx.reads += (anchor,)
    return txs


# -- scenario configuration ----------------------------------------------------


@dataclass(eq=True)
class AttackSpec:
    kind: str
    params: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ScenarioValidationError(f"unknown attack kind {self.kind!r}")

    def p_str(self, name: str, default: str | None = None) -> str:
        value = self.params.get(name, default)
        if value is None:
            raise ScenarioValidationError(f"attack param {name!r} is required")
        return value

    def p_int(self, name: str, default: int | None = None) -> int:
        if name not in self.params:
            if default is None:
                raise ScenarioValidationError(f"attack param {name!r} is required")
            return default
        return int(self.params[name])

    def p_float(self, name: str, default: float) -> float:
        return float(self.params.get(name, default))


@dataclass(eq=True)
class ScenarioConfig:
    topology: Topology
    balances: dict[str, int]
    attack: AttackSpec
    policy: OrderingPolicy
    conflicts: ConflictSpec | list[Transaction]
    seed: int = 0
    deadline: int = 10000
    pinned_orderers: dict[str, str] = field(default_factory=dict)
    name: str = field(default="scenario", compare=False)

    @property
    def channels(self) -> list[str]:
        seen: set[str] = set()
        for node in self.topology.nodes:
            seen.update(node.channels)
        return sorted(seen)

    @property
    def conflict_count(self) -> int:
        if isinstance(self.conflicts, ConflictSpec):
            return self.conflicts.count
        return len(self.conflicts)

    def validate(self) -> None:
        self.topology.validate()
        channels = self.channels
        if not channels:
            raise ScenarioValidationError("topology defines no channels")
        for channel in channels:
            if not self.topology.orderers(channel):
                raise ScenarioValidationError(
                    f"channel {channel} has no orderer (at least one required)"
                )
        for wallet, amount in self.balances.items():
            if amount < 0:
                raise ScenarioValidationError(f"negative balance for {wallet}")
        for wallet in self.attack_wallets():
            if wallet not in self.balances:
                raise ScenarioValidationError(
                    f"attack references wallet {wallet} absent from initial balances"
                )
        if isinstance(self.conflicts, list):
            for tx in self.conflicts:
                if tx.submit_time < 0:
                    raise ScenarioValidationError(
                        f"scripted transaction {tx.id} submits at "
                        f"{tx.submit_time}, before time 0"
                    )
                for wallet in sorted(tx.footprint()):
                    if wallet not in self.balances:
                        raise ScenarioValidationError(
                            f"scripted transaction {tx.id} references unknown "
                            f"wallet {wallet}"
                        )
                if tx.channel not in channels:
                    raise ScenarioValidationError(
                        f"scripted transaction {tx.id} references unknown "
                        f"channel {tx.channel}"
                    )
        else:
            for wallet in self.conflicts.wallets:
                if wallet not in self.balances:
                    raise ScenarioValidationError(
                        f"conflict spec references unknown wallet {wallet}"
                    )
        if self.deadline < 0:
            raise ScenarioValidationError("deadline must be non-negative")
        # An integer attack param is a count, amount, height, time, spacing
        # or window: a negative time would plan an event before time 0.
        for name, value in self.attack.params.items():
            try:
                negative = int(value) < 0
            except ValueError:  # a word or a fraction
                continue
            if negative:
                raise ScenarioValidationError(
                    f"attack param {name} must be non-negative"
                )
        self._validate_attack_needs(channels)
        pinned = dict(self.pinned_orderers)
        if self.attack.kind == "double_spending" and self.attack.params.get("valid_orderer"):
            pinned["valid"] = self.attack.params["valid_orderer"]
        for tx_id, orderer in pinned.items():
            if not self.topology.has_node(orderer):
                raise ScenarioValidationError(
                    f"transaction {tx_id} pinned to unknown orderer {orderer}"
                )

    def _validate_attack_needs(self, channels: list[str]) -> None:
        """Check what the attack's runner needs of the scenario, so that a
        scenario that validates also runs."""
        attack, kind = self.attack, self.attack.kind
        nodes = self.topology.nodes
        if kind == "block_withholding":
            variant = attack.p_str("variant", "hold")
            if variant not in ("hold", "release"):
                raise ScenarioValidationError(
                    f"attack param variant must be hold or release, not {variant!r}"
                )
            if variant == "release" and attack.p_int("release_at", 0) < 1:
                raise ScenarioValidationError(
                    "attack param variant release needs a positive release_at"
                )
            if not any(n.is_adversary and n.role == "orderer" for n in nodes):
                raise ScenarioValidationError(
                    "block withholding needs an adversary orderer"
                )
            for channel in channels:
                # The baseline's honest orderers order while one withholds.
                if all(n.is_adversary for n in self.topology.orderers(channel)):
                    raise ScenarioValidationError(
                        f"channel {channel} has no honest orderer"
                    )
        elif kind == "double_spending":
            source = self.attack_wallets()[0]
            if self.balances[source] < attack.p_int("amount", 100):
                raise ScenarioValidationError(
                    f"double spend source {source} cannot fund the transfer"
                )
            if isinstance(self.conflicts, list) and not any(
                tx.id == "dsx" for tx in self.conflicts
            ):
                raise ScenarioValidationError(
                    "scripted double spend needs a transaction with id 'dsx'"
                )
        elif kind == "balance":
            if len(channels) < 2:
                raise ScenarioValidationError("balance attack needs two channels")
            for name, default in (("attacked_channel", channels[0]),
                                  ("reference_channel", channels[1])):
                if attack.p_str(name, default) not in channels:
                    raise ScenarioValidationError(
                        f"attack param {name} names an unknown channel"
                    )
            if not any(n.is_adversary for n in nodes):
                raise ScenarioValidationError("balance attack needs an adversary node")
            if len(self.pool_wallets(attack.p_str("pool_prefix", "W"))) < 4:
                raise ScenarioValidationError(
                    "balance attack needs a pool of at least 4 wallets"
                )
        elif kind == "ddos":
            n_accounts = attack.p_int("n_accounts", 32)
            if n_accounts < 32:
                raise ScenarioValidationError("DDoS needs at least 32 adversary accounts")
            accounts = self.pool_wallets(attack.p_str("accounts_prefix", "ACC"))
            if len(accounts) < n_accounts:
                raise ScenarioValidationError("adversary accounts missing from balances")
            if len(self.pool_wallets(attack.p_str("valid_pool_prefix", "H"))) < 2:
                raise ScenarioValidationError(
                    "DDoS needs an honest pool of at least 2 wallets"
                )

    def pool_wallets(self, prefix: str) -> list[str]:
        """The wallets named with ``prefix``, sorted."""
        return sorted(w for w in self.balances if w.startswith(prefix))

    def attack_wallets(self) -> list[str]:
        """The wallets the attack's parameters name (defaults included)."""
        kind, p = self.attack.kind, self.attack
        if kind == "block_withholding":
            return [
                p.p_str("attacker_wallet", "A1"),
                p.p_str("target_from", "V1"),
                p.p_str("target_to", "V2"),
            ]
        if kind == "double_spending":
            return [
                p.p_str("source", "A1"),
                p.p_str("victim", "V1"),
                p.p_str("alt", "A2"),
            ]
        return []


# -- parsing -------------------------------------------------------------------

_SECTIONS = (
    "topology", "balances", "attack", "policy", "conflicts", "seed", "deadline",
)
# The attributes a topology ``node`` line may set.
_NODE_KEYS = frozenset(("role", "channels", "adversary", "processing", "latency"))


def _parse_kv(parts: list[str], lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in parts:
        if "=" in part:
            key, _, value = part.partition("=")
            out[key] = value
        else:
            out[part] = "true"
    return out


def _parse_tx_line(parts: list[str], lineno: int) -> tuple[Transaction, str | None]:
    # tx <id> transfer <from> <to> <amount> at <t> [key=value...]
    # tx <id> query <w1,w2> at <t> [key=value...]
    if len(parts) < 3:
        raise ScenarioParseError("incomplete tx line", lineno)
    tx_id, op = parts[0], parts[1]
    rest = parts[2:]
    try:
        if op == "transfer":
            src, dst, amount = rest[0], rest[1], int(rest[2])
            if rest[3] != "at":
                raise ScenarioParseError("expected 'at <time>'", lineno)
            at = int(rest[4])
            attrs = _parse_kv(rest[5:], lineno)
        elif op == "query":
            wallets = tuple(rest[0].split(","))
            if rest[1] != "at":
                raise ScenarioParseError("expected 'at <time>'", lineno)
            at = int(rest[2])
            attrs = _parse_kv(rest[3:], lineno)
        else:
            raise ScenarioParseError(f"unknown payload kind {op!r}", lineno)
    except (IndexError, ValueError) as exc:
        raise ScenarioParseError(f"malformed tx line ({exc})", lineno) from None

    channel = attrs.get("channel", "main")
    submitter = attrs.get("submitter", "client")
    deps = tuple(attrs["deps"].split(",")) if "deps" in attrs else ()
    try:
        if op == "transfer":
            extra = tuple(attrs["reads"].split(",")) if "reads" in attrs else ()
            tx = transfer_tx(
                tx_id, src, dst, amount, channel=channel, submitter=submitter,
                extra_reads=extra, deps=deps, submit_time=at,
            )
        else:
            tx = query_tx(
                tx_id, wallets, channel=channel, submitter=submitter, deps=deps,
                submit_time=at,
            )
    except ValueError as exc:
        raise ScenarioParseError(str(exc), lineno) from None
    return tx, attrs.get("orderer")


def parse_scenario(text: str, name: str = "scenario") -> ScenarioConfig:
    nodes: list[NodeConfig] = []
    links: dict[tuple[str, str], int] = {}
    default_latency = 5
    balances: dict[str, int] = {}
    attack_kind: str | None = None
    attack_params: dict[str, str] = {}
    policy_kw: dict[str, object] = {}
    conflict_spec: ConflictSpec | None = None
    scripted: list[Transaction] = []
    pinned: dict[str, str] = {}
    seed = 0
    deadline: int | None = None
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ScenarioParseError(f"unknown section {section!r}", lineno)
            continue
        if section is None:
            raise ScenarioParseError("content before first section", lineno)
        parts = line.split()
        try:
            if section == "topology":
                if parts[0] == "default_latency":
                    default_latency = int(parts[1])
                elif parts[0] == "node":
                    attrs = _parse_kv(parts[2:], lineno)
                    unknown = attrs.keys() - _NODE_KEYS
                    if unknown:
                        raise ScenarioParseError(
                            f"unknown node attribute {min(unknown)!r}", lineno
                        )
                    nodes.append(
                        NodeConfig(
                            id=parts[1],
                            role=attrs.get("role", "peer"),
                            channels=frozenset(
                                attrs.get("channels", "main").split(",")
                            ),
                            is_adversary=attrs.get("adversary") == "true",
                            processing_delay=int(attrs.get("processing", "0")),
                            latency=(
                                int(attrs["latency"]) if "latency" in attrs else None
                            ),
                        )
                    )
                elif parts[0] == "link":
                    links[(parts[1], parts[2])] = int(parts[3])
                else:
                    raise ScenarioParseError(
                        f"unknown topology directive {parts[0]!r}", lineno
                    )
            elif section == "balances":
                balances[parts[0]] = int(parts[1])
            elif section == "attack":
                if parts[0] == "kind":
                    attack_kind = parts[1]
                elif parts[0] == "param":
                    attack_params[parts[1]] = " ".join(parts[2:])
                else:
                    raise ScenarioParseError(
                        f"unknown attack directive {parts[0]!r}", lineno
                    )
            elif section == "policy":
                key = parts[0]
                if key == "mode":
                    if parts[1] not in (BASELINE, COUNTERMEASURES):
                        raise ScenarioParseError(
                            f"unknown policy mode {parts[1]!r}", lineno
                        )
                    policy_kw["mode"] = parts[1]
                elif key == "jitter":
                    policy_kw["jitter"] = (int(parts[1]), int(parts[2]))
                elif key == "client_timeout":
                    policy_kw["client_timeout"] = (
                        None if parts[1] == "none" else int(parts[1])
                    )
                elif key in ("workers", "defer_limit", "mempool_capacity",
                             "queue_capacity"):
                    policy_kw[key] = int(parts[1])
                else:
                    raise ScenarioParseError(
                        f"unknown policy field {key!r}", lineno
                    )
            elif section == "conflicts":
                if parts[0] == "generate":
                    attrs = _parse_kv(parts[1:], lineno)
                    conflict_spec = ConflictSpec(
                        wallets=tuple(attrs["wallets"].split(",")),
                        count=int(attrs["count"]),
                        window=int(attrs["window"]),
                        mix_query=float(attrs.get("mix_query", "0.0")),
                        channel=attrs.get("channel", "main"),
                        submitter=attrs.get("submitter", "adversary"),
                        start=int(attrs.get("start", "0")),
                    )
                elif parts[0] == "tx":
                    tx, orderer = _parse_tx_line(parts[1:], lineno)
                    scripted.append(tx)
                    if orderer is not None:
                        pinned[tx.id] = orderer
                else:
                    raise ScenarioParseError(
                        f"unknown conflicts directive {parts[0]!r}", lineno
                    )
            elif section == "seed":
                seed = int(parts[0])
            elif section == "deadline":
                deadline = int(parts[0])
        except ScenarioParseError:
            raise
        except (IndexError, ValueError, KeyError) as exc:
            raise ScenarioParseError(f"malformed line ({exc})", lineno) from None

    if attack_kind is None:
        raise ScenarioParseError("attack section missing 'kind'")
    if deadline is None:
        raise ScenarioParseError("deadline section missing")
    if conflict_spec is not None and scripted:
        raise ScenarioValidationError(
            "exactly one conflict source allowed (generate or scripted list)"
        )
    if conflict_spec is None and not scripted:
        raise ScenarioValidationError("conflicts section defines no source")

    config = ScenarioConfig(
        topology=Topology(nodes=nodes, links=links, default_latency=default_latency),
        balances=balances,
        attack=AttackSpec(kind=attack_kind, params=attack_params),
        policy=OrderingPolicy(**policy_kw),  # type: ignore[arg-type]
        conflicts=conflict_spec if conflict_spec is not None else scripted,
        seed=seed,
        deadline=deadline,
        pinned_orderers=pinned,
        name=name,
    )
    config.validate()
    return config


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    return parse_scenario(path.read_text(), name=path.stem)


# -- bench workload --------------------------------------------------------------


def generate_bench_workload(
    count: int, read_ratio: float, n_wallets: int = 2000, seed: int = 0,
    cluster_size: int = 25,
) -> tuple[dict[str, int], list[Transaction]]:
    """Partitionable workload for the throughput bench.

    Wallets come in disjoint clusters and transfers stay inside a cluster,
    so the footprint partition yields many independent groups instead of one
    percolated component; random pairing over a shared pool would collapse
    everything into a single queue.  A transfer needs two wallets in its
    cluster; a batch of queries only (``read_ratio`` at least 1) needs one.
    Queries on one wallet share one ``Query`` payload, whose ``wallets`` is
    their ``reads``.
    """
    if n_wallets < 1:
        raise ValueError("the bench needs at least one wallet")
    if cluster_size < 1:
        raise ValueError("wallet clusters need at least one wallet")
    # Every cluster is cluster_size wide, or all n_wallets when fewer.
    width = min(cluster_size, n_wallets)
    if not read_ratio >= 1.0 and width < 2:
        raise ValueError("transfers need clusters of at least two wallets")
    rng = random.Random(seed)
    rand, bits = rng.random, rng.getrandbits
    wallets = [f"B{i:05d}" for i in range(n_wallets)]
    balances = {w: 1000 for w in wallets}
    clusters = max(1, n_wallets // cluster_size)
    # randrange(n) and randint(1, n) draw getrandbits(n.bit_length()) until
    # the draw is below n; the loops below make exactly those draws.
    k_wallet, k_cluster = n_wallets.bit_length(), clusters.bit_length()
    k_a, k_b = width.bit_length(), (width - 1).bit_length()
    k_amount = (20).bit_length()
    queries: list[Query | None] = [None] * n_wallets
    txs: list[Transaction] = []
    new = Transaction.__new__
    empty = frozenset()
    # Construction bypasses dataclass validation, as in
    # generate_conflicting_set: every payload drawn here is well formed.
    ids = transaction_ids("bench", count, 6)
    for i in range(count):
        tx = new(Transaction)
        tx.id = ids[i]
        tx.channel = "main"
        tx.submitter = "client"
        tx.declared_deps = ()
        tx.submit_time = i
        if rand() < read_ratio:
            r = bits(k_wallet)
            while r >= n_wallets:
                r = bits(k_wallet)
            query = queries[r]
            if query is None:
                query = queries[r] = Query((wallets[r],))
            tx.payload = query
            tx.reads = query.wallets
            tx.writes = empty
        else:
            c = bits(k_cluster)
            while c >= clusters:
                c = bits(k_cluster)
            a = bits(k_a)
            while a >= width:
                a = bits(k_a)
            b = bits(k_b)
            while b >= width - 1:
                b = bits(k_b)
            if b >= a:
                b += 1
            amount = bits(k_amount)
            while amount >= 20:
                amount = bits(k_amount)
            base = c * cluster_size
            src, dst = wallets[base + a], wallets[base + b]
            tx.payload = Transfer(src, dst, 1 + amount)
            tx.reads = (src, dst)
            tx.writes = frozenset((src, dst))
        txs.append(tx)
    return balances, txs
