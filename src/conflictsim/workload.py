"""Conflicting-transaction generation and scenario file handling.

Scenario files are a line-oriented text format with the sections
topology / balances / attack / policy / conflicts / seed / deadline.
The conflicts section is either a single ``generate`` directive (a seeded
synthetic bank-transfer batch over a small wallet set) or an explicit
``tx`` list used by the scripted attack reproductions, which pin amounts,
submit times and orderer assignments.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .core import Query, Transaction, Transfer, query_tx, transfer_tx
from .errors import (
    InfeasibleSpecError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .ordering import BASELINE, COUNTERMEASURES, OrderingPolicy
from .simnet import NodeConfig, Topology

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


class Param(NamedTuple):
    """One attack param: its type, its default and, for a number, its
    bounds.  The type is int, float, str, ``"wallet"`` (a str naming a
    wallet of the balances), bool (``true`` or ``false``) or a tuple of the
    words allowed.  A default of None is unset, or resolved from the
    scenario by ``ScenarioConfig.param``."""

    type: object
    default: object = None
    low: float = 0
    high: float = math.inf

    def parse(self, name: str, raw: str):
        """``raw`` as a value of this param, which is called ``name``."""
        kind = self.type
        if kind in (int, float):
            try:
                if self.low <= (value := kind(raw)) <= self.high:
                    return value
            except ValueError:
                pass
            expected = "an integer" if kind is int else "a number"
            expected += f" within [{self.low}, {self.high}]"
        elif kind in (str, "wallet"):
            if raw:
                return raw
            expected = "a word"
        else:
            words = ("true", "false") if kind is bool else kind
            if raw in words:
                return raw == "true" if kind is bool else raw
            expected = " or ".join(words)
        raise ScenarioValidationError(
            f"attack param {name} must be {expected}, not {raw!r}"
        )


# Every param an attack kind takes; a ``param`` line naming any other is a
# parse error.  Counts, amounts and times are non-negative (an amount
# positive), so that no event is planned before time 0.
_SHARED_PARAMS = {
    "initial_height": Param(int, 0),
    "initial_tx_count": Param(int),  # initial_height
}
ATTACK_PARAMS: dict[str, dict[str, Param]] = {
    kind: {**own, **_SHARED_PARAMS} for kind, own in {
        "block_withholding": {
            "attacker_wallet": Param("wallet", "A1"),
            "target_from": Param("wallet", "V1"),
            "target_to": Param("wallet", "V2"),
            "target_amount": Param(int, 15, 1),
            "target_submit": Param(int, 0),
            "variant": Param(("hold", "release"), "hold"),
            "release_at": Param(int),  # needed by variant release
        },
        "double_spending": {
            "source": Param("wallet", "A1"),
            "victim": Param("wallet", "V1"),
            "alt": Param("wallet", "A2"),
            "amount": Param(int, 100, 1),
            "valid_submit": Param(int, 0),
            "valid_orderer": Param(str),  # unset: not pinned
            "endorse_withheld": Param(bool, False),
        },
        "balance": {
            "attacked_channel": Param(str),  # the first channel
            "reference_channel": Param(str),  # the second channel
            "pool_prefix": Param(str, "W"),
            "valid_amount": Param(int, 5, 1),
            "valid_spacing": Param(int, 10),
            "initial_pending": Param(int, 0),
            "valid_head": Param(int, 40),
            "valid_tail": Param(int, 40),
            "tail_start": Param(int, 1010),
            "valid_reference": Param(int, 90),
        },
        "ddos": {
            "n_accounts": Param(int, 32, 32),
            "accounts_prefix": Param(str, "ACC"),
            "valid_pool_prefix": Param(str, "H"),
            "theta": Param(float, 0.5, high=1),
            "valid_count": Param(int, 100),
            "valid_window": Param(int, 6000),
            "valid_read_ratio": Param(float, 0.8, high=1),
            "burst": Param(int, 1000),
        },
        "ordering_race": {},
    }.items()
}


@dataclass(eq=True)
class AttackSpec:
    """An attack kind and its params as the scenario file writes them;
    ``ScenarioConfig.param`` reads them typed."""

    kind: str
    params: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ATTACK_PARAMS:
            raise ScenarioValidationError(f"unknown attack kind {self.kind!r}")


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

    def param(self, name: str):
        """The attack param ``name``, typed by its ``ATTACK_PARAMS`` entry:
        the value the file sets, else its default."""
        spec = ATTACK_PARAMS[self.attack.kind][name]
        raw = self.attack.params.get(name)
        if raw is not None:
            return spec.parse(name, raw)
        if name == "attacked_channel":
            return self.channels[0]
        if name == "reference_channel":
            return self.channels[1]
        if name == "initial_tx_count":
            return self.param("initial_height")
        if name == "release_at" and self.param("variant") == "release":
            raise ScenarioValidationError(
                "attack param variant release needs a release_at"
            )
        return spec.default

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
        for name in self.attack.params:  # its type and bounds
            self.param(name)
        self._validate_attack_needs(channels)
        pinned = dict(self.pinned_orderers)
        if self.attack.kind == "double_spending" and self.param("valid_orderer"):
            pinned["valid"] = self.param("valid_orderer")
        for tx_id, orderer in pinned.items():
            if not self.topology.has_node(orderer):
                raise ScenarioValidationError(
                    f"transaction {tx_id} pinned to unknown orderer {orderer}"
                )

    def _validate_attack_needs(self, channels: list[str]) -> None:
        """Check what the attack's runner needs of the scenario, so that a
        scenario that validates also runs."""
        kind = self.attack.kind
        nodes = self.topology.nodes
        if kind == "block_withholding":
            if self.param("variant") == "release" and self.param("release_at") < 1:
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
            if self.balances[source] < self.param("amount"):
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
            for name in ("attacked_channel", "reference_channel"):
                if self.param(name) not in channels:
                    raise ScenarioValidationError(
                        f"attack param {name} names an unknown channel"
                    )
            if not any(n.is_adversary for n in nodes):
                raise ScenarioValidationError("balance attack needs an adversary node")
            if len(self.pool_wallets("pool_prefix")) < 4:
                raise ScenarioValidationError(
                    "balance attack needs a pool of at least 4 wallets"
                )
        elif kind == "ddos":
            if len(self.pool_wallets("accounts_prefix")) < self.param("n_accounts"):
                raise ScenarioValidationError("adversary accounts missing from balances")
            if len(self.pool_wallets("valid_pool_prefix")) < 2:
                raise ScenarioValidationError(
                    "DDoS needs an honest pool of at least 2 wallets"
                )

    def pool_wallets(self, prefix_param: str) -> list[str]:
        """The wallets named with the prefix that the attack param
        ``prefix_param`` sets, sorted."""
        prefix = self.param(prefix_param)
        return sorted(w for w in self.balances if w.startswith(prefix))

    def attack_wallets(self) -> list[str]:
        """The wallets the attack's params name, defaults included, in
        table order."""
        table = ATTACK_PARAMS[self.attack.kind]
        return [self.param(n) for n, spec in table.items() if spec.type == "wallet"]


# -- parsing -------------------------------------------------------------------

_SECTIONS = (
    "topology", "balances", "attack", "policy", "conflicts", "seed", "deadline",
)
# The keys each kind of line may set; ``_parse_kv`` rejects any other.
_LINE_KEYS = {
    "node": frozenset(("role", "channels", "adversary", "processing", "latency")),
    "tx transfer": frozenset(("channel", "submitter", "deps", "reads", "orderer")),
    "tx query": frozenset(("channel", "submitter", "deps", "orderer")),
    "generate": frozenset(
        ("wallets", "count", "window", "mix_query", "channel", "submitter", "start")
    ),
}


def _parse_kv(parts: list[str], lineno: int, line: str) -> dict[str, str]:
    """The ``key=value`` attributes of a line of kind ``line``, where a bare
    key is ``true``; a key that kind does not take is a parse error."""
    out: dict[str, str] = {}
    for part in parts:
        key, eq, value = part.partition("=")
        if key not in _LINE_KEYS[line]:
            raise ScenarioParseError(f"unknown {line} attribute {key!r}", lineno)
        out[key] = value if eq else "true"
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
            attrs = _parse_kv(rest[5:], lineno, "tx transfer")
        elif op == "query":
            wallets = tuple(rest[0].split(","))
            if rest[1] != "at":
                raise ScenarioParseError("expected 'at <time>'", lineno)
            at = int(rest[2])
            attrs = _parse_kv(rest[3:], lineno, "tx query")
        else:
            raise ScenarioParseError(f"unknown payload kind {op!r}", lineno)
    except (IndexError, ValueError) as exc:
        raise ScenarioParseError(f"malformed tx line ({exc})", lineno) from None

    orderer = attrs.pop("orderer", None)
    # The rest are keywords of the constructors; a file's reads are extra.
    for key, arg in (("reads", "extra_reads"), ("deps", "deps")):
        if key in attrs:
            attrs[arg] = tuple(attrs.pop(key).split(","))
    try:
        if op == "transfer":
            tx = transfer_tx(tx_id, src, dst, amount, submit_time=at, **attrs)
        else:
            tx = query_tx(tx_id, wallets, submit_time=at, **attrs)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), lineno) from None
    return tx, orderer


def parse_scenario(text: str, name: str = "scenario") -> ScenarioConfig:
    nodes: list[NodeConfig] = []
    links: dict[tuple[str, str], int] = {}
    default_latency = 5
    balances: dict[str, int] = {}
    attack_kind: str | None = None
    attack_params: dict[str, str] = {}
    param_lines: dict[str, int] = {}
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
                    attrs = _parse_kv(parts[2:], lineno, "node")
                    adversary = attrs.get("adversary", "false")
                    if adversary not in ("true", "false"):
                        raise ScenarioParseError(
                            f"unknown node adversary value {adversary!r}, "
                            "expected true or false", lineno
                        )
                    nodes.append(
                        NodeConfig(
                            id=parts[1],
                            role=attrs.get("role", "peer"),
                            channels=frozenset(
                                attrs.get("channels", "main").split(",")
                            ),
                            is_adversary=adversary == "true",
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
                    param_lines[parts[1]] = lineno
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
                    attrs = _parse_kv(parts[1:], lineno, "generate")
                    # The keys the line leaves out keep ConflictSpec's defaults.
                    spec_kw: dict[str, object] = {
                        **attrs,
                        "wallets": tuple(attrs["wallets"].split(",")),
                        "count": int(attrs["count"]),
                        "window": int(attrs["window"]),
                    }
                    if "mix_query" in attrs:
                        spec_kw["mix_query"] = float(attrs["mix_query"])
                    if "start" in attrs:
                        spec_kw["start"] = int(attrs["start"])
                    conflict_spec = ConflictSpec(**spec_kw)  # type: ignore[arg-type]
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
    attack = AttackSpec(kind=attack_kind, params=attack_params)
    for param, lineno in param_lines.items():
        if param not in ATTACK_PARAMS[attack_kind]:
            raise ScenarioParseError(f"unknown {attack_kind} param {param!r}", lineno)
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
        attack=attack,
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
