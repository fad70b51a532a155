"""Domain types and deterministic ledger semantics.

Wallets hold whole-token balances plus a version counter that is bumped on
every committed write.  Validation is multi-version: endorsement takes a
stamp of the versions of the wallets a transaction reads, and commit
succeeds only if those versions are still current.  This is what makes
simultaneously endorsed transfers over shared wallets "conflicting" - the
first one to commit invalidates the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import TokenOverflowError, UnknownWalletError

# Wallet / transaction / channel identifiers are plain opaque strings.
WalletId = str
TransactionId = str
ChannelId = str

# Token arithmetic is modelled on a 64-bit unsigned domain; exceeding it is
# an error, never a silent wrap.
MAX_TOKENS = 2**63 - 1


class TxStatus(Enum):
    PENDING = "pending"
    COMMITTED = "committed"
    CONFLICT_FAILED = "conflict_failed"
    INSUFFICIENT_FUNDS = "insufficient_funds"
    TIMEOUT = "timeout"

    # Enum hashes a member by its name, in Python code.  A member is the
    # only object with its value, so the identity hash, which runs in C,
    # serves as well.
    __hash__ = object.__hash__

    @property
    def terminal(self) -> bool:
        return self in TERMINAL


# Statuses no later event may change.
TERMINAL = frozenset((
    TxStatus.COMMITTED, TxStatus.CONFLICT_FAILED, TxStatus.INSUFFICIENT_FUNDS,
    TxStatus.TIMEOUT,
))

# On CPython 3.11 each read of an enum member through its class runs a
# descriptor in Python; the per-transaction paths read these aliases.
_COMMITTED = TxStatus.COMMITTED
_CONFLICT_FAILED = TxStatus.CONFLICT_FAILED
_INSUFFICIENT_FUNDS = TxStatus.INSUFFICIENT_FUNDS


@dataclass(eq=True, slots=True)
class Transfer:
    src: WalletId
    dst: WalletId
    amount: int


@dataclass(eq=True, slots=True)
class Query:
    wallets: tuple[WalletId, ...]


@dataclass(eq=True, slots=True)
class Transaction:
    """A single wallet operation plus the read/write footprint it declared.

    ``reads`` names the wallets it reads and ``declared_deps`` the ids it
    depends on, in order and each once; the read versions belong to the
    stamp an endorsement takes.  Nothing writes into a transaction once its
    batch is built, so one batch serves every run: a run keeps its
    endorsement stamps (from ``stamp_read_versions``) to itself, and a
    queue reads the class of the payload (queries dequeue first).
    """

    id: TransactionId
    payload: Transfer | Query
    channel: ChannelId = "main"
    submitter: str = "client"
    reads: tuple[WalletId, ...] = ()
    writes: frozenset[WalletId] = frozenset()
    declared_deps: tuple[TransactionId, ...] = ()
    submit_time: int = 0

    def __post_init__(self):
        if not self.id:
            raise ValueError("transaction id must be non-empty")
        self.declared_deps = tuple(dict.fromkeys(self.declared_deps))
        p = self.payload
        if isinstance(p, Transfer):
            if p.src == p.dst:
                raise ValueError(f"{self.id}: transfer source equals destination")
            if p.amount <= 0:
                raise ValueError(f"{self.id}: transfer amount must be positive")
            if not self.writes:
                self.writes = frozenset((p.src, p.dst))
            self.reads = tuple(dict.fromkeys(self.reads)) or (p.src, p.dst)
            if p.src not in self.writes or p.dst not in self.writes:
                raise ValueError(f"{self.id}: transfer wallets must be written")
            if p.src not in self.reads:
                raise ValueError(f"{self.id}: transfer must read its source wallet")
        else:
            if self.writes:
                raise ValueError(f"{self.id}: read-only payload cannot write")
            self.reads = tuple(dict.fromkeys(self.reads or p.wallets))

    def footprint(self) -> set[WalletId]:
        return set(self.reads) | set(self.writes)


def transfer_tx(
    tx_id: str,
    src: WalletId,
    dst: WalletId,
    amount: int,
    *,
    channel: ChannelId = "main",
    submitter: str = "client",
    extra_reads: tuple[WalletId, ...] = (),
    deps: tuple[TransactionId, ...] = (),
    submit_time: int = 0,
) -> Transaction:
    """Build a transfer reading src, dst, then any new extras."""
    return Transaction(
        id=tx_id,
        payload=Transfer(src, dst, amount),
        channel=channel,
        submitter=submitter,
        reads=(src, dst, *extra_reads),
        declared_deps=deps,
        submit_time=submit_time,
    )


def query_tx(
    tx_id: str,
    wallets: tuple[WalletId, ...],
    *,
    channel: ChannelId = "main",
    submitter: str = "client",
    deps: tuple[TransactionId, ...] = (),
    submit_time: int = 0,
) -> Transaction:
    return Transaction(
        id=tx_id,
        payload=Query(tuple(wallets)),
        channel=channel,
        submitter=submitter,
        declared_deps=deps,
        submit_time=submit_time,
    )


@dataclass(eq=True)
class LedgerState:
    """Balances, per-wallet versions and chain counters for one channel."""

    balances: dict[WalletId, int] = field(default_factory=dict)
    versions: dict[WalletId, int] = field(default_factory=dict)
    height: int = 0
    committed_tx_count: int = 0

    @classmethod
    def from_balances(
        cls, balances: dict[WalletId, int], *, height: int = 0, tx_count: int = 0
    ) -> "LedgerState":
        for wallet, amount in balances.items():
            if amount < 0:
                raise ValueError(f"negative initial balance for {wallet}")
        return cls(
            balances=dict(balances),
            versions={w: 0 for w in balances},
            height=height,
            committed_tx_count=tx_count,
        )

    def copy(self) -> "LedgerState":
        return LedgerState(
            balances=dict(self.balances),
            versions=dict(self.versions),
            height=self.height,
            committed_tx_count=self.committed_tx_count,
        )


def conflicts_with(a: Transaction, b: Transaction) -> bool:
    """Two transactions conflict when a write overlaps the other's footprint.

    Read-read overlap is not a conflict, and a transaction never conflicts
    with itself.
    """
    if a.id == b.id:
        return False
    if a.writes & b.writes:
        return True
    if a.writes and not a.writes.isdisjoint(b.reads):
        return True
    if b.writes and not b.writes.isdisjoint(a.reads):
        return True
    return False


def stamp_read_versions(tx: Transaction, state: LedgerState) -> dict[WalletId, int]:
    """Endorse ``tx`` against ``state``: the current versions of its reads."""
    versions = state.versions
    stamp = {}
    try:
        for wallet in tx.reads:  # a loop: a comprehension costs a call more
            stamp[wallet] = versions[wallet]
    except KeyError as exc:
        raise UnknownWalletError(f"{tx.id}: unknown wallet {exc.args[0]}") from None
    return stamp


def apply_transaction(
    state: LedgerState, tx: Transaction, stamp: dict[WalletId, int] | None = None
) -> TxStatus:
    """Validate and apply one transaction in place; return its status.

    A transfer fails on conflict when a wallet's version has moved since
    ``stamp``.  With no stamp the transaction is endorsed now, so only its
    read wallets must exist.  Any non-committed status leaves balances and
    versions untouched.
    """
    versions = state.versions
    payload = tx.payload
    if stamp is None or type(payload) is Query:
        for wallet in tx.reads:
            if wallet not in versions:
                raise UnknownWalletError(f"{tx.id}: unknown wallet {wallet}")
        if type(payload) is Query:
            return _COMMITTED
    else:
        for wallet, expected in stamp.items():
            current = versions.get(wallet)
            if current is None:
                raise UnknownWalletError(f"{tx.id}: unknown wallet {wallet}")
            if current != expected:
                return _CONFLICT_FAILED
    balances = state.balances
    src, dst, amount = payload.src, payload.dst, payload.amount
    src_balance, dst_balance = balances.get(src), balances.get(dst)
    if src_balance is None or dst_balance is None:
        raise UnknownWalletError(f"{tx.id}: unknown transfer wallet")
    if amount > src_balance:
        return _INSUFFICIENT_FUNDS
    if dst_balance + amount > MAX_TOKENS:
        raise TokenOverflowError(f"{tx.id}: destination balance overflow")
    balances[src] = src_balance - amount
    balances[dst] = dst_balance + amount
    for wallet in tx.writes:
        if wallet not in versions:
            raise UnknownWalletError(f"{tx.id}: unknown written wallet {wallet}")
        versions[wallet] += 1
    return _COMMITTED


def total_supply(state: LedgerState) -> int:
    total = 0
    for amount in state.balances.values():
        total += amount
        if total > MAX_TOKENS:
            raise TokenOverflowError("total supply overflow")
    return total
