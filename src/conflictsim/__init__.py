"""Deterministic simulator of conflicting-transaction attacks on a
permissioned execute-order-validate ledger, with an ordering-countermeasure
pipeline and an experiment harness."""

from .core import (
    LedgerState,
    Query,
    Transaction,
    Transfer,
    TxStatus,
    apply_transaction,
    conflicts_with,
    query_tx,
    total_supply,
    transfer_tx,
)
from .ordering import (
    DependencyVerdict,
    OrdererQueue,
    OrderingPolicy,
    SubmitOutcome,
    check_dependencies,
    partition,
)
from .simnet import Engine, NodeConfig, Topology
from .workload import (
    ConflictSpec,
    ScenarioConfig,
    generate_conflicting_set,
    load_scenario,
)
from .attacks import AttackOutcome, recompute_success, run_attack
from .harness import (
    MetricsRecord,
    TrialPlan,
    bench_throughput,
    run_trials,
    summarize,
    write_results,
)

__version__ = "0.1.0"
