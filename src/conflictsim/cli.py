"""Command line entry point.

Exit codes: 0 success, 2 configuration error, 3 runtime error,
4 bench state mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    InfeasibleSpecError,
    ScenarioParseError,
    ScenarioValidationError,
    SimulatorError,
    StateMismatchError,
)
from .harness import (
    POLICY_CHOICES,
    TrialPlan,
    bench_throughput,
    render_bench,
    render_records,
    render_summary,
    run_trials,
    summarize,
    write_results,
)
from .workload import ScenarioConfig, load_scenario

BUNDLED_DIR = Path(__file__).parent / "scenarios"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_STATE_MISMATCH = 4


def resolve_scenario(name: str) -> ScenarioConfig:
    path = Path(name)
    if path.exists():
        return load_scenario(path)
    bundled = BUNDLED_DIR / f"{name}.scn"
    if bundled.exists():
        return load_scenario(bundled)
    raise ScenarioParseError(f"scenario not found: {name}")


def _parse_sweep(text: str) -> list[int]:
    # "1000..10000:1000" -> [1000, 2000, ..., 10000]
    try:
        span, _, step = text.partition(":")
        lo, _, hi = span.partition("..")
        lo_i, hi_i, step_i = int(lo), int(hi), int(step or "1000")
        if step_i <= 0 or hi_i < lo_i:
            raise ValueError
    except ValueError:
        raise ScenarioValidationError(
            f"bad sweep spec {text!r}, expected lo..hi:step"
        ) from None
    return list(range(lo_i, hi_i + 1, step_i))


def cmd_run(args) -> int:
    scenario = resolve_scenario(args.scenario)
    # Default to the scenario file's own ordering mode.
    policy = args.policy or scenario.policy.mode
    plan = TrialPlan(
        scenario=scenario,
        trials=args.trials,
        base_seed=args.seed,
        policy=policy,
    )
    records = run_trials(plan)
    if args.out:
        write_results(records, args.out, args.format)
    print(render_summary(summarize(records)), end="")
    first = records[0]
    if first.outcome is not None and args.trials == 1:
        out = first.outcome
        for channel, size in sorted(out.chain_sizes.items()):
            print(f"{channel}: chain={size} pending={out.pending[channel]}")
        for channel, ledger in sorted(out.ledgers.items()):
            interesting = {
                w: b for w, b in ledger.balances.items()
                if b != scenario.balances[w]
            }
            if interesting and len(interesting) <= 8:
                cells = " ".join(f"{w}={b}" for w, b in sorted(interesting.items()))
                print(f"{channel}: {cells}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = resolve_scenario(args.scenario)
    if args.attack and args.attack != scenario.attack.kind:
        raise ScenarioValidationError(
            f"scenario {scenario.name} is for attack {scenario.attack.kind!r}, "
            f"not {args.attack!r}"
        )
    plan = TrialPlan(
        scenario=scenario,
        trials=args.trials,
        base_seed=args.seed,
        policy="both",
        sweep=_parse_sweep(args.conflicts),
        lean=True,
    )
    records = run_trials(plan)
    if args.out:
        write_results(records, args.out, "csv")
    print(render_summary(summarize(records)), end="")
    return EXIT_OK


def cmd_bench(args) -> int:
    report = bench_throughput(
        txs=args.txs,
        read_ratio=args.read_ratio,
        workers=args.workers,
        reps=args.reps,
        io_delay_us=args.io_delay_us,
    )
    text = render_bench(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    print(f"baseline {report.baseline_tps:.0f} tps, "
          f"pipeline {report.pipeline_tps:.0f} tps "
          f"({report.speedup:.2f}x)")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = resolve_scenario(args.scenario)
    print(f"{scenario.name}: ok "
          f"(attack={scenario.attack.kind}, channels={','.join(scenario.channels)}, "
          f"conflicts={scenario.conflict_count})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conflictsim",
        description="Simulate conflicting-transaction attacks on a "
        "permissioned ledger and evaluate the ordering countermeasures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario for N trials")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--trials", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--policy", choices=POLICY_CHOICES, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "text"), default="csv")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="sweep conflicting-transaction counts, paired policies"
    )
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--attack", default=None)
    p_sweep.add_argument("--conflicts", required=True, metavar="LO..HI:STEP")
    p_sweep.add_argument("--trials", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_bench = sub.add_parser("bench", help="wall-clock ordering throughput")
    p_bench.add_argument("--txs", type=int, default=50000)
    p_bench.add_argument("--read-ratio", type=float, default=0.8)
    p_bench.add_argument("--workers", type=int, default=4)
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--io-delay-us", type=int, default=120)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(fn=cmd_bench)

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StateMismatchError as exc:
        print(f"state mismatch: {exc}", file=sys.stderr)
        return EXIT_STATE_MISMATCH
    except (
        ScenarioParseError,
        ScenarioValidationError,
        InfeasibleSpecError,
        ValueError,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulatorError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
