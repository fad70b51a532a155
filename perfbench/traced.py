"""The traced run: per-layer metrics for all three workloads at once.

For each workload it first runs untraced for a fifth of its share of the
time, then runs exactly the same operations (same seeds, same count) twice
with tracing on.  The untraced pass gives the pair and rep times and the
base of the tracing overhead.  The two traced sets give the span self times
and must agree exactly on every count the program makes; a difference is a
failed check.  Wrapping per-transaction calls roughly doubles host time, so
the traced times are attributions, not absolute times.
"""

from __future__ import annotations

import math
from collections import Counter

from checks import Tally
from spec import CPU_SHARE, MODES, SWEEPS, THREADS
from tracing import SWEEP_TARGETS, THREADS_TARGETS, Tracer, installed
from workloads import REGIMES, bench_reps, bench_summary, load_scenarios, sweep_rounds

# Per-pair self time of each span, by metric name.
SWEEP_SPANS = (
    ("workload.generate_ms_per_pair", "workload.generate"),
    ("attacks.clone_ms_per_pair", "attacks.clone"),
    ("attacks.run_ms_per_pair", "attacks.run"),
    ("attacks.plan_ms_per_pair", "attacks.plan"),
    ("attacks.arrival_ms_per_pair", "attacks.arrival"),
    ("attacks.collect_ms_per_pair", "attacks.collect"),
    ("ordering.admit_ms_per_pair.baseline", "ordering.admit.baseline"),
    ("ordering.admit_ms_per_pair.countermeasures", "ordering.admit.countermeasures"),
    ("ordering.commit_ms_per_pair", "ordering.commit"),
    ("core.stamp_ms_per_pair", "core.stamp"),
    ("core.apply_ms_per_pair", "core.apply"),
    ("simnet.dispatch_ms_per_pair", "simnet.dispatch"),
    ("harness.gc_ms_per_pair", "harness.gc"),
    ("harness.unattributed_ms_per_pair", "harness.pair"),
)

# Per-rep self time of each span in the thread bench, by metric stem.
THREADS_SPANS = (
    ("ordering.partition_ms", "ordering.partition"),
    ("workload.generate_ms", "workload.generate_bench"),
    ("harness.bench.baseline_ms", "harness.bench.baseline"),
    ("harness.bench.pipeline_ms", "harness.bench.pipeline"),
    ("harness.bench.reference_ms", "harness.bench.reference"),
    ("harness.unattributed_ms", "harness.bench.rep"),
)

# The thread bench's own numbers, from the untraced pass.  Baseline tps in
# the io regime is left out: it mostly measures the host's sleep overshoot.
UNTRACED_BENCH = {
    "cpu": (("rep_s.cpu", "s"), ("pipeline_tps.cpu", "1/s"),
            ("baseline_tps.cpu", "1/s"), ("drain_ms.cpu", "ms")),
    "io": (("pipeline_tps.io", "1/s"), ("drain_ms.io", "ms")),
}

ATTACKS = ("block_withholding", "double_spending", "balance", "ddos")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Metrics:
    """Named per-layer values, plus the names reported absent."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.values: dict[str, tuple[float, str]] = {}
        self.absent: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[f"{self.prefix}.{name}"] = (value, unit)

    def put_if(self, ok: bool, name: str, value, unit: str) -> None:
        """Store ``value()`` when ``ok``, else record the metric as absent.
        ``value`` is called at once, so it may close over loop variables."""
        if ok:
            self.put(name, value(), unit)
        else:
            self.absent.append(f"{self.prefix}.{name}")


def _merge(counters) -> Counter:
    out: Counter = Counter()
    for counter in counters:
        out.update(counter)
    return out


def _by_name(totals: Counter) -> Counter:
    out: Counter = Counter()
    for (_tag, name), value in totals.items():
        out[name] += value
    return out


def _exact_counts_check(tally: Tally, label: str, first, second) -> None:
    problems = []
    if first != second:
        diff = next(
            (i for i, (a, b) in enumerate(zip(first, second)) if a != b),
            min(len(first), len(second)),
        )
        problems.append(f"counts differ between traced sets at operation {diff}")
    tally.record(label, problems)


def traced_sweep(workload: str, count: int, seed: int, budget: float,
                 tally: Tally, out_dir) -> Metrics:
    scenarios = load_scenarios()
    tracers, per_pair_sets, missing = [], [], set()

    def traced_set(k: int, **limit) -> int:
        tracer = Tracer()
        per_pair: list[tuple[str, dict]] = []

        def on_pair(kind, records):
            counts = dict(tracer.counts)
            counts["arrived"] = sum(r.outcome.submitted for r in records)
            per_pair.append((kind, counts))

        with installed(tracer, SWEEP_TARGETS) as absent_targets:
            _times, rounds = sweep_rounds(
                scenarios, count, seed, tally, on_pair=on_pair,
                pair_context=lambda kind: tracer.root("harness.pair", kind), **limit,
            )
        tracer.write(out_dir / f"{workload}.set{k}")
        tracers.append(tracer)
        per_pair_sets.append(per_pair)
        missing.update(absent_targets)
        return rounds

    # Set 0 also warms the process up; the untraced pass and set 1 then run
    # the same rounds warm, and set 1 over the untraced pass is the overhead.
    rounds = traced_set(0, seconds=budget * 2 / 5)
    ref, _ = sweep_rounds(scenarios, count, seed, tally, rounds=rounds)
    traced_set(1, rounds=rounds)
    _exact_counts_check(tally, f"{workload} exact-repeat counts", *per_pair_sets)

    m = Metrics(workload)
    pairs = [p for s in per_pair_sets for p in s]
    n = max(1, len(pairs))
    totals = [tracer.totals() for tracer in tracers]
    self_t = _by_name(_merge(t[0] for t in totals))
    incl = _by_name(_merge(t[1] for t in totals))
    for metric, span in SWEEP_SPANS:
        m.put_if(span not in missing, metric, lambda: 1000 * self_t[span] / n, "ms")

    ref = {kind: [elapsed for elapsed, _probe in samples]
           for kind, samples in ref.items()}
    all_ref = [t for times in ref.values() for t in times]
    for q, label in ((0.5, "p50"), (0.9, "p90")):
        m.put_if(bool(all_ref), f"harness.pair_ms.{label}",
                 lambda: 1000 * percentile(all_ref, q), "ms")
        for kind in ATTACKS:
            m.put_if(bool(ref.get(kind)), f"harness.pair_ms.{kind}.{label}",
                     lambda: 1000 * percentile(ref[kind], q), "ms")
    m.put_if(bool(all_ref), "harness.trace_overhead",
             lambda: _by_name(totals[1][1])["harness.pair"] / sum(all_ref),
             "ratio")

    total = Counter()
    for _kind, counts in pairs:
        total.update(counts)
    has_schedule = "simnet.Engine.schedule_call" not in missing
    has_fired = has_schedule and all("pending" in c for _k, c in pairs)
    fired = total["scheduled"] - total["pending"]
    m.put_if(has_schedule, "simnet.events_scheduled_per_pair",
             lambda: total["scheduled"] / n, "count")
    m.put_if(has_fired, "simnet.events_fired_per_pair", lambda: fired / n, "count")
    m.put_if(has_fired and fired > 0, "simnet.host_us_per_event",
             lambda: 1e6 * incl["simnet.dispatch"] / fired, "us")
    for kind in ATTACKS:
        runs = 2 * sum(1 for k, _c in pairs if k == kind)
        arrived = sum(c["arrived"] for k, c in pairs if k == kind)
        m.put_if(runs > 0, f"attacks.arrived_share.{kind}",
                 lambda: arrived / (runs * count), "ratio")
        if kind == "double_spending" and runs:
            planned = sum(c["planned"] for k, c in pairs if k == kind)
            print(f"{workload}: {kind} arrived {arrived / runs:.1f} transactions "
                  f"per run, nominal conflict count {count}, "
                  f"{planned / runs:.1f} planned")
    for mode in MODES:
        admits = total[f"admit.{mode}"]
        m.put_if(f"ordering.admit.{mode}" not in missing and admits > 0,
                 f"ordering.admit_accepted_ratio.{mode}",
                 lambda: total[f"accepted.{mode}"] / admits, "ratio")
    m.put_if("ordering.ChannelState.finalize" not in missing and total["finalize"] > 0,
             "ordering.finalize_commit_ratio",
             lambda: total["finalize_committed"] / total["finalize"], "ratio")
    return m


def traced_threads(seed: int, budget: float, tally: Tally, out_dir) -> Metrics:
    shares = {"cpu": CPU_SHARE, "io": 1 - CPU_SHARE}
    tracers, acquires_sets, missing, traced_s = [], [], set(), []
    reps = Counter()

    def traced_set(k: int, counts=None) -> dict[str, int]:
        tracer = Tracer()
        done, elapsed = {}, 0.0
        with installed(tracer, THREADS_TARGETS) as absent_targets:
            for regime in REGIMES:
                limit = ({"reps": counts[regime]} if counts
                         else {"seconds": budget * 2 / 5 * shares[regime]})
                results = bench_reps(
                    regime, seed, tally, **limit,
                    rep_context=lambda r: tracer.root("harness.bench.rep", r),
                )
                done[regime] = max(1, len(results))
                elapsed += sum(r[0] for r in results)
        tracer.write(out_dir / f"{THREADS}.set{k}")
        tracers.append(tracer)
        acquires_sets.append([
            (tracer.pair_tags[tracer.pair[idx]], lock.acquires)
            for idx, lock in tracer.locks
        ])
        missing.update(absent_targets)
        traced_s.append(elapsed)
        reps.update(done)
        return done

    # As for the sweeps: set 0 warms up, set 1 is compared with the untraced pass.
    counts = traced_set(0)
    ref = {r: bench_reps(r, seed, tally, reps=counts[r]) for r in REGIMES}
    traced_set(1, counts)
    if "harness._bench_pipeline" in missing:
        missing |= {"harness.bench.pipeline", "harness.bench.reference"}
    _exact_counts_check(tally, "threads exact-repeat counts", *acquires_sets)

    m = Metrics(THREADS)
    self_t = _merge(tracer.totals()[0] for tracer in tracers)
    for regime in REGIMES:
        n = reps[regime]
        for metric, span in THREADS_SPANS:
            m.put_if(span not in missing, f"{metric}.{regime}",
                     lambda: 1000 * self_t[(regime, span)] / n, "ms")
        held = acquired = 0
        for tracer in tracers:
            for idx, lock in tracer.locks:
                if tracer.span_name(idx) == "harness.bench.pipeline" \
                        and tracer.pair_tags[tracer.pair[idx]] == regime:
                    held += lock.held
                    acquired += lock.acquires
        ok = not missing & {"harness.bench.lock", "harness.bench.pipeline"}
        m.put_if(ok, f"harness.bench.locked_ms.{regime}", lambda: 1000 * held / n, "ms")
        m.put_if(ok, f"harness.bench.lock_acquires.{regime}",
                 lambda: acquired / n, "count")
        summary = bench_summary(regime, ref[regime])
        for name, unit in UNTRACED_BENCH[regime]:
            m.put_if(name in summary, f"harness.bench.{name}",
                     lambda: summary[name], unit)
    ref_s = sum(r[0] for results in ref.values() for r in results)
    m.put_if(ref_s > 0, "harness.trace_overhead", lambda: traced_s[1] / ref_s, "ratio")
    return m


def run_traced(seed: int, seconds: float, tally: Tally, out_dir) -> Metrics:
    """Trace every workload, each for a third of ``seconds``."""
    budget = seconds / 3
    parts = [traced_sweep(name, count, seed, budget, tally, out_dir)
             for name, count in SWEEPS.items()]
    parts.append(traced_threads(seed, budget, tally, out_dir))
    merged = Metrics("")
    for part in parts:
        merged.values.update(part.values)
        merged.absent.extend(part.absent)
    return merged
