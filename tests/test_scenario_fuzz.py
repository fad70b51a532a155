"""Scenario fuzzer: mutated copies of the bundled scenarios, run through the
CLI in-process, either run or fail as configuration errors.

Each case copies one bundled file and makes one to three edits, each drawn
from a generator seeded with the case number: a number set to -1, 0, 1, 2,
3 or 99 999; a line deleted or duplicated; or a word swapped for another
word from the same file.  A quarter of the cases then misspell a key: two
adjacent, different characters of a ``key=`` or a ``param`` name swap
places.  The copy goes through ``validate`` and then ``run --trials 1
--policy both``.  A copy that validates must run (exit 0), and one that
does not must fail ``run`` as a config error too (exit 2).  A copy with a
misspelled key must not validate.
Every outcome a run collects must conserve each channel's supply and count
every arrived transaction once.
"""

import random
import re
from collections import Counter

from conflictsim.attacks import SimulationRun, run_attack
from conflictsim.cli import BUNDLED_DIR, main, resolve_scenario
from conflictsim.core import TxStatus, total_supply, transfer_tx
from conflictsim.errors import SimulatorError
from conflictsim.harness import MetricsRecord
from conflictsim.ordering import (
    COUNTERMEASURES,
    BaselineOrderingService,
    PipelineOrderingService,
    SubmitOutcome,
)
from conflictsim.workload import parse_scenario
from test_ordering import _drive

SCENARIOS = sorted(BUNDLED_DIR.glob("*.scn"))
NUMBER = re.compile(r"(?<![\w.-])-?\d+(?:\.\d+)?(?![\w.])")
WORD = re.compile(r"[A-Za-z_]+")
KEY = re.compile(r"^param (\w+)|(\w+)=")
VALUES = ("-1", "0", "1", "2", "3", "99999")
CASES = 100


def _swap(line, pattern, rng, choices):
    """``line`` with one match of ``pattern`` replaced by a choice."""
    match = rng.choice(list(pattern.finditer(line)))
    return line[:match.start()] + rng.choice(choices) + line[match.end():]


def _misspell(line, rng):
    """``line`` with two adjacent, different characters of one of its keys
    swapped, if it has a key with any."""
    spans = [m.span(1) if m.group(1) else m.span(2) for m in KEY.finditer(line)]
    swaps = [j for a, b in spans for j in range(a, b - 1) if line[j] != line[j + 1]]
    if not swaps:
        return line
    j = rng.choice(swaps)
    return line[:j] + line[j + 1] + line[j] + line[j + 2:]


def mutate(text: str, rng: random.Random) -> tuple[str, bool]:
    """``text`` with one to three edits drawn from ``rng``, and whether a
    key was then misspelled."""
    lines = text.splitlines()
    words = sorted(set(WORD.findall(text)))
    for _ in range(rng.randint(1, 3)):
        edit = rng.choice(("number", "delete", "duplicate", "word"))
        if edit in ("number", "word"):
            pattern = NUMBER if edit == "number" else WORD
            hits = [i for i, line in enumerate(lines) if pattern.search(line)]
            if hits:
                i = rng.choice(hits)
                lines[i] = _swap(lines[i], pattern, rng,
                                 VALUES if edit == "number" else words)
        elif lines:
            i = rng.randrange(len(lines))
            if edit == "delete":
                del lines[i]
            else:
                lines.insert(i, lines[i])
    misspelled = False
    hits = [i for i, line in enumerate(lines) if KEY.search(line)]
    if rng.random() < 0.25 and hits:
        i = rng.choice(hits)
        edited = _misspell(lines[i], rng)
        misspelled = edited != lines[i]
        lines[i] = edited
    return "\n".join(lines) + "\n", misspelled


def mutant(case: int) -> tuple[str, bool]:
    """The mutated text of fuzz case ``case``, and whether a key in it was
    misspelled."""
    source = SCENARIOS[case % len(SCENARIOS)]
    return mutate(source.read_text(), random.Random(case))


def run_case(case: int, path) -> tuple[int, int, list, bool]:
    """Write case ``case`` to ``path`` and put it through ``validate`` and
    ``run``; returns both exit codes, the run's (config, outcome) pairs and
    whether a key was misspelled."""
    text, misspelled = mutant(case)
    path.write_text(text)
    outcomes = []
    collect = SimulationRun.collect

    def recording(self, kind, facts):
        outcome = collect(self, kind, facts)
        outcomes.append((self.config, outcome))
        return outcome

    SimulationRun.collect = recording
    try:
        validated = main(["validate", "--scenario", str(path)])
        ran = main(["run", "--scenario", str(path), "--trials", "1",
                    "--policy", "both"])
    finally:
        SimulationRun.collect = collect
    return validated, ran, outcomes, misspelled


def test_mutated_bundled_scenarios_run_or_are_config_errors(tmp_path, capsys):
    exits = []
    for case in range(CASES):
        validated, ran, outcomes, misspelled = run_case(case, tmp_path / "mutant.scn")
        capsys.readouterr()
        # run loads through the same checks, and runs what they pass.
        assert validated in (0, 2) and ran == validated, case
        if misspelled:
            assert ran == 2, case
        if ran == 0:
            assert len(outcomes) == 2, case  # one per policy
        for config, out in outcomes:
            supply = sum(config.balances.values())
            assert all(total_supply(ledger) == supply
                       for ledger in out.ledgers.values()), case
            assert sum(out.status_counts.values()) == out.submitted, case
        exits.append(ran)
    # The sample reaches both sides.
    assert exits.count(0) > CASES // 4 and exits.count(2) > CASES // 10


# -- commit wakes ------------------------------------------------------------------


def _wake_log(run, wake_all):
    """``run()``'s result and the (time, channel, worker) of every wake that
    draws from a gate, under the pipeline's commit handler or, with
    ``wake_all``, under the reference handler that wakes every other idle
    worker with pending work; and how many wakes that reference loop made."""
    log, loop_wakes = [], [0]
    wake, on_commit = PipelineOrderingService._wake, PipelineOrderingService._on_commit

    def logged(self, index):
        if not self._busy[index] and index != self.withheld_worker:
            log.append((self.engine.now, self.state.channel, index))
        wake(self, index)

    def every_idle_worker(self, engine, payload):
        index, tx = payload
        self._in_flight.pop(tx.id, None)
        self._busy[index] = False
        self.state.finalize(tx)
        self._wake(index)
        for i, busy in enumerate(self._busy):
            if i != index and not busy and self.queues[i].pending:
                loop_wakes[0] += i != self.withheld_worker
                self._wake(i)

    PipelineOrderingService._wake = logged
    if wake_all:
        PipelineOrderingService._on_commit = every_idle_worker
    try:
        result = run()
    finally:
        PipelineOrderingService._wake = wake
        PipelineOrderingService._on_commit = on_commit
    return result, log, loop_wakes[0]


def _scenario_run(config):
    def run():
        out = run_attack(config, COUNTERMEASURES, config.seed)
        return MetricsRecord.from_outcome(out), out.ledgers, out.phase_log
    return run


def _dependency_batch(seed):
    """60 transfers over 8 wallet triples and their balances.  Dependencies
    on any id, later ones and cycles included, merge groups across 4 queues
    while members are in flight, so queues stall often."""
    rng = random.Random(seed)
    txs = []
    for i in range(60):
        c, (a, b) = rng.randrange(8), rng.sample(range(3), 2)
        deps = [f"d{j}" for j in rng.sample(range(60), rng.choice((0, 0, 1, 2)))]
        txs.append(transfer_tx(f"d{i}", f"W{c}{a}", f"W{c}{b}", 1 + rng.randrange(5),
                               deps=tuple(d for d in deps if d != f"d{i}"),
                               submit_time=rng.randrange(200)))
    balances = {f"W{c}{k}": 100 for c in range(8) for k in range(3)}
    return txs, balances


def _drive_dependencies(seed):
    txs, balances = _dependency_batch(seed)
    state, _ = _drive(txs, COUNTERMEASURES, seed, workers=4,
                      balances=balances, defer_limit=3)
    return state


def _dependency_run(seed):
    def run():
        state = _drive_dependencies(seed)
        return state.statuses, state.order_stream, state.ledger
    return run


def test_commit_wakes_what_waking_every_idle_worker_wakes():
    # A commit wakes only the workers whose last gate pass stalled; the wake
    # sequence and every result equal those of a loop over all workers.
    runs = [_scenario_run(parse_scenario(path.read_text())) for path in SCENARIOS]
    for case in range(20):
        try:
            runs.append(_scenario_run(parse_scenario(mutant(case)[0])))
        except (SimulatorError, ValueError):
            pass  # a config error: nothing runs
    runs += [_dependency_run(seed) for seed in range(20)]
    loop_wakes = 0
    for run in runs:
        expected, expected_log, wakes = _wake_log(run, wake_all=True)
        result, log, _ = _wake_log(run, wake_all=False)
        assert log == expected_log and result == expected
        loop_wakes += wakes
    assert loop_wakes > 100  # the loop woke other workers often


def _side_table_violations(state):
    """``dependency_violations`` as it was, kept as its oracle: the declared
    dependencies of each transaction its service accepted, noted on
    admission in ``state.declared``, checked against the order stream's
    ids."""
    position = {tx.id: i for i, tx in enumerate(state.order_stream)}
    violations = 0
    for tx_id, deps in vars(state).get("declared", {}).items():
        pos = position.get(tx_id)
        if pos is None:
            continue
        for dep in deps:
            dep_pos = position.get(dep)
            if dep_pos is None or dep_pos > pos:
                violations += 1
    return violations


def _note_declared_deps(monkeypatch):
    """Note the declared dependencies of every accepted admission on its
    channel state, as the side table was filled."""
    for service in (BaselineOrderingService, PipelineOrderingService):
        def noting(self, tx, admit=service.admit):
            outcome = admit(self, tx)
            if outcome is SubmitOutcome.ACCEPTED and tx.declared_deps:
                vars(self.state).setdefault("declared", {})[tx.id] = tx.declared_deps
            return outcome
        monkeypatch.setattr(service, "admit", noting)


def test_dependency_violations_equal_the_side_table_count(monkeypatch):
    # The count read from the order stream's transactions equals the side
    # table's: on the dependency batches, whose gates abort and time out,
    # and on fig1_race's baseline race, which breaks the dependency on 53
    # of seeds 0-99.
    _note_declared_deps(monkeypatch)
    counts, statuses = [], Counter()
    for seed in range(20):
        state = _drive_dependencies(seed)
        counts.append(state.dependency_violations())
        assert counts[-1] == _side_table_violations(state), seed
        statuses.update(state.statuses.values())
    assert sum(counts) > 0
    assert statuses[TxStatus.CONFLICT_FAILED] and statuses[TxStatus.TIMEOUT]
    collect = SimulationRun.collect

    def checking(run, kind, facts):
        out = collect(run, kind, facts)
        assert out.dep_violations == sum(
            _side_table_violations(state) for state in run.channels.values())
        return out

    monkeypatch.setattr(SimulationRun, "collect", checking)
    config = resolve_scenario("fig1_race")
    broken = [run_attack(config, "baseline", seed).dep_violations
              for seed in range(100)]
    assert sum(v >= 1 for v in broken) == sum(broken) == 53
