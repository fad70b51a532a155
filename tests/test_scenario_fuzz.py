"""Scenario fuzzer: mutated copies of the bundled scenarios, run through the
CLI in-process, either run or fail as configuration errors.

Each case copies one bundled file and makes one to three edits, each drawn
from a generator seeded with the case number: a number set to -1, 0, 1, 2,
3 or 99 999; a line deleted or duplicated; or a word swapped for another
word from the same file.  The copy goes through ``validate`` and then
``run --trials 1 --policy both``.  Both must exit 0 or 2 (config error),
and every outcome a run collects must conserve each channel's supply and
count every arrived transaction once.
"""

import random
import re

from conflictsim.attacks import SimulationRun
from conflictsim.cli import BUNDLED_DIR, main
from conflictsim.core import total_supply

SCENARIOS = sorted(BUNDLED_DIR.glob("*.scn"))
NUMBER = re.compile(r"(?<![\w.-])-?\d+(?:\.\d+)?(?![\w.])")
WORD = re.compile(r"[A-Za-z_]+")
VALUES = ("-1", "0", "1", "2", "3", "99999")
CASES = 100


def _swap(line, pattern, rng, choices):
    """``line`` with one match of ``pattern`` replaced by a choice."""
    match = rng.choice(list(pattern.finditer(line)))
    return line[:match.start()] + rng.choice(choices) + line[match.end():]


def mutate(text: str, rng: random.Random) -> str:
    """``text`` with one to three edits drawn from ``rng``."""
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
    return "\n".join(lines) + "\n"


def mutant(case: int) -> str:
    """The mutated text of fuzz case ``case``."""
    source = SCENARIOS[case % len(SCENARIOS)]
    return mutate(source.read_text(), random.Random(case))


def run_case(case: int, path) -> tuple[int, int, list]:
    """Write case ``case`` to ``path`` and put it through ``validate`` and
    ``run``; returns both exit codes and the run's (config, outcome)
    pairs."""
    path.write_text(mutant(case))
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
    return validated, ran, outcomes


def test_mutated_bundled_scenarios_run_or_are_config_errors(tmp_path, capsys):
    exits = []
    for case in range(CASES):
        validated, ran, outcomes = run_case(case, tmp_path / "mutant.scn")
        capsys.readouterr()
        assert validated in (0, 2) and ran in (0, 2), case
        if validated == 2:  # run loads through the same checks
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
