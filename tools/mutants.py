"""Recorded mutants: the mutation checks that once killed a mutant, kept so that they can be run again.

Each row of ``MUTANTS`` names a file of the checkout, a text that occurs in it exactly once, the text that
replaces it, and the tests that must fail once it is replaced.  For each row the script copies the
checkout, without ``.git``, into a temporary directory, applies that one replacement there and runs the
named tests in one pytest process; rows run one after another.  A mutant is killed when a named test
fails, and survives when they all pass.  The script exits 1 if any mutant survives or cannot be run.

    python tools/mutants.py

``tests/test_mutants.py`` checks only that each row's text still occurs exactly once, which is cheap: it
catches a row that the code has drifted away from.  New mutation checks are added here as rows.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "check_level accepts any number: the type tests dropped",
        "src/rigged/configuration.py",
        "    if type(k) is not int or not 1 <= k <= MAX_LEVEL:\n"
        '        raise ValueError(f"level k must be in 1..{MAX_LEVEL}, got {k!r}")\n'
        "    if l is not None and (type(l) is not int or not 0 <= l <= k):\n",
        "    if not 1 <= k <= MAX_LEVEL:\n"
        '        raise ValueError(f"level k must be in 1..{MAX_LEVEL}, got {k!r}")\n'
        "    if l is not None and not 0 <= l <= k:\n",
        (
            "tests/test_configuration.py::test_integer_arguments_checked[check_level k=2.0]",
            "tests/test_configuration.py::test_integer_arguments_checked[check_level l=True]",
            "tests/test_configuration.py::test_integer_arguments_checked[weight k=2.0]",
        ),
    ),
    Mutant(
        "_check_nonnegative rejects zero: < 0 made <= 0",
        "src/rigged/configuration.py",
        "    if value < 0:\n",
        "    if value <= 0:\n",
        (
            "tests/test_cli.py::TestTrace::test_zero_steps_echoes",
            "tests/test_identities.py::TestRoundtrip::test_small",
        ),
    ),
    Mutant(
        "_sweep flags a sighting isolated with its predecessor four or fewer windows below",
        "src/rigged/moves.py",
        "isolated = c < j - 4 and s == l and not (",
        "isolated = s == l and not (",
        ("tests/test_move_oracle.py::test_sweep_matches_cut_scan_and_moves",),
    ),
    Mutant(
        "_sweep drops the j - 2 mask after a jump: window c + 2 reads column c + 1 as before the move",
        "src/rigged/moves.py",
        "a, b, x = (0 if c == j - 2 else vals[j - 1]), vals[j], vals[j + 1]",
        "a, b, x = (vals[j - 1] + 1 if c == j - 2 else vals[j - 1]), vals[j], vals[j + 1]",
        ("tests/test_move_oracle.py::test_sweep_matches_cut_scan_and_moves",),
    ),
)


def run(mutant: Mutant) -> str:
    """``killed``, ``survived`` or ``error (...)`` for one mutant, applied in a fresh copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="rigged-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"error (the old text occurs {text.count(mutant.old)} times in {mutant.path})"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {key: value for key, value in os.environ.items() if key != "RIGGED_DEBUG"}
        env.update(PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        code = subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main() -> int:
    outcomes = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run(mutant)
        outcomes.append(outcome)
        print(f"{outcome:<10} {time.perf_counter() - start:6.1f} s  {mutant.path}: {mutant.name}", flush=True)
    survived = sum(outcome != "killed" for outcome in outcomes)
    print(f"{len(outcomes) - survived} of {len(outcomes)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
