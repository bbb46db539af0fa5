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
        "_settle re-sights a particle from q - 1 after a run at q",
        "src/rigged/moves.py",
        "j = i - 2 if i - 2 > c else c + 1",
        "j = i - 1 if i - 1 > c else c + 1",
        ("tests/test_move_oracle.py::test_sweep_matches_cut_scan_and_moves",),
    ),
    Mutant(
        "_settle settles the highest particle first",
        "src/rigged/moves.py",
        "    for col in found:\n",
        "    for col in reversed(found):\n",
        ("tests/test_move_oracle.py::test_sweep_matches_cut_scan_and_moves",),
    ),
    Mutant(
        "_settle lands a fall one zero column above the content below instead of two",
        "src/rigged/moves.py",
        "min(left, e - l * (x + 3))",
        "min(left, e - l * (x + 2))",
        ("tests/test_move_oracle.py::test_sweep_matches_cut_scan_and_moves",),
    ),
    Mutant(
        "_settle's run drops the L bound two windows below",
        "src/rigged/moves.py",
        "                if i - 2 > c:\n",
        "                if False:\n",
        ("tests/test_move_oracle.py::test_left_sweeps_match_reference_without_debug",),
    ),
    Mutant(
        "_descend lets a column reach -1 before it raises",
        "src/rigged/moves.py",
        "if vals[i + 1] < 0:",
        "if vals[i + 1] < -1:",
        ("tests/test_moves.py::TestPassing::test_negative_column_detected",),
    ),
    Mutant(
        "_cut_scan stops cutting its copy",
        "src/rigged/moves.py",
        "        found.append(j)\n        vals[j] = vals[j + 1] = 0\n",
        "        found.append(j)\n",
        (
            "tests/test_moves.py::TestPositions::test_examples",
            "tests/test_move_oracle.py::test_single_moves_match_reference",
        ),
    ),
    Mutant(
        "_float_off's per-move re-check drops S",
        "src/rigged/moves.py",
        "b + c > l or ",
        "",
        ("tests/test_moves.py::TestSeparation::test_recheck_raises_exactly_when_the_move_leaves_the_class",),
    ),
    Mutant(
        "_run_length drops the L bound two windows above a right run (the float's run passes i + 2)",
        "src/rigged/moves.py",
        "    r = kl - vals[h - 1] - 2 * (vals[h] + vals[h + 1]) - vals[h + 2]\n",
        "    r = kl if step < 0 else kl - vals[h - 1] - 2 * (vals[h] + vals[h + 1]) - vals[h + 2]\n",
        ("tests/test_move_oracle.py::test_separation_matches_reference",),
    ),
    Mutant(
        "_run_length lets a left run empty column i + 1 and go on",
        "src/rigged/moves.py",
        "    q = vals[i + (step > 0)]\n",
        "    q = kl if step > 0 else vals[i]\n",
        ("tests/test_move_oracle.py::test_run_length_counts_single_moves",),
    ),
    Mutant(
        "_run_length drops the L bound two windows below a left run (the probe's run skips q - 2)",
        "src/rigged/moves.py",
        "    r = kl - vals[h - 1] - 2 * (vals[h] + vals[h + 1]) - vals[h + 2]\n",
        "    r = kl if step > 0 else kl - vals[h - 1] - 2 * (vals[h] + vals[h + 1]) - vals[h + 2]\n",
        ("tests/test_move_oracle.py::test_passing_matches_reference",),
    ),
    Mutant(
        "_float_off's isolated rise overshoots by one column",
        "src/rigged/moves.py",
        "rise = l * (n - 4) - e",
        "rise = l * (n - 3) - e",
        ("tests/test_moves.py::TestFreeFlight::test_overlong_rise_detected",),
    ),
    Mutant(
        "_image raises riggings by d, not w * d",
        "src/rigged/identities.py",
        "(w, r + w * d)",
        "(w, r + d)",
        (
            "tests/test_identities.py::TestRoundtrip::test_level_three",
            "tests/test_move_oracle.py::test_cached_iota_matches_iota",
        ),
    ),
    Mutant(
        "enumerate_configurations ends a row at a column that costs exactly the energy left",
        "src/rigged/configuration.py",
        "if i > limit or left[i] < i:",
        "if i > limit or left[i] <= i:",
        ("tests/test_configuration.py::TestEnumeration::test_matches_product_oracle",),
    ),
    Mutant(
        "_next_column under a weight cap drops the 3-window bound",
        "src/rigged/configuration.py",
        "top = min(top, k - y - z, l - z, k + l - x - 2 * y - 2 * z)",
        "top = min(top, l - z, k + l - x - 2 * y - 2 * z)",
        (
            "tests/test_configuration.py::TestEnumeration::test_matches_product_oracle[4-3]",
            "tests/test_characters.py::TestColumnTransfer::test_weighted_sum_matches_product_oracle[5]",
        ),
    ),
    Mutant(
        "_fermionic_sum packs into slots 8 bits narrower",
        "src/rigged/characters.py",
        "    bits = _slot_bits(sum(math.prod(math.comb(p_j + m_j, m_j) for p_j, m_j in keys) for _, keys in terms))\n",
        "    bits = max(_slot_bits(sum(math.prod(math.comb(p_j + m_j, m_j) for p_j, m_j in keys) for _, keys in terms)) - 8, 8)\n",
        (
            "tests/test_identities.py::TestBeyondTheGrid::test_every_polynomial_identity_at_level_five[2]",
            "tests/test_characters.py::TestPackedKernels::test_fermionic_sum_matches_lists",
        ),
    ),
    Mutant(
        "gordon_phase takes twice the larger weight",
        "src/rigged/phases.py",
        "return 2 * min(l, lp)",
        "return 2 * max(l, lp)",
        ("tests/test_qseries.py::TestQuadraticForm::test_gordon_form_matches_pairwise_interaction",),
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
