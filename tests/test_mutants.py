"""The recorded mutants of ``tools/mutants.py`` still match the code they mutate and the tests they name."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_named_tests_exist(mutant):
    # A renamed test would otherwise show only when tools/mutants.py runs, as pytest's exit 4.
    for test in mutant.tests:
        path, *names = test.split("[")[0].split("::")
        body = ast.parse((ROOT / path).read_text()).body
        for name in names:
            found = [node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
            assert found, f"{test}: no {name} in {path}"
            body = found[0].body
