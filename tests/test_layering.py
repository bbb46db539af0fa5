"""Layout: only ``rigged.moves`` touches the column buffer and the kernels that scan and move it, and value objects are slotted."""

import ast
from pathlib import Path

import rigged
from rigged.bijection import RiggedPartition
from rigged.characters import RestrictedSet, RiggingFloor
from rigged.configuration import ZERO, Configuration
from rigged.identities import VerifyReport
from rigged.moves import FreeParticle, ParticleSighting, Separation

BUFFER_NAMES = {
    "_Scratch", "_settle", "_float_off", "_stepped_weight", "_sight", "_cut_scan", "_sweep", "_checked_sweep", "_fall",
    "_run_length", "_unit_moves_agree",
}


def names(tree: ast.AST) -> set[str]:
    """Every identifier a module mentions: names, attributes, imported names, aliases and definitions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_only_moves_names_the_buffer():
    modules = {path.name: names(ast.parse(path.read_text())) for path in Path(rigged.__file__).parent.glob("*.py")}
    assert BUFFER_NAMES <= modules.pop("moves.py")
    offenders = {name: sorted(BUFFER_NAMES & used) for name, used in modules.items() if BUFFER_NAMES & used}
    assert not offenders, f"only rigged.moves may name the column buffer and its kernels: {offenders}"


def test_value_objects_have_no_instance_dict():
    # verify_all memoizes one RiggedPartition per Configuration; a class that loses slots=True pays a
    # dictionary per instance again.
    floor, free = RiggingFloor((0, 1)), FreeParticle(3, 1, 2)
    values = [
        Configuration(0, (1, 2)),
        RiggedPartition(((2, 0),)),
        floor,
        RestrictedSet(floor, (), 2),
        VerifyReport("roundtrip", {}),
        ParticleSighting(1, "S", 2),
        free,
        Separation(0, free, free.energy, ZERO),
    ]
    assert [type(value).__name__ for value in values if hasattr(value, "__dict__")] == []
