"""Only ``rigged.moves`` touches the column buffer and the kernels that scan and move it."""

import ast
from pathlib import Path

import rigged

BUFFER_NAMES = {"_Scratch", "_settle", "_float_free", "_stepped_weight", "_sight", "_cut_scan", "_sweep", "_fall"}


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
