import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_in_src():
    # ``python -O`` strips assert statements; guarantees must raise instead.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"assert statements in src/: {found}"


def test_no_float_in_lines_module():
    # The line side claims exact arithmetic: no float literal, no float().
    path = SRC / "stablecover" / "adversary" / "lines.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.lineno}: float constant {node.value!r}")
        if isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: name float")
    assert not found, f"floating point in adversary/lines.py: {found}"


def test_packages_hold_only_their_docstring():
    # No re-export facade: callers import from the module that defines a name.
    found = []
    for path in sorted(SRC.rglob("__init__.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if len(tree.body) != 1 or ast.get_docstring(tree) is None:
            found.append(str(path.relative_to(SRC)))
    assert not found, f"__init__.py beyond a docstring: {found}"
