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
