"""Static checks over the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "radiuskit"


def test_no_bare_assert_in_library():
    # self-checks must raise VerificationError, which `python -O` keeps
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert sorted(SRC.glob("*.py")) and not found, found
