"""Static checks over the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "radiuskit"


def _library_trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_no_bare_assert_in_library():
    # self-checks must raise VerificationError, which `python -O` keeps
    found = [f"{name}:{node.lineno}" for name, tree in _library_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_function_level_import_in_library():
    # a lazy import hides an import cycle between modules until it runs
    found = sorted({f"{name}:{node.lineno}" for name, tree in _library_trees()
                    for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.Lambda))
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert not found, found
