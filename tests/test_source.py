"""Static checks over the library source."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "radiuskit"

# Exported package API that no module calls, each with its reason.
PACKAGE_API = {
    "characteristic": "the 0/1 side string of a sequence over a bipartite "
                      "graph, whose bad pairs the bipartite bound counts",
    "complete": "K_n, the generator beside path, cycle and complete_bipartite",
    "linearize_cyclic": "a valid cyclic k-radius sequence of length s as a "
                        "valid linear one of length s + k",
}


def _library_trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _loaded_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _public_functions(tree):
    """Top-level functions and methods of top-level classes, as (line, name)."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for func in body:
            if (isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not func.name.startswith("_")):
                yield func.lineno, func.name


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


def test_every_public_function_is_reached():
    # Reached means loaded by name in a module (re-exports in __init__ do
    # not count) or listed as package API; naming it in the README does
    # not count.  Matching by name over-approximates reach, so this errs
    # only toward passing.
    trees = dict(_library_trees())
    reached = {name for module, tree in trees.items()
               if module != "__init__.py" for name in _loaded_names(tree)}
    reached.update(PACKAGE_API)
    found = [f"{module}:{line} {name}" for module, tree in trees.items()
             for line, name in _public_functions(tree) if name not in reached]
    assert not found, found


def test_no_unused_import_in_library():
    # __init__ imports only to re-export
    found = []
    for module, tree in _library_trees():
        if module == "__init__.py":
            continue
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in loaded:
                    found.append(f"{module}:{node.lineno} {name}")
    assert not found, found


def test_every_test_helper_is_reached():
    # An oracle no test calls, directly or through a helper a test calls,
    # checks nothing and drifts from the code it once mirrored.
    tests = ROOT / "tests"
    helpers = ast.parse((tests / "helpers.py").read_text(encoding="utf-8"))
    funcs = {node.name: node for node in helpers.body
             if isinstance(node, ast.FunctionDef)}
    pending = set()
    for path in tests.glob("test_*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        pending.update(_loaded_names(tree))
        pending.update(alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names)
    reached = set()
    while pending:
        name = pending.pop()
        if name in funcs and name not in reached:
            reached.add(name)
            pending.update(_loaded_names(funcs[name]))
    found = [f"helpers.py:{node.lineno} {name}"
             for name, node in funcs.items() if name not in reached]
    assert not found, found
