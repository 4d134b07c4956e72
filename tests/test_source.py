"""Dead names in the package source, found by parsing it with `ast`: an
import that its module never names, a function local that is assigned
and never read, and a private module-level name that no module reads."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mpcjoin"
MODULES = sorted(SRC.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _loads(tree):
    """The names read anywhere in tree, nested functions included."""
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _stores(fn):
    """The names fn assigns in its own scope: its nested functions are not
    walked, its comprehensions are."""
    names, declared, todo = set(), set(), list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)     # not a local of fn
        todo.extend(ast.iter_child_nodes(node))
    return names - declared


# __init__.py is left out: the package re-exports what it imports
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_named(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
    unused = sorted((line, name) for name, line in bound.items()
                    if name not in _loads(tree))
    assert not unused, "%s imports names it never uses: %s" % (path.name, unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_is_read(path):
    tree = ast.parse(path.read_text())
    dead = []
    for fn in ast.walk(tree):
        if isinstance(fn, FUNCTIONS):
            dead += [(fn.lineno, getattr(fn, "name", "<lambda>"), name)
                     for name in sorted(_stores(fn) - _loads(fn) - {"_"})]
    assert not dead, "%s assigns locals it never reads: %s" % (path.name, dead)


def _module_private_names(tree):
    """(line, name) of every private (`_x`, not dunder) function, class or
    assignment target at the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((node.lineno, n) for n in names
                    if n.startswith("_") and not n.startswith("__"))


def test_every_private_module_name_is_read():
    # a private helper that no module of the package reads, by name or as
    # an attribute, is dead code left behind by a refactor
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    read = set().union(*map(_loads, trees.values()))
    read |= {n.attr for t in trees.values() for n in ast.walk(t)
             if isinstance(n, ast.Attribute)}
    dead = sorted((name, line, n) for name, tree in trees.items()
                  for line, n in _module_private_names(tree) if n not in read)
    assert not dead, "private names that no module reads: %s" % dead
