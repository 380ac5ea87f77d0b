"""Every module-level private name in reidmot is used: a dead-helper check.

A name such as `_helper` or `_LIMIT`, defined at the top level of a module,
must be read in that module outside its own definition, or used by another
reidmot module through `from .module import _helper` or `module._helper`
after `from . import module`. A private helper left behind when its last
caller goes fails here, even where another module has one of the same name.
"""

import ast
from pathlib import Path

import pytest

import reidmot

TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted(Path(reidmot.__file__).parent.glob("*.py"))}


def _used_by_other_modules() -> set[tuple[str, str]]:
    """(module, name) for each name one module takes from another."""
    used = set()
    for tree in TREES.values():
        sibling = {}  # local name -> module, from `from . import module as local`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        sibling[alias.asname or alias.name] = alias.name
                    else:
                        used.add((node.module, alias.name))
        used |= {(sibling[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in sibling}
    return used


USED_ELSEWHERE = _used_by_other_modules()


def _defined_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _unused_private_names(module: str) -> list[str]:
    tree = TREES[module]
    unused = []
    for node in tree.body:
        private = [name for name in _defined_names(node)
                   if name.startswith("_") and not name.startswith("__")
                   and (module, name) not in USED_ELSEWHERE]
        if not private:
            continue
        own = {id(n) for n in ast.walk(node)}
        reads = {n.id for n in ast.walk(tree) if id(n) not in own
                 and isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{module}.py:{node.lineno}: {name}" for name in private if name not in reads]
    return unused


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_module_name_is_used(module):
    assert _unused_private_names(module) == []
