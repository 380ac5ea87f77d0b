"""Every module-level name in reidmot outside its API is used: a dead-helper check.

A name such as `_helper` or `_LIMIT`, defined at the top level of a module,
must be read in that module outside its own definition, or used by another
reidmot module through `from .module import _helper` or `module._helper`
after `from . import module`. A private helper left behind when its last
caller goes fails here, even where another module has one of the same name.
So does a public-looking one, such as `helper`, that is not in
`reidmot.__all__`: only the package's API may go unread by the package.

Every name a module imports must be read in that module too, or be in its
`__all__`, unless test_patch_points.PATCHED lists it: an import kept only
so that a caller can patch it there is named in that list.
"""

import ast
import types
from pathlib import Path

import pytest

import reidmot

from test_patch_points import PATCHED

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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _public_outside_all(name: str) -> bool:
    return not name.startswith("_") and name not in reidmot.__all__


def _unused_names(module: str, checked) -> list[str]:
    """The top-level names of `module` that `checked` picks and no reidmot
    module reads outside their definitions."""
    tree = TREES[module]
    unused = []
    for node in tree.body:
        names = [name for name in _defined_names(node)
                 if checked(name) and (module, name) not in USED_ELSEWHERE]
        if not names:
            continue
        own = {id(n) for n in ast.walk(node)}
        reads = {n.id for n in ast.walk(tree) if id(n) not in own
                 and isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{module}.py:{node.lineno}: {name}" for name in names if name not in reads]
    return unused


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_module_name_is_used(module):
    assert _unused_names(module, _private) == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_public_name_outside_all_is_used(module):
    assert _unused_names(module, _public_outside_all) == []


PATCHED_NAMES = {(owner.__name__.rpartition(".")[2], name)
                 for owner, name in PATCHED if isinstance(owner, types.ModuleType)}


def _exported(tree) -> set[str]:
    """The names of the module's `__all__` list, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unread_imports(module: str) -> list[str]:
    """The names `module` imports but neither reads nor exports, nor has
    listed in PATCHED."""
    tree = TREES[module]
    reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)} | _exported(tree)
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in reads and (module, name) not in PATCHED_NAMES:
                unread.append(f"{module}.py:{node.lineno}: {name}")
    return unread


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_imported_name_is_read(module):
    assert _unread_imports(module) == []
