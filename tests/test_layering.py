"""Import structure of the ``repro`` package, checked on its source.

* No module imports, or reads as an attribute, a ``_``-prefixed name of
  another ``repro`` module (dunders are exempt): what crosses a module
  boundary is public.
* The experiment layers import in one direction: ``cells`` ← ``policy``
  ← ``cache`` ← ``common`` (dispatch).  The pool and the checkpoint
  module sit below dispatch and never import it.
* ``experiments/cells.py`` imports nothing else from
  :mod:`repro.experiments` or :mod:`repro.pool`.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"

#: ``(importing module, owning module, name) -> reason``.
ALLOWED_PRIVATE = {
    ("repro.experiments.common", "repro.experiments.cache", "_disk_store"): (
        "perfbench times cache stores by replacing common._disk_store; "
        "the dispatcher passes its own global to RunCache.put at call "
        "time, so the replacement sees every store"
    ),
}


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {
    _module_name(path): path for path in sorted(PACKAGE.rglob("*.py"))
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def _absolute(module: str, node: ast.ImportFrom) -> str:
    """The absolute module a ``from ... import`` statement names."""
    if not node.level:
        return node.module or ""
    package = module.split(".")
    if MODULES[module].name != "__init__.py":
        package = package[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _imports(module: str) -> list[tuple[str, list[str]]]:
    """Every import in ``module`` (module top and function bodies):
    ``(imported module, [imported names])``; a plain ``import`` lists
    no names."""
    tree = ast.parse(MODULES[module].read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((alias.name, []))
        elif isinstance(node, ast.ImportFrom):
            found.append((
                _absolute(module, node),
                [alias.name for alias in node.names],
            ))
    return found


def _private_uses(module: str) -> set[tuple[str, str]]:
    """``(owning module, name)`` for each private name of another repro
    module that ``module`` imports or reads as an attribute."""
    tree = ast.parse(MODULES[module].read_text())
    aliases: dict[str, str] = {}  # local name -> repro module it binds
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        aliases[alias.name.split(".")[0]] = "repro"
        elif isinstance(node, ast.ImportFrom):
            owner = _absolute(module, node)
            if not owner.startswith("repro"):
                continue
            for alias in node.names:
                submodule = f"{owner}.{alias.name}"
                if submodule in MODULES:
                    aliases[alias.asname or alias.name] = submodule
                elif _is_private(alias.name):
                    uses.add((owner, alias.name))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not _is_private(node.attr):
            continue
        owner = _dotted(node.value, aliases)
        if owner is not None and owner != module:
            uses.add((owner, node.attr))
    return uses


def _dotted(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The repro module an expression such as ``repro.pool.worker`` or
    an import alias names, else ``None``."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        if base is not None and f"{base}.{node.attr}" in MODULES:
            return f"{base}.{node.attr}"
    return None


def test_modules_found():
    assert "repro.experiments.common" in MODULES
    assert "repro.pool.worker" in MODULES


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_private_names_cross_modules(module):
    uses = {
        (owner, name)
        for owner, name in _private_uses(module)
        if (module, owner, name) not in ALLOWED_PRIVATE
    }
    assert not uses, f"{module} uses private names of other modules: {uses}"


def test_allowlist_is_used():
    for module, owner, name in ALLOWED_PRIVATE:
        assert (owner, name) in _private_uses(module)


BELOW_DISPATCH = [
    m for m in MODULES
    if m.startswith("repro.pool")
    or m in (
        "repro.checkpoint",
        "repro.experiments.cells",
        "repro.experiments.policy",
        "repro.experiments.cache",
    )
]


def _imported_modules(module: str) -> set[str]:
    """Every module ``module`` imports, with ``from pkg import sub``
    resolved to the submodule."""
    found = set()
    for owner, names in _imports(module):
        found.add(owner)
        found.update(
            f"{owner}.{name}" for name in names
            if f"{owner}.{name}" in MODULES
        )
    return found


@pytest.mark.parametrize("module", sorted(BELOW_DISPATCH))
def test_lower_layers_do_not_import_dispatch(module):
    assert "repro.experiments.common" not in _imported_modules(module)


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("repro.experiments.cells", ("repro.experiments", "repro.pool")),
        ("repro.experiments.policy", ("repro.experiments.cache",)),
    ],
)
def test_layer_imports_point_down(module, forbidden):
    bad = {
        m for m in _imported_modules(module)
        for package in forbidden
        if m == package or m.startswith(package + ".")
    }
    assert not bad, f"{module} imports {bad}"
