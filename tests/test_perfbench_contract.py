"""The qsd names the benchmark in perfbench/ relies on still exist.

perfbench times layers by rebinding the functions its tracing.TRACED table
names, and its workloads call qsd through module attributes.  A change that
deletes or renames one of those names breaks the benchmark; these tests
catch it here.  They read the perfbench sources as text (ast) and import
nothing from perfbench.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_names() -> list[tuple[str, str]]:
    """The (module, name) pairs of tracing.TRACED, read from its literal."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            table = ast.literal_eval(node.value)
            return [(module, name) for module, names in table.items() for name in names]
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


def qsd_references(path: Path) -> set[str]:
    """Every dotted qsd name a source imports or reads as an attribute chain rooted at qsd."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names if alias.name.split(".")[0] == "qsd")
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "qsd":
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "qsd":
                names.add(".".join(["qsd", *reversed(chain)]))
    return names


def resolve(dotted: str):
    """The object a dotted qsd name refers to, importing submodules on the way as `import qsd.x` would."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[: i + 1]))
            except ModuleNotFoundError:
                pass
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, name", traced_names(), ids=lambda v: v)
def test_every_traced_name_is_a_callable_of_its_module(module, name):
    assert callable(getattr(importlib.import_module(f"qsd.{module}"), name, None))


def test_every_qsd_name_the_workloads_read_exists():
    names = qsd_references(PERFBENCH / "workloads.py")
    # The scan itself: the workloads reach qsd through these, among others.
    assert {"qsd.solve", "qsd.norm_identity_check", "qsd.proposition_bound_check", "qsd.oracle_grid"} <= names
    missing = []
    for dotted in sorted(names):
        try:
            resolve(dotted)
        except (AttributeError, ModuleNotFoundError):
            missing.append(dotted)
    assert not missing, f"perfbench/workloads.py reads names qsd does not define: {missing}"
