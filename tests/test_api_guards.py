"""Static guards on the package API, read with `ast` (no linter is needed).

Every `liechannel` name that the benchmark under `perfbench/` imports, reads
from an imported module or traces (`tracing.TRACED`) must resolve: the
benchmark is frozen, so a deleted or renamed name would otherwise surface
only when it runs. And every top-level import of a package module must be
used in that module.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liechannel"
PERFBENCH = ROOT / "perfbench"


def benchmark_names():
    """(module, attribute) of each liechannel name a perfbench script
    imports, or reads as an attribute of a liechannel module it imported."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> liechannel module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "liechannel":
                for alias in node.names:
                    names.add((node.module, alias.name))
                    if node.module == "liechannel":
                        modules[alias.asname or alias.name] = f"liechannel.{alias.name}"
            elif isinstance(node, ast.Import):
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names
                               if alias.name.split(".")[0] == "liechannel")
        names.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in modules)
    return sorted(names)


def traced_names():
    """(module, attribute) of each entry of `perfbench/tracing.TRACED`."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        target = node.target if isinstance(node, ast.AnnAssign) else \
            node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id == "TRACED":
            return sorted({(f"liechannel.{module}", attr)
                           for _, module, attr in ast.literal_eval(node.value)})
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def test_the_readers_find_the_benchmark_names():
    # the lists are not empty by a parsing slip
    assert ("liechannel.builder", "_extend_element") in benchmark_names()
    assert ("liechannel.builder", "channel_from_sphere_curve") in benchmark_names()
    assert ("liechannel.cli", "main") in benchmark_names()
    assert ("liechannel.legendre", "curvature_sphere") in traced_names()


def resolves(module: str, attr: str) -> bool:
    """`from module import attr` succeeds: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), attr):
        return True
    try:
        importlib.import_module(f"{module}.{attr}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("module, attr", benchmark_names() + traced_names())
def test_benchmark_name_resolves(module, attr):
    assert resolves(module, attr), f"{module}.{attr} is gone"


def unused_imports(path: Path):
    """Names bound by the module's top-level imports and never read in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_every_import_is_used(name):
    assert unused_imports(PACKAGE / name) == []
