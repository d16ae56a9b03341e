"""Static checks over the package source, with the standard library only.

Every name a module lists in ``__all__`` must exist, and no module may
import a name it never uses.  The package ``__init__`` is exempt from
both: it has no ``__all__``, and its imports are the package's re-exports.
"""

import ast
import importlib
from pathlib import Path

import pytest

import stokesrbf

PACKAGE_DIR = Path(stokesrbf.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")

# Imported but unused on purpose: the traced benchmark run
# (perfbench/layers.py) wraps these names in the importing module's
# namespace to time the evaluation calls made from there.
ALLOWED_UNUSED = {("analysis", "evaluate"), ("multiscale", "evaluate")}


def _tree(module: str) -> ast.Module:
    path = PACKAGE_DIR / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used - set(_declared_all(tree))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"stokesrbf.{module}")
    missing = [name for name in _declared_all(_tree(module)) if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    unused = _unused_imports(_tree(module)) - {
        name for mod, name in ALLOWED_UNUSED if mod == module
    }
    assert not unused


def test_allowed_unused_imports_are_still_unused():
    for module, name in ALLOWED_UNUSED:
        assert name in _unused_imports(_tree(module))


@pytest.mark.parametrize("rule", ["os.sysconf", "np.iscomplexobj", "numbers.Integral",
                                  "numbers.Real", "8 * n * n"])
def test_each_input_rule_is_written_once(rule):
    # the memory guard, the complex-point test, the count test, the
    # positive-real test and the bytes of a dense matrix each live in one
    # module (`geometry`), which every public entry calls
    holders = [module for module in MODULES
               if rule in (PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8")]
    assert holders == ["geometry"]


def _private_imports(tree: ast.Module) -> set[str]:
    """Names starting with ``_`` that ``tree`` imports from the package."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")}


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_cross_modules(module):
    # a rule that another module needs is public where it lives
    assert not _private_imports(_tree(module))


def test_checks_can_fail():
    tree = ast.parse("import os\nfrom math import pi, tau\nx = tau\n")
    assert _unused_imports(tree) == {"os", "pi"}
    assert _declared_all(ast.parse("__all__ = ['a', 'b']\n")) == ["a", "b"]
    tree = ast.parse("from .a import _b, c\nfrom ._d import e\nfrom os import _exit\n")
    assert _private_imports(tree) == {"_b"}

