import ast
import importlib
import pkgutil

import pytest

import geoquant

MODULES = sorted(info.name for info in pkgutil.walk_packages(geoquant.__path__, "geoquant."))


def test_every_module_is_listed():
    assert {"geoquant.grid", "geoquant.stencil", "geoquant.prequant.observables"} <= set(MODULES)


@pytest.mark.parametrize("name", ["geoquant", *MODULES])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imported names that the module never reads or exports."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("name", ["geoquant", *MODULES])
def test_no_unused_module_imports(name):
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    unused = _unused_imports(tree)
    assert not unused, f"{name} imports names it never uses: {unused}"


def _scipy_imports(tree: ast.Module) -> set[str]:
    """Every ``scipy`` module a module imports, at any depth of its code."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            if node.module == "scipy":
                names |= {f"scipy.{alias.name}" for alias in node.names}
    return {name for name in names if name.split(".")[0] == "scipy"}


def test_no_module_imports_scipy():
    found = {}
    for name in ["geoquant", *MODULES]:
        with open(importlib.import_module(name).__file__, encoding="utf-8") as fh:
            imports = _scipy_imports(ast.parse(fh.read()))
        if imports:
            found[name] = imports
    assert found == {}
