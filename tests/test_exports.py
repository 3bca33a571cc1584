import ast
import importlib
import pathlib
import pkgutil

import pytest

import shocklab

# every package module with an export list (cli has none)
MODULES = {
    info.name: module
    for info in pkgutil.iter_modules(shocklab.__path__)
    if hasattr(module := importlib.import_module(f"shocklab.{info.name}"), "__all__")
}


def test_export_lists_found():
    assert set(MODULES) == {
        "core", "characteristics", "burgers", "wave_potential", "geometry", "verification", "godunov",
    }


@pytest.mark.parametrize("name", sorted(MODULES))
def test_all_names_resolve(name):
    module = MODULES[name]
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_are_exported():
    # every `from .module import name` in the package root names a listed export
    tree = ast.parse(pathlib.Path(shocklab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == set(MODULES)
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in MODULES[node.module].__all__
    ]
    assert unlisted == []
