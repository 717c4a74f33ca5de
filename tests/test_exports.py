import ast
import importlib
import pathlib

import pytest

import vicsekbgk

@pytest.mark.parametrize("name", ["sphere", "equilibria", "linstab", "solver"])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"vicsekbgk.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"vicsekbgk.{name}.__all__ names {missing}"
    namespace = {}
    exec(f"from vicsekbgk.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_reexports_exist_and_are_exported():
    # every name the package imports from a module is that module's and is
    # in its __all__, so a deleted name cannot linger in either list
    tree = ast.parse(pathlib.Path(vicsekbgk.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"vicsekbgk.{module_name}")
        assert getattr(vicsekbgk, name) is getattr(module, name)
        assert name in module.__all__, f"{module_name}.{name}"
