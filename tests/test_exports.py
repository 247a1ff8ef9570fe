"""Export lists: a removed name cannot linger in an `__all__` or in the package's imports."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil

import pytest

import tontine

MODULES = [name for _, name, _ in pkgutil.iter_modules(tontine.__path__)
           if name != "__main__"]  # importing __main__ would run the CLI


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"tontine.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_exported_names():
    with open(os.path.join(os.path.dirname(tontine.__file__), "__init__.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports
    unexported = [f"{module}.{name}" for module, name in imports
                  if name not in importlib.import_module(f"tontine.{module}").__all__]
    assert unexported == []
