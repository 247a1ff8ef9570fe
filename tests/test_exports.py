"""Export lists: a removed name cannot linger in an `__all__` or in the package's
imports, and every exported name has a reader."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
from pathlib import Path

import pytest

import tontine

MODULES = [name for _, name, _ in pkgutil.iter_modules(tontine.__path__)
           if name != "__main__"]  # importing __main__ would run the CLI

ROOT = Path(__file__).resolve().parents[1]

# Public names kept without a reader in the library, the benchmark or the
# README tour, each for a reason of its own.
UNREAD_BY_DESIGN = {
    # the continuous-time closed form E[X*_t] that the kernel's discrete
    # expectations are checked against (ROADMAP item 1)
    "expected_wealth",
    # the paper's "100% payback upon death at the start", checked by TestBequestValue
    "expected_discounted_bequest_value",
}


def _reads(source: str) -> set[str]:
    """The names a Python source reads: loaded names and attributes (not
    definitions, import lines or strings such as `__all__` entries)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


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


def test_every_exported_name_has_a_reader():
    # read in the library, the benchmark or the README tour; a name read only
    # by tests is test-only API
    sources = [path.read_text(encoding="utf-8")
               for pattern in ("src/tontine/*.py", "perfbench/*.py")
               for path in sorted(ROOT.glob(pattern))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources.append(re.search(r"```python\n(.*?)```", readme, re.S).group(1))  # the tour
    read = set().union(*map(_reads, sources))
    unread = [f"{name}.{n}" for name in MODULES
              for n in getattr(importlib.import_module(f"tontine.{name}"), "__all__", ())
              if n not in read and n not in UNREAD_BY_DESIGN]
    assert unread == []
