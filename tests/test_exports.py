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
    # expectations are checked against (tests/test_analytics.py::TestExpectedWealth)
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


def _private_tontine_reads(source: str) -> list[str]:
    """The `_`-prefixed names of `tontine` modules that a source imports, or
    reads as attributes of a name it bound to `tontine` or one of its modules."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tontine":
                    modules.add(alias.asname or "tontine")
                    if "._" in alias.name:
                        found.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tontine":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if "._" in name:
                    found.append(name)
                elif node.module == "tontine":  # a submodule or a re-exported name
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_the_oracle_reads_no_private_name():
    # tests/helpers.py holds the suite's independent oracles: one that reads
    # the library's private coefficients or helpers would check them against
    # themselves
    helpers = (ROOT / "tests" / "helpers.py").read_text(encoding="utf-8")
    assert _private_tontine_reads(helpers) == []


@pytest.mark.parametrize("source", [
    "from tontine.simulate import _step_coefficients",
    "from tontine import simulate\n"
    "def steps(controls, market, mortality, schedule, times):\n"
    "    return simulate._step_coefficients(controls, market, mortality, schedule, times)",
    "import tontine.simulate\nn = tontine.simulate._SUB_BLOCK_PATHS",
    "import tontine.simulate as sim\nf = sim._mean_se",
    "from tontine import _private",
])
def test_the_oracle_guard_sees_a_private_read(source):
    assert _private_tontine_reads(source) != []


def test_the_oracle_guard_skips_public_and_foreign_names():
    source = ("import numpy as np\nfrom tontine import simulate\n"
              "from tontine.controls import log_tail_integrals\n"
              "x = np._core\ny = simulate.__name__\nz = simulate.REPORT_TIMES\n")
    assert _private_tontine_reads(source) == []


def _hand_built_csv(source: str) -> list[int]:
    """Lines outside `_csv_table` that build CSV text by hand: a join on ","
    or "\\n", or a string or f-string literal (not a docstring) holding both a
    comma and a newline."""
    tree = ast.parse(source)
    docstrings = {node.body[0].value for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    found = set()

    def visit(node) -> None:
        if isinstance(node, ast.FunctionDef) and node.name == "_csv_table":
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join" and isinstance(node.func.value, ast.Constant)
                and node.func.value.value in (",", "\n")):
            found.add(node.lineno)
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value for v in node.values if isinstance(v, ast.Constant))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node not in docstrings):
            text = node.value
        else:
            text = ""
        if "," in text and "\n" in text:
            found.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return sorted(found)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "tontine").glob("*.py")),
                         ids=lambda path: path.name)
def test_every_csv_goes_through_one_writer(path):
    assert _hand_built_csv(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    'x = ",".join(cells)',
    'x = "\\n".join(lines)',
    'x = "a,b\\n"',
    'x = f"{a},{b}\\n"',
    'def f():\n    return (f"{a:.12g},"\n            f"{b}\\n")',  # implicit concatenation
])
def test_the_csv_guard_sees_a_hand_built_writer(source):
    assert _hand_built_csv(source) != []


def test_the_csv_guard_skips_the_writer_and_docstrings():
    source = ('"""a,\nb"""\n'
              'def _csv_table(columns, rows):\n    return "\\n".join([",".join(columns)])\n'
              'def g():\n    """c,\n    d"""\n    return ", ".join(names)\n')
    assert _hand_built_csv(source) == []
