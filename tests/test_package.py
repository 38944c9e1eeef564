"""The package's public surface: `qbarrier.__all__` and the names `__init__` binds."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import qbarrier

README = Path(__file__).resolve().parent.parent / "README.md"
#: what only `barrier.cosh_shc` may use: the hyperbolic functions and the series switch
HYPERBOLIC = {"cosh", "sinh", "SHC_SERIES_BELOW"}


def test_all_is_sorted_unique_and_resolves():
    names = qbarrier.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(qbarrier, name), name


def test_all_is_exactly_the_public_names_init_binds():
    # __init__ binds no public name of its own: each name of its table resolves, through __getattr__, to the
    # object its home module defines, and a star import binds them all
    tree = ast.parse(inspect.getsource(qbarrier))
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert {name for name in bound if not name.startswith("_")} == set()
    assert qbarrier.__all__ == sorted(qbarrier._HOMES)
    for name, home in qbarrier._HOMES.items():
        assert getattr(qbarrier, name) is getattr(importlib.import_module(f"qbarrier.{home}"), name), name
    namespace = {}
    exec("from qbarrier import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qbarrier.__all__)


def test_a_name_outside_the_table_is_no_attribute():
    with pytest.raises(AttributeError, match="'qbarrier' has no attribute 'run_all'"):
        qbarrier.run_all


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def hyperbolic_uses(path):
    """(module, line, name) of each use of a HYPERBOLIC name in the module at path, outside `barrier.cosh_shc`."""
    tree = ast.parse(path.read_text())
    inside = {id(node) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and (path.stem, f.name) == ("barrier", "cosh_shc") for node in ast.walk(f)}
    named = ((node, getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None))
             for node in ast.walk(tree) if id(node) not in inside)
    return [(path.stem, node.lineno, name) for node, name in named
            if name in HYPERBOLIC and not isinstance(getattr(node, "ctx", None), ast.Store)]


def test_one_function_forms_the_hyperbolic_pair():
    # every route takes cosh(a*x) and sinh(a*x)/a from barrier.cosh_shc, which alone holds the series switch
    assert [use for path in sorted(Path(qbarrier.__file__).parent.glob("*.py")) for use in hyperbolic_uses(path)] == []


def numpy_imports(path):
    """Lines of the module at path whose import statement names numpy or a submodule of it."""
    tree = ast.parse(path.read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"]


def test_only_barrier_imports_numpy():
    # every other module takes barrier's np, which loads numpy on the first array; an import of its own
    # would load numpy in every process, `qbarrier point` included
    found = {path.stem: numpy_imports(path) for path in sorted(Path(qbarrier.__file__).parent.glob("*.py"))}
    assert {stem: lines for stem, lines in found.items() if lines and stem != "barrier"} == {}
