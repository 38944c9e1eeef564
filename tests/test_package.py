"""The package's public surface: `qbarrier.__all__` and the names `__init__` binds."""

import ast
import inspect

import qbarrier


def test_all_is_sorted_unique_and_resolves():
    names = qbarrier.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(qbarrier, name), name


def test_all_is_exactly_the_public_names_init_binds():
    tree = ast.parse(inspect.getsource(qbarrier))
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert set(qbarrier.__all__) == {name for name in bound if not name.startswith("_")}
