"""The package's export list and its modules' imports."""

import ast
import pathlib
import re
import sys

import pytest

import ballsaddle

SOURCES = sorted(pathlib.Path(ballsaddle.__file__).parent.glob("*.py"))


def test_every_exported_name_resolves():
    assert len(set(ballsaddle.__all__)) == len(ballsaddle.__all__)
    missing = [name for name in ballsaddle.__all__ if not hasattr(ballsaddle, name)]
    assert missing == []


def test_every_public_callable_is_exported():
    # submodules are attributes of the package too, but no callables
    public = {name for name, value in vars(ballsaddle).items()
              if not name.startswith("_") and callable(value)}
    assert public - set(ballsaddle.__all__) == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    # a name a module imports is read in that module or re-exported in __all__
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    assert imported - used - exported == set()


def test_docstring_names_resolve():
    # a ``name`` or ``module.name`` in the sources names something the package
    # defines or reads (a def, class, argument, attribute, keyword, name or
    # identifier-like string), a module of it, or a standard-library module
    known = set(sys.stdlib_module_names) | {"ballsaddle"} | {path.stem for path in SOURCES}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                known.add(node.name)
            elif isinstance(node, (ast.arg, ast.keyword)):
                known.add(node.arg)
            elif isinstance(node, ast.Attribute):
                known.add(node.attr)
            elif isinstance(node, ast.Name):
                known.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                known.add(node.value)
    named = {name for path in SOURCES
             for name in re.findall(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``", path.read_text())}
    assert len(named) > 100
    assert sorted(name for name in named if not set(name.split(".")) <= known) == []
