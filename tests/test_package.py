import ast
import inspect
import pathlib
import sys

import pplateau


def test_all_names_resolve_and_are_unique():
    for name in pplateau.__all__:
        assert hasattr(pplateau, name), name
    assert len(set(pplateau.__all__)) == len(pplateau.__all__)


def test_all_is_exactly_the_public_imports():
    tree = ast.parse(inspect.getsource(pplateau))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert set(pplateau.__all__) == {name for name in imported if not name.startswith("_")}


def test_modules_import_only_the_standard_library_numpy_and_the_package():
    # pyproject.toml promises numpy as the one dependency.
    allowed = set(sys.stdlib_module_names) | {"numpy", "pplateau"}
    src = pathlib.Path(pplateau.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            assert set(tops) <= allowed, (path.name, tops)
