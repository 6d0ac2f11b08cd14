import ast
import inspect

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
