"""The public API: every exported name resolves, and the package re-exports
only names its modules declare public."""

import ast
import importlib
from pathlib import Path

import pytest

import shallowfem

MODULES = ["mesh", "geometry", "fem", "assembly", "mms", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"shallowfem.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"shallowfem.{name}.__all__ names undefined {missing}"


def test_package_imports_only_public_names():
    tree = ast.parse(Path(shallowfem.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and all(isinstance(node, ast.ImportFrom) and node.level == 1 for node in imports)
    for node in imports:
        public = importlib.import_module(f"shallowfem.{node.module}").__all__
        private = [alias.name for alias in node.names if alias.name not in public]
        assert not private, f"shallowfem imports {private} from .{node.module}, not in its __all__"
