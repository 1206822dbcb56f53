"""The public API: every name a module's ``__all__`` lists resolves, the
package imports nothing, and the program runs without scipy, which only
the tests' oracle matrix ``LinearSystem.matrix`` imports."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import shallowfem

MODULES = ["mesh", "geometry", "fem", "assembly", "mms", "cli"]
PACKAGE = Path(shallowfem.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"shallowfem.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"shallowfem.{name}.__all__ names undefined {missing}"


def test_package_imports_nothing():
    """The API is each submodule's ``__all__``: a package that re-exported
    names would be a second list to keep in step, and would load every
    module on any import."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, f"shallowfem/__init__.py imports at lines {[n.lineno for n in imports]}"


def test_mesh_geometry_fem_load_without_scipy():
    """In a fresh interpreter, the mesh, geometry and fem modules load
    neither scipy nor the solver and manufactured-solution modules."""
    probe = ("import sys, shallowfem.mesh, shallowfem.geometry, shallowfem.fem\n"
             "print(sorted(m for m in ('scipy', 'shallowfem.assembly', 'shallowfem.mms') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "[]"


def test_the_program_runs_without_scipy():
    """In a fresh interpreter, the CLI module and a one-level convergence
    study load no scipy module."""
    probe = ("import sys, shallowfem.cli\n"
             "from shallowfem import mms\n"
             "mms.convergence_study(1, [(0, 1)])\n"
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "[]"
