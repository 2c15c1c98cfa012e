"""The package's public surface: every exported name exists where it is
declared, and the package imports only declared names."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lstep

MODULES = sorted(m.name for m in pkgutil.iter_modules(lstep.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"lstep.{name}")
    assert module.__all__, name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, (name, missing)
    assert len(set(module.__all__)) == len(module.__all__), name
    # a function or class is exported by the module that defines it, so
    # one that moves to another module leaves its old __all__ too
    foreign = [
        n for n in module.__all__
        if getattr(getattr(module, n), "__module__", module.__name__) != module.__name__
    ]
    assert not foreign, (name, foreign)


def test_package_imports_only_declared_names():
    tree = ast.parse(Path(lstep.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, node.module
        module = importlib.import_module(f"lstep.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)


def test_the_package_runs_on_numpy_alone():
    """Importing lstep and every submodule, cli and checks included, in a
    fresh interpreter loads no scipy: the package declares numpy only,
    though its tests and the bench's verifier use scipy."""
    code = (
        "import importlib, pkgutil, sys, lstep\n"
        "for m in pkgutil.iter_modules(lstep.__path__):\n"
        "    importlib.import_module('lstep.' + m.name)\n"
        "print(sorted(m.name for m in pkgutil.iter_modules(lstep.__path__)))\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(lstep.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    ).stdout.splitlines()
    assert out == [str(MODULES), "[]"]
    assert {"cli", "checks"} <= set(MODULES)
