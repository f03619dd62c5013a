"""Every module imports on its own, and the package root imports nothing.

Each name has one import path, the module that defines it; the package root
holds only its docstring and __version__. Each check runs in a fresh
interpreter, so a module that leans on another having been imported first, or
an import cycle, fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "carleman").glob("*.py") if p.stem != "__init__")


def _fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    _fresh(f"import carleman.{name}")


def test_package_root_holds_only_version():
    code = "import carleman\nprint(' '.join(n for n in vars(carleman) if not n.startswith('_')))"
    assert _fresh(code).split() == []


def test_weights_loads_no_other_module():
    code = (
        "import sys, carleman.weights\n"
        "print(' '.join(sorted(n for n in sys.modules if n.split('.')[0] == 'carleman')))"
    )
    assert _fresh(code).split() == ["carleman", "carleman.logscale", "carleman.weights"]
