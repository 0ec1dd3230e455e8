"""The package runs on its declared dependencies alone.

``pyproject.toml`` declares numpy and scipy.  A subprocess installs a
meta-path finder that refuses every other third-party module, then imports
every ``repro.*`` module and runs a short ``repro solve`` — so an undeclared
import anywhere in the package fails here instead of on a clean install.
"""

import os
import subprocess
import sys

import repro

_SCRIPT = r"""
import importlib
import importlib.abc
import pkgutil
import sys

ALLOWED = {"numpy", "scipy", "repro"}


class BlockThirdParty(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        # sysconfig loads its platform data module by a generated name.
        if top in ALLOWED or top in sys.stdlib_module_names or top.startswith("_sysconfigdata"):
            return None
        raise ModuleNotFoundError("blocked third-party import %r" % name, name=name)


sys.meta_path.insert(0, BlockThirdParty())

import repro

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)

from repro.cli.main import main

sys.exit(main(["solve", "zdt1", "--algorithm", "pmo2", "--generations", "2",
               "--population", "8"]))
"""


def test_package_imports_and_solves_with_numpy_and_scipy_only():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=env
    )
    assert completed.returncode == 0, completed.stderr
    assert "front size" in completed.stdout
