"""The reachability allowlist names functions that exist (AST only, no run).

``tests/reachability.py`` runs every entry point and fails on a function no
entry point reaches unless its allowlist names it.  A rename or a deletion
would leave an entry that matches nothing; this guard catches that in tier 1
without running the sweep.
"""

import importlib.util
import json
import os
import sys
import threading
from pathlib import Path

import pytest

from tests import reachability
from tests.reachability import ALLOWLIST, compare, inventory, reached_functions, sweep


@pytest.fixture(scope="module")
def functions():
    return inventory()


def test_every_allowlist_entry_names_a_function_in_src(functions):
    missing = sorted(set(ALLOWLIST) - set(functions))
    assert not missing, "allowlisted but not defined under src/: %s" % missing


def test_every_allowlist_entry_gives_its_reason():
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_the_inventory_sees_methods_nested_functions_and_decorated_defs(functions):
    assert "repro.moo.archive.ParetoArchive.add" in functions
    assert "repro.serve.runner.serve_forks.<locals>.reply" in functions
    # A decorated def starts at its first decorator, the line its code reports.
    path, first = functions["repro.moo.individual.Individual.is_feasible"]
    assert path.read_text().splitlines()[first - 1].strip() == "@property"


# ---------------------------------------------------------------------------
# The sweep's machinery, on a throwaway package
# ---------------------------------------------------------------------------
PACKAGE = '''\
import functools
import threading


def called():
    return helper()


def helper():
    return 1


def never():
    return 0


def outer():
    def inner():
        return 2

    return inner()


class Box:
    @property
    def size(self):
        return 3

    @functools.lru_cache(maxsize=None)
    def cached(self):
        return 4

    def unused(self):
        return 5


if True:
    def in_if():
        return 6

try:
    def in_try():
        return 7
except ImportError:
    def in_handler():
        return 8

with open(__file__):
    def in_with():
        return 9


def in_thread():
    return 10


def start_thread():
    worker = threading.Thread(target=in_thread)
    worker.start()
    worker.join()
'''

ALL_NAMES = {
    "pkg.mod.called", "pkg.mod.helper", "pkg.mod.never", "pkg.mod.outer",
    "pkg.mod.outer.<locals>.inner", "pkg.mod.Box.size", "pkg.mod.Box.cached",
    "pkg.mod.Box.unused", "pkg.mod.in_if", "pkg.mod.in_try", "pkg.mod.in_handler",
    "pkg.mod.in_with", "pkg.mod.in_thread", "pkg.mod.start_thread", "pkg.init_helper",
}


@pytest.fixture
def package(tmp_path, monkeypatch):
    """``pkg/mod.py`` (the source above) and ``pkg/__init__.py``, imported from files."""
    root = tmp_path / "src"
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "__init__.py").write_text("def init_helper():\n    return 0\n")
    (root / "pkg" / "mod.py").write_text(PACKAGE)
    spec = importlib.util.spec_from_file_location("pkg.mod", root / "pkg" / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # The sweep puts src/ on both paths for subprocesses; keep that local.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
    return root, module


def test_the_inventory_walks_classes_nested_defs_and_compound_blocks(package):
    root, _ = package
    assert set(inventory(root)) == ALL_NAMES


def test_the_inventory_names_package_init_functions_after_the_package(package):
    root, _ = package
    path, first = inventory(root)["pkg.init_helper"]
    assert path == root / "pkg" / "__init__.py" and first == 1


def test_the_sweep_reaches_exactly_what_the_drive_runs(package):
    root, module = package

    def drive(_work):
        module.called()
        module.outer()
        box = module.Box()
        assert box.size == 3 and box.cached() == 4
        module.in_if()
        module.in_try()

    functions = inventory(root)
    assert reached_functions(functions, sweep(drive)) == {
        "pkg.mod.called", "pkg.mod.helper", "pkg.mod.outer", "pkg.mod.outer.<locals>.inner",
        "pkg.mod.Box.size", "pkg.mod.Box.cached", "pkg.mod.in_if", "pkg.mod.in_try",
    }


def test_the_sweep_records_calls_in_threads_the_drive_starts(package):
    root, module = package
    reached = reached_functions(inventory(root), sweep(lambda _work: module.start_thread()))
    assert reached == {"pkg.mod.start_thread", "pkg.mod.in_thread"}


def test_the_sweep_drives_in_a_scratch_directory_and_restores_the_profilers(package):
    seen = []

    def drive(work):
        seen.append((work, os.path.samefile(os.getcwd(), work)))

    cwd = os.getcwd()
    sweep(drive)
    ((work, inside),) = seen
    assert inside
    assert os.getcwd() == cwd and not work.exists()
    assert sys.getprofile() is None and threading.getprofile() is None


def _findings(reached, allowlist):
    functions = {name: (Path("mod.py"), line) for line, name in enumerate(["a", "b", "c"], 1)}
    return compare(functions, set(reached), allowlist)


def test_a_function_no_entry_point_runs_is_unreached():
    assert _findings({"a", "b"}, {}) == {
        "unreached": ["c"], "stale allowlist entry": [], "allowlisted but not defined": [],
    }


def test_an_allowlisted_function_is_not_unreached():
    assert not any(_findings({"a", "b"}, {"c": "documented"}).values())


def test_an_allowlisted_function_the_sweep_runs_is_stale():
    findings = _findings({"a", "b", "c"}, {"c": "documented"})
    assert findings["stale allowlist entry"] == ["c"] and findings["unreached"] == []


def test_an_allowlist_entry_naming_no_function_is_reported():
    findings = _findings({"a", "b", "c"}, {"gone": "documented"})
    assert findings["allowlisted but not defined"] == ["gone"]


@pytest.fixture
def swept(monkeypatch):
    """Point ``main`` at a three-function inventory of which the sweep runs ``a``."""
    functions = {name: (reachability.ROOT / "src" / "m.py", line)
                 for line, name in enumerate(["a", "b", "c"], 1)}
    monkeypatch.setattr(reachability, "inventory", lambda: functions)
    monkeypatch.setattr(reachability, "sweep", lambda: {(str(functions["a"][0]), 1)})
    monkeypatch.setattr(reachability, "src_lines", lambda: 42)


def test_main_fails_and_locates_each_finding(swept, monkeypatch, capsys):
    monkeypatch.setattr(reachability, "ALLOWLIST", {"b": "documented", "gone": "documented"})
    assert reachability.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "unreached: c (src/m.py:3)",
        "allowlisted but not defined: gone (-)",
    ]
    assert json.loads(lines[-1]) == {
        "src_lines": 42, "functions": 3, "reached": 1, "allowlisted": 2, "unreached": 1,
    }


def test_main_passes_when_every_function_is_reached_or_allowlisted(swept, monkeypatch, capsys):
    monkeypatch.setattr(reachability, "ALLOWLIST", {"b": "documented", "c": "documented"})
    assert reachability.main() == 0
    (record,) = capsys.readouterr().out.splitlines()
    assert json.loads(record)["unreached"] == 0
