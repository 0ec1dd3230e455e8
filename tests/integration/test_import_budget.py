"""Paths that never solve an LP or an ODE never import scipy.

scipy is loaded only by the Geobacter FBA model (``linprog``) and the kinetic
ODE simulator (``solve_ivp``); a served photosynthesis job, the CLI and the
Table 2 pipeline skip it, which is most of a runner subprocess's start-up.
Each probe runs in a fresh interpreter, because in this process other test
modules have already imported scipy.  The positive controls show the deferred
imports still resolve there.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _probe(script: str) -> str:
    """Run ``script`` in a fresh interpreter on this source tree; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


def test_served_photosynthesis_job_runs_without_scipy(tmp_path):
    script = (
        "import sys\n"
        "from repro.serve.jobs import JobSpec\n"
        "from repro.serve.runner import run_job\n"
        "from repro.serve.store import JobStore\n"
        "store = JobStore(%r)\n"
        "record = store.create(JobSpec(problem='photosynthesis', generations=1,"
        " population=4))\n"
        "assert run_job(store.job_dir(record.id), cache_dir=%r) == 0\n"
        "print('scipy' in sys.modules)\n"
    ) % (str(tmp_path / "data"), str(tmp_path / "cache"))
    assert _probe(script) == "False"
    assert any((tmp_path / "data" / "jobs").glob("*/front.json"))


def test_cli_and_zdt1_problem_import_without_scipy():
    script = (
        "import sys\n"
        "import repro.cli.main\n"
        "from repro.problems import build_problem\n"
        "build_problem('zdt1')\n"
        "print('scipy' in sys.modules)\n"
    )
    assert _probe(script) == "False"


def test_table2_pipeline_imports_without_scipy():
    script = (
        "import sys\n"
        "from repro.core.experiments import run_table2\n"
        "print('scipy' in sys.modules)\n"
    )
    assert _probe(script) == "False"


def test_geobacter_evaluation_loads_its_lp_solver():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.problems import build_problem\n"
        "problem = build_problem('geobacter')\n"
        "x = problem.random_solution(np.random.default_rng(0))\n"
        "batch = problem.evaluate_matrix(x[None, :])\n"
        "print(bool(np.all(np.isfinite(batch.F))), 'scipy.optimize' in sys.modules)\n"
    )
    assert _probe(script) == "True True"


def test_kinetic_simulation_loads_its_ode_solver():
    script = (
        "import sys\n"
        "from repro.photosynthesis.calvin_ode import CalvinCycleModel\n"
        "result = CalvinCycleModel().simulate(t_end=1.0)\n"
        "print(len(result.times) > 1, 'scipy.integrate' in sys.modules)\n"
    )
    assert _probe(script) == "True True"
