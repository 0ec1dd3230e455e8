"""Paths that never solve an LP or an ODE never import scipy.

scipy is loaded only by the FBA linear programs (``linprog``: Geobacter's
seeds and flux variability analysis) and the kinetic ODE oracle's simulator
(``solve_ivp``); a served photosynthesis job, the service's fork server, the
CLI, the Table 2 pipeline and an unseeded Geobacter solve skip it.
Each probe runs in a fresh interpreter, because in this process other test
modules have already imported scipy.  The positive controls show the deferred
imports still resolve there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])
_REPO_ROOT = str(Path(__file__).resolve().parents[2])


def _probe(script: str) -> str:
    """Run ``script`` in a fresh interpreter on this source tree; its stdout.

    The repository root is on the path too, so a script can import
    ``tests.oracles``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, _REPO_ROOT, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


def test_served_photosynthesis_job_runs_without_scipy(tmp_path):
    script = (
        "import sys\n"
        "from repro.solve.request import SolveRequest\n"
        "from repro.serve.runner import run_job\n"
        "from repro.serve.store import JobStore\n"
        "store = JobStore(%r)\n"
        "record = store.create(SolveRequest(problem='photosynthesis', generations=1,"
        " population=4))\n"
        "assert run_job(store.job_dir(record.id), cache_dir=%r) == 0\n"
        "print('scipy' in sys.modules)\n"
    ) % (str(tmp_path / "data"), str(tmp_path / "cache"))
    assert _probe(script) == "False"
    assert any((tmp_path / "data" / "jobs").glob("*/front.json"))


def test_fork_server_preload_is_complete_scipy_free_and_fork_safe(tmp_path):
    """The fork server's state: no scipy, one thread, no data-dir file open.

    Forked runners then load no further ``repro``/``numpy`` module for a
    photosynthesis job (telemetry on) or a zdt1 job.
    """
    data_dir = tmp_path / "data"
    script = (
        "import os, sys, threading\n"
        "from repro.solve.request import SolveRequest\n"
        "from repro.serve.store import JobStore\n"
        "store = JobStore(%r)\n"
        "jobs = [store.create(SolveRequest(problem='photosynthesis', generations=1,"
        " population=4, telemetry=True)),\n"
        "        store.create(SolveRequest(problem='zdt1', generations=1, population=4))]\n"
        "from repro.serve.runner import _preload, run_job\n"
        "_preload()\n"
        "assert 'scipy' not in sys.modules\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "open_files = []\n"
        "for fd in os.listdir('/proc/self/fd'):\n"
        "    try:\n"
        "        open_files.append(os.readlink('/proc/self/fd/' + fd))\n"
        "    except OSError:\n"
        "        pass  # the descriptor listdir itself used\n"
        "assert not [f for f in open_files if f.startswith(%r)], open_files\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.startswith(('repro.', 'numpy.'))}\n"
        "preloaded = loaded()\n"
        "for record in jobs:\n"
        "    assert run_job(store.job_dir(record.id), cache_dir=%r) == 0\n"
        "print(sorted(loaded() - preloaded), 'scipy' in sys.modules)\n"
    ) % (str(data_dir), str(data_dir), str(tmp_path / "cache"))
    assert _probe(script) == "[] False"
    assert len(list((data_dir / "jobs").glob("*/front.json"))) == 2


def test_service_start_leaves_the_solve_package_unloaded(tmp_path):
    """Starting the service and answering /healthz never imports ``repro.solve``.

    The service loads it on the first submit (to validate the request) and
    when it reads a stored job, not on its way up.
    """
    script = (
        "import sys\n"
        "from repro.serve import ServeClient, ServeThread\n"
        "with ServeThread(%r, workers=2, cache_dir=%r) as app:\n"
        "    assert ServeClient(port=app.port).healthz()['status'] == 'ok'\n"
        "    print(sorted(m for m in sys.modules if m.split('.')[:2] == ['repro', 'solve']))\n"
    ) % (str(tmp_path / "data"), str(tmp_path / "cache"))
    assert _probe(script) == "[]"


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


def test_geobacter_seeds_and_fva_load_their_lp_solver():
    script = (
        "import sys\n"
        "from repro.geobacter import GeobacterDesignProblem\n"
        "problem = GeobacterDesignProblem()\n"
        "before = 'scipy.optimize' in sys.modules\n"
        "seeds = problem.fba_seed_vectors(n_seeds=2)\n"
        "from repro.fba import flux_variability_analysis\n"
        "ranges = flux_variability_analysis(problem.model, reactions=['BIOMASS'],"
        " fraction_of_optimum=0.0)\n"
        "print(before, len(seeds), list(ranges), 'scipy.optimize' in sys.modules)\n"
    )
    assert _probe(script) == "False 2 ['BIOMASS'] True"


def test_kinetic_simulation_loads_its_ode_solver():
    script = (
        "import sys\n"
        "from tests.oracles.ode.calvin import CalvinCycleModel\n"
        "result = CalvinCycleModel().simulate(t_end=1.0)\n"
        "print(len(result.times) > 1, 'scipy.integrate' in sys.modules)\n"
    )
    assert _probe(script) == "True True"


@pytest.mark.parametrize(
    "problem, loaded",
    [
        pytest.param("zdt1", [], id="zdt1"),
        # problem.py imports front_yields for the robust variant.
        pytest.param("photosynthesis", ["repro.moo.robustness"], id="photosynthesis"),
        # geobacter/analysis.py imports the front-mining helpers.
        pytest.param("geobacter", ["repro.moo.mining"], id="geobacter"),
    ],
)
def test_zdt1_solve_setup_loads_no_cache_pool_or_analysis_module(problem, loaded):
    """A serial 2-generation solve needs neither the disk cache nor worker pools.

    ``repro.moo``, ``repro.runtime`` and ``repro.fba`` resolve their exports
    lazily, and the process pool imports ``multiprocessing`` when it is
    built, so a solve loads only the engines and the serial evaluator.
    Building the photosynthesis problem loads no kinetic ODE module either,
    and an unseeded Geobacter solve no LP solver (scipy).
    """
    script = (
        "import sys\n"
        "from repro.problems import build_problem\n"
        "from repro.solve import solve\n"
        "solve(build_problem(%r), 'nsga2', population_size=8, seed=0, termination=2)\n"
        "print(sorted(m for m in ('scipy', 'sqlite3', 'multiprocessing', 'repro.moo.robustness',"
        " 'repro.moo.mining', 'repro.moo.metrics', 'repro.runtime.diskcache',"
        " 'repro.runtime.parallel') if m in sys.modules),"
        " sorted(m for m in sys.modules if 'kinetics' in m or 'calvin' in m or 'ode' in m.split('.')))\n"
    ) % problem
    assert _probe(script) == "%s []" % loaded


def test_lazy_package_exports_still_resolve():
    script = (
        "import repro.fba, repro.moo, repro.runtime\n"
        "from repro.moo import hypervolume, NSGA2, kernels, Problem\n"
        "from repro.runtime import DiskCache, ProcessPoolEvaluator\n"
        "missing = [n for p in (repro.fba, repro.moo, repro.runtime) for n in p.__all__"
        " if getattr(p, n, None) is None]\n"
        "print(missing, ProcessPoolEvaluator(n_workers=1).mp_context is not None)\n"
    )
    assert _probe(script) == "[] True"
