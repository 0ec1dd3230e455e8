"""Run artifacts: durable, machine-readable results of experiment runs.

A run of a registered experiment (:mod:`repro.core.registry`) serializes to a
timestamped directory::

    runs/photosynthesis-table1/20260728-143015-seed0/
        manifest.json   # reproducibility metadata: parameters, seed, versions
        front.json      # canonical Pareto front (objectives + decisions)
        front.csv       # the same front as a spreadsheet-friendly table
        result.json     # experiment-specific payload (table rows, yields, ...)
        ledger.json     # evaluation-budget ledger, when the result carries one
        trace.jsonl     # span trace, when recorded with telemetry (repro.obs)
        timeseries.csv  # per-generation convergence series, when recorded

``front.json`` is a pure function of the experiment result — no timestamps,
no wall-clock — so two runs with the same seed produce bitwise-identical
front files (the determinism contract the test-suite asserts).  The loaders
re-hydrate a recorded front into :class:`~repro.moo.individual.Individual`
objects, so mining and metrics run on recorded runs without re-optimizing.

Example
-------
Record a toy run and load its front back::

    >>> import tempfile
    >>> from repro.core.artifacts import load_front, record_run
    >>> from repro.core.registry import get_experiment
    >>> experiment = get_experiment("migration-ablation")
    >>> result = experiment.run(population=8, generations=4, seed=0)
    >>> with tempfile.TemporaryDirectory() as base:
    ...     run_dir = record_run(experiment, result,
    ...                          {"population": 8, "generations": 4, "seed": 0},
    ...                          base_dir=base)
    ...     individuals = load_front(run_dir)
    >>> all(individual.is_evaluated for individual in individuals)
    True
"""

from __future__ import annotations

import csv
import functools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

import repro
from repro.exceptions import ConfigurationError
from repro.moo.individual import Individual

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.registry import Experiment

__all__ = [
    "FRONT_FORMAT_VERSION",
    "MANIFEST_FORMAT_VERSION",
    "RunManifest",
    "front_payload",
    "individuals_from_front",
    "dumps_json",
    "write_json",
    "load_json",
    "write_front_csv",
    "create_run_dir",
    "record_run",
    "record_solve_run",
    "load_manifest",
    "load_front_payload",
    "load_front",
    "load_result",
    "telemetry_artifacts",
    "list_runs",
]

#: Schema version written into ``front.json``.
FRONT_FORMAT_VERSION = 1
#: Schema version written into ``manifest.json``.
MANIFEST_FORMAT_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_FRONT_NAME = "front.json"
_FRONT_CSV_NAME = "front.csv"
_RESULT_NAME = "result.json"
_LEDGER_NAME = "ledger.json"
# Telemetry artifact names, mirroring the repro.obs.telemetry constants.
# Kept literal here so the artifact layer never imports the solve stack
# (the test-suite pins the two sets of constants together).
_TRACE_NAME = "trace.jsonl"
_TIMESERIES_NAME = "timeseries.csv"
_TELEMETRY_NAMES = (_TRACE_NAME, _TIMESERIES_NAME)


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------
def _jsonify(value):
    """Recursively convert numpy scalars/arrays to JSON-friendly Python."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


def dumps_json(payload: dict) -> str:
    """Serialize a payload deterministically (sorted keys, fixed layout).

    Floats go through :func:`repr` (the :mod:`json` default), which is exact
    and reproducible, so identical payloads always produce identical bytes —
    the property behind the bitwise-determinism guarantee of ``front.json``.

    Example
    -------
    >>> dumps_json({"b": 1, "a": [1.5]})
    '{\\n  "a": [\\n    1.5\\n  ],\\n  "b": 1\\n}'
    """
    return json.dumps(_jsonify(payload), sort_keys=True, indent=2, ensure_ascii=False)


def write_json(path: str | os.PathLike, payload: dict) -> Path:
    """Write one payload as deterministic JSON (trailing newline included)."""
    target = Path(path)
    target.write_text(dumps_json(payload) + "\n", encoding="utf-8")
    return target


def load_json(path: str | os.PathLike) -> dict:
    """Read one JSON artifact back as a dictionary."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Front payloads and re-hydration
# ---------------------------------------------------------------------------
def front_payload(
    objectives: np.ndarray,
    decisions: np.ndarray | None = None,
    *,
    objective_names: Sequence[str] | None = None,
    objective_senses: Sequence[int] | None = None,
    label: str | None = None,
    info: Sequence[dict] | None = None,
) -> dict:
    """Build the canonical ``front.json`` payload from front matrices.

    Parameters
    ----------
    objectives:
        ``(n, m)`` matrix of *minimized* objective vectors (the optimizer's
        internal convention; ``objective_senses`` records how to convert back
        to natural units).
    decisions:
        Optional ``(n, d)`` matrix of decision vectors.
    objective_names, objective_senses:
        Metadata mirrored from the :class:`~repro.problems.Problem`.
    label:
        Optional name of the front (e.g. the algorithm that produced it).
    info:
        Optional per-point dictionaries (e.g. robustness yields), one per
        row of ``objectives``.

    Example
    -------
    >>> import numpy as np
    >>> payload = front_payload(np.array([[1.0, 2.0]]), np.array([[0.5]]))
    >>> payload["n_points"], payload["objectives"]
    (1, [[1.0, 2.0]])
    """
    matrix = np.asarray(objectives, dtype=float)
    if matrix.ndim != 2:
        raise ConfigurationError("front objectives must be an (n, m) matrix")
    payload: dict[str, Any] = {
        "format_version": FRONT_FORMAT_VERSION,
        "n_points": int(matrix.shape[0]),
        "n_objectives": int(matrix.shape[1]) if matrix.size else 0,
        "objectives": matrix.tolist(),
    }
    if decisions is not None:
        decision_matrix = np.asarray(decisions, dtype=float)
        if decision_matrix.shape[0] != matrix.shape[0]:
            raise ConfigurationError(
                "front decisions and objectives disagree on the number of points"
            )
        payload["decisions"] = decision_matrix.tolist()
    if objective_names is not None:
        payload["objective_names"] = list(objective_names)
    if objective_senses is not None:
        payload["objective_senses"] = [int(sense) for sense in objective_senses]
    if label is not None:
        payload["label"] = label
    if info is not None:
        if len(info) != matrix.shape[0]:
            raise ConfigurationError(
                "front info and objectives disagree on the number of points"
            )
        payload["info"] = [_jsonify(entry) for entry in info]
    return payload


def individuals_from_front(payload: dict) -> list[Individual]:
    """Re-hydrate a ``front.json`` payload into evaluated individuals.

    The individuals carry the recorded decision vectors (empty vectors when
    the front was stored without decisions) and objective vectors, so the
    mining and metrics functions accept them exactly like a live front.

    Example
    -------
    >>> import numpy as np
    >>> payload = front_payload(np.array([[1.0, 2.0]]), np.array([[0.5]]))
    >>> [individual.objectives.tolist() for individual in
    ...  individuals_from_front(payload)]
    [[1.0, 2.0]]
    """
    objectives = np.asarray(payload.get("objectives", []), dtype=float)
    if objectives.size == 0:
        return []
    decisions = payload.get("decisions")
    individuals: list[Individual] = []
    for index, row in enumerate(objectives):
        x = (
            np.asarray(decisions[index], dtype=float)
            if decisions is not None
            else np.empty(0)
        )
        individual = Individual(x)
        individual.objectives = np.asarray(row, dtype=float)
        individuals.append(individual)
    return individuals


def write_front_csv(path: str | os.PathLike, payload: dict) -> Path:
    """Write a front payload as a flat CSV table (objectives then decisions)."""
    target = Path(path)
    objectives = payload.get("objectives", [])
    decisions = payload.get("decisions")
    n_objectives = len(objectives[0]) if objectives else 0
    names = payload.get("objective_names") or [
        "f%d" % (index + 1) for index in range(n_objectives)
    ]
    n_decisions = len(decisions[0]) if decisions else 0
    header = list(names[:n_objectives]) + ["x%d" % (i + 1) for i in range(n_decisions)]
    with open(target, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for index, row in enumerate(objectives):
            cells = [repr(float(value)) for value in row]
            if decisions:
                cells.extend(repr(float(value)) for value in decisions[index])
            writer.writerow(cells)
    return target


# ---------------------------------------------------------------------------
# Manifests and run directories
# ---------------------------------------------------------------------------
@dataclass
class RunManifest:
    """Reproducibility metadata of one recorded run.

    Example
    -------
    >>> manifest = RunManifest(experiment="demo", parameters={"seed": 0})
    >>> manifest.as_dict()["experiment"]
    'demo'
    """

    #: Registry name of the experiment that produced the run.
    experiment: str
    #: Full parameter dictionary the experiment ran with (defaults included).
    parameters: dict[str, Any] = field(default_factory=dict)
    #: UTC creation time (ISO-8601), stamped by :func:`record_run`.
    created: str | None = None
    #: ``repro`` package version.
    package_version: str | None = None
    #: Interpreter version the run used.
    python_version: str | None = None
    #: numpy version the run used.
    numpy_version: str | None = None
    #: Git revision of the working tree, when available.
    git_revision: str | None = None
    #: Artifact file names present in the run directory.
    artifacts: list[str] = field(default_factory=list)
    #: JSON form of the optimized problem's decision box (see
    #: :meth:`repro.problems.base.Problem.design_space`), when the result
    #: carried one — so every manifest records the box it was solved over.
    design_space: dict | None = None

    def as_dict(self) -> dict:
        """Plain-dictionary view written to ``manifest.json``."""
        payload = {
            "format_version": MANIFEST_FORMAT_VERSION,
            "experiment": self.experiment,
            "parameters": _jsonify(self.parameters),
            "created": self.created,
            "package_version": self.package_version,
            "python_version": self.python_version,
            "numpy_version": self.numpy_version,
            "git_revision": self.git_revision,
            "artifacts": list(self.artifacts),
        }
        if self.design_space is not None:
            payload["design_space"] = _jsonify(self.design_space)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        """Rebuild a manifest from a loaded ``manifest.json`` dictionary."""
        return cls(
            experiment=payload.get("experiment", ""),
            parameters=dict(payload.get("parameters", {})),
            created=payload.get("created"),
            package_version=payload.get("package_version"),
            python_version=payload.get("python_version"),
            numpy_version=payload.get("numpy_version"),
            git_revision=payload.get("git_revision"),
            artifacts=list(payload.get("artifacts", [])),
            design_space=payload.get("design_space"),
        )


@functools.cache
def _git_revision() -> str | None:
    """Git revision of the *repro package's* checkout, or ``None``.

    Pinned to the package directory, not the caller's working directory: the
    manifest records the provenance of the code that ran, and a pip-installed
    package (site-packages is not a git repo) correctly records ``None``.
    Memoized, since one process runs one code revision: ``git rev-parse``
    runs once per process, and forked runners inherit the answer.
    """
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git
        return None
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else None


def create_run_dir(
    base_dir: str | os.PathLike, experiment_name: str, seed: Any = None
) -> Path:
    """Create a fresh ``<base>/<experiment>/<timestamp>-seed<seed>`` directory.

    Same-second collisions get a ``-2``, ``-3``, ... suffix, so concurrent
    runs never overwrite each other.
    """
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    suffix = "-seed%s" % seed if seed is not None else ""
    parent = Path(base_dir) / experiment_name
    parent.mkdir(parents=True, exist_ok=True)
    candidate = parent / (stamp + suffix)
    attempt = 1
    while True:
        try:
            candidate.mkdir()
            return candidate
        except FileExistsError:
            attempt += 1
            candidate = parent / ("%s%s-%d" % (stamp, suffix, attempt))


def record_run(
    experiment: "Experiment",
    result: Any,
    parameters: dict[str, Any],
    base_dir: str | os.PathLike = "runs",
) -> Path:
    """Serialize one experiment result to a timestamped run directory.

    Writes the front (JSON + CSV, when the experiment produces one), the
    experiment-specific ``result.json`` payload, the evaluation ledger (when
    the result carries one) and finally the manifest — written last so a
    directory with a manifest is always a complete run.

    Returns the run directory path.
    """
    run_dir = create_run_dir(base_dir, experiment.name, parameters.get("seed"))
    artifacts: list[str] = []
    front = experiment.front(result) if experiment.front is not None else None
    if front is not None:
        write_json(run_dir / _FRONT_NAME, front)
        write_front_csv(run_dir / _FRONT_CSV_NAME, front)
        artifacts.extend([_FRONT_NAME, _FRONT_CSV_NAME])
    payload = experiment.payload(result) if experiment.payload is not None else None
    if payload is not None:
        write_json(run_dir / _RESULT_NAME, payload)
        artifacts.append(_RESULT_NAME)
    ledger = getattr(result, "ledger", None)
    if ledger is not None:
        write_json(run_dir / _LEDGER_NAME, ledger.as_dict())
        artifacts.append(_LEDGER_NAME)
    _write_manifest(run_dir, experiment.name, parameters, artifacts, result)
    return run_dir


def record_solve_run(
    run_dir: str | os.PathLike,
    problem: Any,
    result: Any,
    parameters: dict[str, Any],
    experiment: str = "solve",
) -> list[str]:
    """Write a ``solve()`` result's artifacts into an existing run directory.

    The generic-solve counterpart of :func:`record_run`, shared by the
    ``repro solve`` CLI and the :mod:`repro.serve` job runner: the front
    (JSON + CSV), the evaluation ledger when the result carries one, and a
    manifest listing every artifact present — telemetry files included —
    written last, so a directory with a manifest is always a complete run.
    Returns the artifact file names written or discovered.

    Example
    -------
    Record a small solve into a fresh directory::

        from repro.core.artifacts import create_run_dir, record_solve_run
        from repro.problems import build_problem
        from repro.solve import solve

        problem = build_problem("zdt1")
        result = solve(problem, algorithm="nsga2", termination=5, seed=0)
        run_dir = create_run_dir("runs", "solve-zdt1", 0)
        record_solve_run(run_dir, problem, result,
                         {"problem": "zdt1", "algorithm": "nsga2", "seed": 0})
    """
    run_dir = Path(run_dir)
    artifacts: list[str] = []
    payload = front_payload(
        result.front_objectives(),
        result.front_decisions(),
        objective_names=problem.objective_names,
        objective_senses=problem.objective_senses,
        label=result.algorithm,
    )
    write_json(run_dir / _FRONT_NAME, payload)
    write_front_csv(run_dir / _FRONT_CSV_NAME, payload)
    artifacts.extend([_FRONT_NAME, _FRONT_CSV_NAME])
    if result.ledger is not None:
        write_json(run_dir / _LEDGER_NAME, result.ledger.as_dict())
        artifacts.append(_LEDGER_NAME)
    artifacts.extend(telemetry_artifacts(run_dir))
    _write_manifest(run_dir, experiment, parameters, artifacts, result)
    return artifacts


def _write_manifest(
    run_dir: Path,
    experiment: str,
    parameters: dict[str, Any],
    artifacts: list[str],
    result: Any,
) -> None:
    """Stamp and write ``manifest.json``, the last file of a complete run."""
    manifest = RunManifest(
        experiment=experiment,
        parameters=parameters,
        created=datetime.now(timezone.utc).isoformat(),
        package_version=repro.__version__,
        python_version="%d.%d.%d" % sys.version_info[:3],
        numpy_version=np.__version__,
        git_revision=_git_revision(),
        artifacts=artifacts,
        design_space=getattr(result, "design_space", None),
    )
    write_json(run_dir / _MANIFEST_NAME, manifest.as_dict())


# ---------------------------------------------------------------------------
# Loaders
# ---------------------------------------------------------------------------
def _resolve(run_dir: str | os.PathLike, name: str) -> Path:
    path = Path(run_dir)
    if path.is_file():
        return path
    candidate = path / name
    if not candidate.exists():
        raise FileNotFoundError(
            "%s has no %s — is it a recorded run directory?" % (path, name)
        )
    return candidate


def load_manifest(run_dir: str | os.PathLike) -> RunManifest:
    """Load the manifest of a recorded run.

    Example
    -------
    Check which seed and package version produced a run::

        manifest = load_manifest("runs/photosynthesis-table1/20260728-143015-seed0")
        print(manifest.parameters["seed"], manifest.package_version)
    """
    return RunManifest.from_dict(load_json(_resolve(run_dir, _MANIFEST_NAME)))


def load_front_payload(run_dir: str | os.PathLike) -> dict:
    """Load the raw ``front.json`` payload of a recorded run."""
    return load_json(_resolve(run_dir, _FRONT_NAME))


def load_front(run_dir: str | os.PathLike) -> list[Individual]:
    """Load a recorded front as evaluated :class:`Individual` objects.

    Accepts either a run directory or a direct path to a ``front.json``.

    Example
    -------
    Compute front quality from a recorded run without re-optimizing::

        import numpy as np
        from repro.moo.metrics import hypervolume

        individuals = load_front("runs/photosynthesis-table1/20260728-143015-seed0")
        print(hypervolume(np.vstack([i.objectives for i in individuals])))
    """
    return individuals_from_front(load_front_payload(run_dir))


def load_result(run_dir: str | os.PathLike) -> dict:
    """Load the experiment-specific ``result.json`` payload of a run."""
    return load_json(_resolve(run_dir, _RESULT_NAME))


def telemetry_artifacts(run_dir: str | os.PathLike) -> list[str]:
    """Telemetry artifact file names present in ``run_dir`` (possibly empty).

    A run recorded with :class:`repro.obs.RunTelemetry` carries up to two
    extra artifacts — ``trace.jsonl`` and ``timeseries.csv`` — next to the
    manifest; this lists whichever exist, in that order.  Read them with
    :func:`repro.obs.load_telemetry`.
    """
    directory = Path(run_dir)
    return [name for name in _TELEMETRY_NAMES if (directory / name).is_file()]


def list_runs(base_dir: str | os.PathLike, experiment: str | None = None) -> list[Path]:
    """List recorded run directories under ``base_dir``, oldest first.

    A directory counts as a run once its manifest exists (the manifest is
    written last, so partially-written runs are skipped).
    """
    base = Path(base_dir)
    if not base.exists():
        return []
    parents = [base / experiment] if experiment is not None else sorted(base.iterdir())
    runs = []
    for parent in parents:
        if not parent.is_dir():
            continue
        for candidate in sorted(parent.iterdir()):
            if (candidate / _MANIFEST_NAME).is_file():
                runs.append(candidate)
    return runs
