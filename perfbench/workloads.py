"""The benchmark's four workloads and the correctness checks of their units.

Every workload runs the library through its public entry points:

``zdt1-nsga2`` / ``geobacter-nsga2``
    ``solve(build_problem(spec), "nsga2", population_size=100)``, 20 and 3
    generations.
``table2-design``
    ``run_table2(population=40, generations=20, robustness_trials=1000,
    surface_points=10, checkpoint_dir=...)``: PMO2 with migration, front
    mining, then the seeded Monte-Carlo yield Γ.
``serve-cache``
    A ``ServeThread(workers=2, cache_dir=...)`` driven by two closed-loop
    ``ServeClient`` threads; each submits a fresh photosynthesis job, waits
    for it, then resubmits the identical spec, which the disk cache answers.

A *unit* is one solve, one pipeline or one job.  Each unit is checked:
the front's decisions are re-evaluated through ``problem.evaluate_matrix``
and must reproduce the reported objectives bit for bit; the front must be
mutually non-dominated; the evaluation count must equal the budget; two
units of the same seed must agree exactly; and at the default seed the
front digest must equal the one recorded in :data:`REFERENCE_DIGESTS`.
Any mismatch makes the unit count as failed.

Budgets are small (about 0.3 to 2 s per unit) so that a run holds tens of
units, each bracketed by :func:`calibrate`: the median of many calibrated
units is what stays steady from run to run on a shared host.

Importing this module imports nothing from ``repro``; :meth:`setup` does.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Seed whose front digests are recorded below.
DEFAULT_SEED = 2011

#: Digest of the unit run at :data:`DEFAULT_SEED`, per workload.
REFERENCE_DIGESTS = {
    "zdt1-nsga2": "f6dc59d9a6e88c8c",
    "geobacter-nsga2": "0a14fe98aaa944ad",
    "table2-design": "349f3f802abe04fa",
    "serve-cache": "fca9e07fbf2c29af",
}

#: Measured units per run even when ``--seconds`` is already used up.
MIN_UNITS = 3

#: Seconds :func:`calibrate` takes on the host the ``ref_`` metrics are
#: quoted for (a 2-vCPU x86-64 VM, Python 3.11, in a quiet phase).
CALIBRATION_REFERENCE_S = 0.0025

clock = time.perf_counter


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    On a shared host the same unit's wall time swings by up to 1.8x in
    phases of seconds to minutes, with CPU time equal to wall time, and
    this loop slows with it.  A unit's latency times
    ``CALIBRATION_REFERENCE_S / calibrate()`` is therefore steady across
    phases, yet still moves with the library, which the loop does not call.
    Median of five, so that one interruption does not count.
    """
    times = []
    for _ in range(5):
        started = clock()
        table: dict = {}
        total = 0
        for i in range(12000):
            table[i & 1023] = total
            total = (total + i * 7) % 1000003
        sorted((i * 7919) % 10007 for i in range(6000))
        times.append(clock() - started)
    return statistics.median(times)


@dataclass
class Unit:
    """One solve, pipeline or job and what its checks found.

    ``latency`` is ``None`` for a unit that was checked but not measured;
    ``calibration`` is the mean :func:`calibrate` time just before and
    just after the unit.
    """

    seed: int
    latency: "float | None"
    rows: int
    digest: str = ""
    traced: bool = False
    errors: list = field(default_factory=list)
    calibration: float = 0.0

    @property
    def ref_latency(self) -> float:
        """``latency`` scaled to the reference host speed."""
        return self.latency * CALIBRATION_REFERENCE_S / self.calibration


def digest_of(*parts: Any) -> str:
    """Short SHA-256 over arrays (shape, dtype, bytes), strings and bytes."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(repr((part.shape, part.dtype.str)).encode())
            part = np.ascontiguousarray(part).tobytes()
        elif isinstance(part, str):
            part = part.encode()
        sha.update(part)
    return sha.hexdigest()[:16]


def check_front(problem: Any, F: np.ndarray, X: np.ndarray) -> list:
    """Re-evaluate ``X`` and check ``F`` bitwise and mutual non-dominance."""
    from repro.moo import kernels

    errors = []
    if F.shape[0] == 0:
        return ["empty front"]
    batch = problem.evaluate_matrix(X)
    F_again = np.asarray(batch.F, dtype=float)
    if F_again.shape != F.shape or F_again.tobytes() != F.tobytes():
        errors.append("re-evaluated front objectives differ from the reported ones")
    if kernels.constrained_domination_matrix(F_again, batch.total_violations).any():
        errors.append("front is not mutually non-dominated")
    return errors


class Workload:
    """Base: set-up, one unit at a time, and the shared same-seed checks."""

    name = ""
    #: Fixed part of the budget check: rows one unit must evaluate.
    expected_rows = 0

    def __init__(self) -> None:
        self.seen: dict = {}

    def setup(self, workdir: Path) -> None:
        """Import the library and build the problem (timed as ``setup_s``)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    def unit(self, seed: int, tracer: Any = None) -> Unit:
        """Run and check one unit; a ``tracer`` gets the unit's root span."""
        raise NotImplementedError

    def measure(self, seed: int, seconds: float, trace: bool, tracer: Any) -> dict:
        """Run units of seeds ``seed, seed, seed + 1, seed + 2, ...`` for ``seconds``.

        The first seed runs twice, so every run checks that a repeated seed
        reproduces its result.  With ``trace`` each untraced unit is followed
        by a traced one of the same seed; the pair gives the trace overhead.
        Each untraced unit is bracketed by :func:`calibrate` runs.
        """
        from tracing import instrument

        units = []
        deadline = clock() + seconds
        index = 0
        before = calibrate()
        while index < MIN_UNITS or clock() < deadline:
            unit_seed = seed + max(0, index - 1)
            unit = self.unit(unit_seed)
            after = calibrate()
            unit.calibration = (before + after) / 2
            before = after
            units.append(unit)
            if trace:
                with instrument(tracer):
                    units.append(self.unit(unit_seed, tracer))
            index += 1
        return {"units": units, "wall": sum(u.latency for u in units if not u.traced)}

    def record(self, unit: Unit) -> Unit:
        """Apply the digest checks shared by every workload; returns ``unit``."""
        if unit.seed == DEFAULT_SEED and REFERENCE_DIGESTS[self.name]:
            if unit.digest != REFERENCE_DIGESTS[self.name]:
                unit.errors.append(
                    "digest %s at seed %d differs from the recorded %s"
                    % (unit.digest, unit.seed, REFERENCE_DIGESTS[self.name])
                )
        first = self.seen.setdefault(unit.seed, unit.digest)
        if first != unit.digest:
            unit.errors.append("seed %d gave two different results" % unit.seed)
        if unit.rows != self.expected_rows:
            unit.errors.append(
                "evaluated %d rows, budget is %d" % (unit.rows, self.expected_rows)
            )
        return unit


class SolveWorkload(Workload):
    """``solve(build_problem(spec), "nsga2", population_size=...)``."""

    def __init__(self, name: str, spec: str, population: int, generations: int) -> None:
        super().__init__()
        self.name = name
        self.spec = spec
        self.population = population
        self.generations = generations
        self.expected_rows = population * (generations + 1)

    def setup(self, workdir: Path) -> None:
        from repro.problems import build_problem
        from repro.solve import solve

        self.solve = solve
        self.problem = build_problem(self.spec)

    def unit(self, seed: int, tracer: Any = None) -> Unit:
        """Run one solve; the check happens after the clock stops."""
        started = clock()
        with tracer.span("solve") if tracer is not None else nullcontext():
            result = self.solve(
                self.problem,
                "nsga2",
                population_size=self.population,
                termination=self.generations,
                seed=seed,
            )
        latency = clock() - started
        F, X = result.front_objectives(), result.front_decisions()
        unit = Unit(seed, latency, result.evaluations, digest_of(F, X), tracer is not None)
        unit.errors += check_front(self.problem, F, X)
        return self.record(unit)


class Table2Workload(Workload):
    """The paper's design pipeline: PMO2, mining, then seeded yields Γ."""

    name = "table2-design"
    population = 40
    generations = 20
    trials = 1000
    surface_points = 10

    def setup(self, workdir: Path) -> None:
        from repro.core.experiments import run_table2
        from repro.photosynthesis.conditions import REFERENCE_CONDITION
        from repro.photosynthesis.problem import PhotosynthesisProblem

        self.run_table2 = run_table2
        self.problem = PhotosynthesisProblem(REFERENCE_CONDITION)
        self.workdir = workdir
        self.count = 0
        # Two PMO2 islands, then one yield ensemble (plus its nominal point)
        # per selection (closest-to-ideal and one per objective) and surface point.
        optimize = 2 * self.population * (self.generations + 1)
        assessed = 1 + self.problem.n_obj + self.surface_points
        self.expected_rows = optimize + assessed * (self.trials + 1)

    def unit(self, seed: int, tracer: Any = None) -> Unit:
        """Run one pipeline into a fresh checkpoint directory."""
        self.count += 1
        checkpoints = self.workdir / ("checkpoints-%d" % self.count)
        started = clock()
        with tracer.span("solve") if tracer is not None else nullcontext():
            table = self.run_table2(
                population=self.population,
                generations=self.generations,
                seed=seed,
                robustness_trials=self.trials,
                surface_points=self.surface_points,
                checkpoint_dir=str(checkpoints),
            )
        latency = clock() - started
        shutil.rmtree(checkpoints, ignore_errors=True)
        F, X = table.front_objectives, table.front_decisions
        # The yields enter the digest, so two units of one seed must report
        # identical Γ values, not just identical fronts.
        selections = [
            part
            for row in table.selections
            for part in (row.criterion, row.decision, row.objectives, repr(row.yield_percentage))
        ]
        unit = Unit(
            seed,
            latency,
            table.ledger.total_evaluations,
            digest_of(F, X, *selections),
            tracer is not None,
        )
        unit.errors += check_front(self.problem, F, X)
        if not table.selections or any(row.yield_percentage is None for row in table.selections):
            unit.errors.append("a selection has no yield")
        return self.record(unit)


class ServeWorkload(Workload):
    """Closed loop of two clients against an in-process service with a disk cache."""

    name = "serve-cache"
    clients = 2
    workers = 2
    population = 40
    generations = 20
    expected_rows = population * (generations + 1)

    def setup(self, workdir: Path) -> None:
        from repro.problems import build_problem
        from repro.serve import ServeClient, ServeThread

        self.data_dir = workdir / "serve-data"
        self.app = ServeThread(
            str(self.data_dir), workers=self.workers, cache_dir=str(workdir / "cache")
        ).start()
        self.client = ServeClient(port=self.app.port, timeout=120)
        if self.client.healthz().get("status") != "ok":
            raise RuntimeError("service did not report healthy")
        self.problem = build_problem("photosynthesis")

    def close(self) -> None:
        app = getattr(self, "app", None)
        if app is not None:
            app.stop()
            self.app = None

    def job(self, seed: int, tracer: Any = None) -> tuple:
        """Submit one job and follow its event stream until it ends."""
        started = clock()
        with tracer.span("serve") if tracer is not None else nullcontext():
            submitted = self.client.submit(
                problem="photosynthesis",
                algorithm="nsga2",
                seed=seed,
                population=self.population,
                generations=self.generations,
                telemetry=True,
            )
            for _ in self.client.stream(submitted["id"]):
                pass
        latency = clock() - started
        return self.client.job(submitted["id"]), latency

    def check_job(self, record: dict, latency: float, traced: bool, first: "bytes | None") -> tuple:
        """Check one finished job; returns its :class:`Unit` and front bytes."""
        seed = record["spec"]["seed"]
        unit = Unit(seed, latency, record.get("evaluations", 0), traced=traced)
        if record["state"] != "done":
            unit.errors.append(
                "job %s ended %s: %s" % (record["id"], record["state"], record.get("error"))
            )
            return unit, None
        job_dir = self.data_dir / "jobs" / record["id"]
        front = (job_dir / "front.json").read_bytes()
        payload = json.loads(front)
        unit.digest = digest_of(front)
        unit.errors += check_front(
            self.problem,
            np.asarray(payload["objectives"], dtype=float),
            np.asarray(payload["decisions"], dtype=float),
        )
        if first is not None and front != first:
            unit.errors.append("repeat of seed %d changed front.json" % seed)
        return self.record(unit), front

    def ledger(self, record: dict) -> dict:
        """The job's ``ledger.json`` (disk hits and fresh evaluations)."""
        path = self.data_dir / "jobs" / record["id"] / "ledger.json"
        return json.loads(path.read_text(encoding="utf-8"))

    def measure(self, seed: int, seconds: float, trace: bool, tracer: Any) -> dict:
        """Drive the closed loop for ``seconds``; returns units and serve timings.

        Client ``c`` runs rounds ``r = 0, 1, ...``: a fresh job of seed
        ``seed + clients * r + c`` followed by its identical repeat.  With
        ``trace`` the clients alternate traced and untraced rounds.
        """
        done: list = []
        failures: list = []
        lock = threading.Lock()
        deadline = clock() + seconds

        def client_loop(index: int) -> None:
            round_index = 0
            try:
                before = calibrate()
                while round_index == 0 or clock() < deadline:
                    traced = trace and round_index % 2 == 1
                    job_seed = seed + self.clients * round_index + index
                    for repeat in (False, True):
                        record, latency = self.job(job_seed, tracer if traced else None)
                        after = calibrate()
                        with lock:
                            done.append((record, latency, traced, repeat, (before + after) / 2))
                        before = after
                    round_index += 1
            except Exception as error:  # a failed client is a failed unit, not a crash
                with lock:
                    failures.append("client %d: %r" % (index, error))

        started = clock()
        threads = [
            threading.Thread(target=client_loop, args=(index,), daemon=True)
            for index in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                failures.append("a client did not finish in time")
        wall = clock() - started

        units = []
        fronts: dict = {}
        split = {"queue_wait": [], "run": [], "overhead": []}
        disk_hits = fresh_rows = 0
        for record, latency, traced, repeat, calibration in sorted(
            done, key=lambda item: (item[0]["spec"]["seed"], item[3])
        ):
            unit, front = self.check_job(
                record, latency, traced, fronts.get(record["spec"]["seed"]) if repeat else None
            )
            unit.calibration = calibration
            units.append(unit)
            if front is not None and not repeat:
                fronts[record["spec"]["seed"]] = front
            if record["state"] == "done":
                ledger = self.ledger(record)
                disk_hits += ledger["total_disk_hits"]
                fresh_rows += ledger["total_evaluations"]
                created, started_at, finished = (
                    _timestamp(record[key]) for key in ("created", "started", "finished")
                )
                if traced:
                    split["queue_wait"].append(started_at - created)
                    split["run"].append(finished - started_at)
                    split["overhead"].append(latency - (finished - created))
        for message in failures:
            units.append(Unit(seed, None, 0, errors=[message]))
        return {
            "units": units,
            "wall": wall,
            "serve": {key: statistics.fmean(values) if values else 0.0 for key, values in split.items()},
            "hit_rate": disk_hits / (disk_hits + fresh_rows) if disk_hits + fresh_rows else 0.0,
        }


def _timestamp(text: str) -> float:
    """Seconds since the epoch of an ISO-8601 job-record timestamp."""
    from datetime import datetime

    return datetime.fromisoformat(text).timestamp()


def make(name: str) -> Workload:
    """A fresh workload object by name."""
    if name == "zdt1-nsga2":
        return SolveWorkload(name, "zdt1", population=100, generations=20)
    if name == "geobacter-nsga2":
        return SolveWorkload(name, "geobacter", population=100, generations=3)
    if name == "table2-design":
        return Table2Workload()
    if name == "serve-cache":
        return ServeWorkload()
    raise KeyError(name)


NAMES = ("zdt1-nsga2", "geobacter-nsga2", "table2-design", "serve-cache")
