"""Tests of the generic ``solve()`` driver, solver registry and run events.

The acceptance contract of the solver API: every engine runs through one
code path, return a :class:`SolveResult` with an evaluation ledger, stream
events to observers, and share uniform checkpoint/evaluator support (MOEA/D
included).
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.moead import MOEAD, MOEADConfig
from repro.moo.nsga2 import NSGA2Config
from repro.moo.pmo2 import PMO2Config, build_pmo2
from repro.moo.testproblems import Schaffer, ZDT1
from repro.problems import build_problem, problem_names
from repro.runtime.evaluator import ProcessPoolEvaluator, build_evaluator
from repro.solve import (
    CallbackObserver,
    MaxEvaluations,
    MaxGenerations,
    Observer,
    Solver,
    SolveResult,
    UnknownSolverError,
    get_solver,
    solve,
    solver_names,
)
from tests.helpers import solve_engine

ALGORITHMS = {
    "nsga2": dict(population_size=8),
    "moead": dict(population_size=8, neighborhood_size=4),
    "pmo2": dict(island_population_size=8, migration_interval=2),
}


class TestRegistry:
    def test_all_four_engines_registered(self):
        assert solver_names() == ["moead", "nsga2", "pmo2"]

    def test_unknown_solver_suggests_names(self):
        with pytest.raises(UnknownSolverError, match="unknown solver"):
            get_solver("nsga3")

    def test_archipelago_is_not_a_second_name_for_pmo2(self):
        with pytest.raises(UnknownSolverError, match="pmo2"):
            solve(Schaffer(), "archipelago", termination=1)

    def test_engines_satisfy_the_solver_protocol(self):
        problem = Schaffer()
        for name, overrides in ALGORITHMS.items():
            engine = get_solver(name).build(problem, seed=0, **overrides)
            assert isinstance(engine, Solver), name

    def test_build_rejects_config_plus_overrides(self):
        with pytest.raises(ConfigurationError, match="not both"):
            get_solver("nsga2").build(
                Schaffer(), config=NSGA2Config(), population_size=8
            )

    def test_build_rejects_unknown_config_fields(self):
        with pytest.raises(ConfigurationError, match="unknown NSGA2Config field"):
            get_solver("nsga2").build(Schaffer(), bogus_field=1)

    def test_problem_factory_covers_case_studies_and_synthetics(self):
        names = problem_names()
        assert {"photosynthesis", "geobacter", "zdt1", "schaffer"} <= set(names)
        assert build_problem("zdt1").n_obj == 2

    def test_unknown_problem_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown problem"):
            build_problem("zdt99")


class TestOneCodePath:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_algorithm_returns_a_solve_result(self, algorithm):
        result = solve(
            Schaffer(),
            algorithm=algorithm,
            seed=1,
            termination=MaxGenerations(4),
            **ALGORITHMS[algorithm],
        )
        assert isinstance(result, SolveResult)
        assert result.algorithm == algorithm
        assert result.problem == "Schaffer"
        assert result.generations == 4
        assert result.evaluations > 0
        assert len(result.front) > 0
        assert result.front_objectives().shape[1] == 2
        assert len(result.history) == 4

    def test_result_algorithm_is_the_spec_name(self):
        # An archipelago labels its own result "archipelago"; solve() stamps
        # the name of the spec that built the engine over it.
        engine = build_pmo2(Schaffer(), PMO2Config(island_population_size=8), seed=1)
        result = solve_engine(Schaffer(), engine, MaxGenerations(2))
        assert result.algorithm == "hand-built"

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_runs_are_deterministic_in_the_seed(self, algorithm):
        def run():
            return solve(
                Schaffer(),
                algorithm=algorithm,
                seed=7,
                termination=MaxGenerations(4),
                **ALGORITHMS[algorithm],
            )

        assert np.array_equal(run().front_objectives(), run().front_objectives())


class TestEngineParity:
    """solve() performs exactly the engine's initialize-and-step sequence."""

    def test_max_evaluations_matches_manual_budget_loop(self):
        config = MOEADConfig(population_size=8, neighborhood_size=4)
        engine = MOEAD(Schaffer(), config, seed=4)
        engine.initialize()
        while engine.evaluations < 60:
            engine.step()
        unified = solve(
            Schaffer(), "moead", seed=4,
            config=MOEADConfig(population_size=8, neighborhood_size=4),
            termination=MaxEvaluations(60),
        )
        assert unified.evaluations == engine.evaluations
        assert np.array_equal(
            engine.archive.F, unified.archive.F
        )


class TestSolveResult:
    def test_pmo2_extras_reachable_as_attributes(self):
        result = solve(Schaffer(), "pmo2", seed=1, termination=3,
                       island_population_size=8, migration_interval=2)
        assert len(result.island_fronts) == 2
        assert len(result.extras["island_archives"]) == 2
        with pytest.raises(AttributeError):
            result.no_such_field

    def test_ledger_attached_for_pmo2(self):
        result = solve(Schaffer(), "pmo2", seed=1, termination=3,
                       island_population_size=8, migration_interval=2)
        assert result.ledger is not None
        assert result.ledger.total_evaluations == result.evaluations

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_engine_returns_a_ledger_fresh_and_resumed(self, algorithm, tmp_path):
        overrides = ALGORITHMS[algorithm]
        fresh = solve(Schaffer(), algorithm, seed=9, termination=5, **overrides)
        assert fresh.ledger.total_evaluations == fresh.evaluations
        solve(Schaffer(), algorithm, seed=9, termination=5,
              checkpoint_dir=tmp_path, checkpoint_interval=2, **overrides)
        resumed = solve(Schaffer(), algorithm, seed=9, termination=8,
                        checkpoint_dir=tmp_path, checkpoint_interval=2, **overrides)
        assert resumed.checkpoint.restored_generation == 4
        assert resumed.ledger.total_evaluations == resumed.evaluations

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_no_worker_pool_survives_the_solve(self, algorithm, tmp_path, monkeypatch):
        used = []
        ensure_pool = ProcessPoolEvaluator._ensure_pool

        def tracking(evaluator, problem):
            used.append(evaluator)
            return ensure_pool(evaluator, problem)

        monkeypatch.setattr(ProcessPoolEvaluator, "_ensure_pool", tracking)
        overrides = ALGORITHMS[algorithm]
        for generations in (4, 6):  # the second solve resumes from generation 4
            solve(Schaffer(), algorithm, seed=9, termination=generations, n_workers=2,
                  checkpoint_dir=tmp_path, checkpoint_interval=2, **overrides)
        assert used
        assert all(evaluator._pool is None for evaluator in used)

    def test_history_records_every_generation(self):
        result = solve(Schaffer(), "nsga2", seed=1, population_size=8, termination=4)
        assert [entry["generation"] for entry in result.history] == [1, 2, 3, 4]
        assert all(entry["evaluations_delta"] == 8 for entry in result.history)


class TestObservers:
    def test_generation_events_stream(self):
        events = []

        class Recorder(Observer):
            def on_generation(self, event):
                events.append(event)

        solve(Schaffer(), "nsga2", seed=1, population_size=8, termination=4,
              observers=[Recorder()])
        assert [event.generation for event in events] == [1, 2, 3, 4]
        assert all(event.evaluations_delta == 8 for event in events)
        assert all(len(event.front) > 0 for event in events)

    def test_migration_events_for_archipelago_solvers(self):
        migrations = []
        solve(Schaffer(), "pmo2", seed=1, termination=6,
              island_population_size=8, migration_interval=2,
              observers=[CallbackObserver(on_migration=migrations.append)])
        assert [event.migrations for event in migrations] == [1, 2, 3]

    def test_no_migration_events_for_single_population_solvers(self):
        migrations = []
        solve(Schaffer(), "nsga2", seed=1, population_size=8, termination=4,
              observers=[CallbackObserver(on_migration=migrations.append)])
        assert migrations == []

    def test_checkpoint_events(self, tmp_path):
        checkpoints = []
        result = solve(Schaffer(), "nsga2", seed=1, population_size=8, termination=6,
                       checkpoint_dir=tmp_path, checkpoint_interval=2,
                       observers=[CallbackObserver(on_checkpoint=checkpoints.append)])
        assert [event.generation for event in checkpoints] == [2, 4, 6]
        assert result.checkpoint.saves == 3
        assert result.checkpoint.last_path.endswith("checkpoint-00000006.pkl")

    def test_observers_called_in_registration_order(self):
        calls = []
        first = CallbackObserver(on_generation=lambda e: calls.append("first"))
        second = CallbackObserver(on_generation=lambda e: calls.append("second"))
        solve(Schaffer(), "nsga2", seed=1, population_size=8, termination=1,
              observers=[first, second])
        assert calls == ["first", "second"]


class TestCheckpointing:
    @pytest.mark.parametrize("algorithm", ["nsga2", "moead", "pmo2"])
    def test_resume_is_bitwise_identical(self, algorithm, tmp_path):
        overrides = ALGORITHMS[algorithm]
        full = solve(Schaffer(), algorithm, seed=9, termination=8, **overrides)
        interrupted = solve(Schaffer(), algorithm, seed=9, termination=5,
                            checkpoint_dir=tmp_path, checkpoint_interval=2,
                            **overrides)
        assert interrupted.generations == 5
        resumed = solve(Schaffer(), algorithm, seed=9, termination=8,
                        checkpoint_dir=tmp_path, checkpoint_interval=2,
                        **overrides)
        assert resumed.checkpoint.restored_generation == 4
        assert resumed.generations == 8
        assert np.array_equal(full.front_objectives(), resumed.front_objectives())

    def test_restored_run_counts_only_missing_generations(self, tmp_path):
        solve(Schaffer(), "nsga2", seed=9, termination=4, population_size=8,
              checkpoint_dir=tmp_path, checkpoint_interval=2)
        events = []
        solve(Schaffer(), "nsga2", seed=9, termination=6, population_size=8,
              checkpoint_dir=tmp_path, checkpoint_interval=2,
              observers=[CallbackObserver(on_generation=events.append)])
        assert [event.generation for event in events] == [5, 6]


class TestEvaluatorWiring:
    def test_moead_gains_n_workers_support(self):
        serial = solve(Schaffer(), "moead", seed=2, termination=3,
                       population_size=8, neighborhood_size=4)
        pooled = solve(Schaffer(), "moead", seed=2, termination=3,
                       population_size=8, neighborhood_size=4, n_workers=2)
        assert np.array_equal(serial.front_objectives(), pooled.front_objectives())

    def test_cache_knob_attaches_a_recording_ledger(self):
        result = solve(Schaffer(), "moead", seed=2, termination=3,
                       population_size=8, neighborhood_size=4, cache=True)
        assert result.ledger is not None
        assert result.ledger.total_evaluations > 0

    def test_explicit_evaluator_is_not_closed(self):
        with build_evaluator(n_workers=1, cache=True) as evaluator:
            solve(Schaffer(), "nsga2", seed=2, termination=2, population_size=8,
                  evaluator=evaluator)
            # Still usable after solve(): solve() must not close caller-owned
            # evaluators.
            second = solve(Schaffer(), "nsga2", seed=2, termination=2,
                           population_size=8, evaluator=evaluator)
        assert second.ledger is evaluator.ledger


class TestErrors:
    def test_termination_is_required(self):
        with pytest.raises(ConfigurationError, match="termination is required"):
            solve(Schaffer(), "nsga2", population_size=8)

    def test_unknown_algorithm(self):
        with pytest.raises(UnknownSolverError):
            solve(Schaffer(), "annealing", termination=1)

    def test_initial_population_only_for_engines_that_accept_one(self):
        problem = Schaffer()
        rng = np.random.default_rng(0)
        from repro.moo.individual import Individual, Population

        population = Population(
            Individual(problem.random_solution(rng)) for _ in range(8)
        )
        result = solve(problem, "nsga2", seed=0, population_size=8, termination=2,
                       initial_population=population)
        assert result.generations == 2
        with pytest.raises(ConfigurationError, match="initial population"):
            solve(problem, "moead", seed=0, termination=2,
                  population_size=8, neighborhood_size=4,
                  initial_population=population)

    def test_initial_population_rejected_on_restored_runs(self, tmp_path):
        problem = ZDT1(n_var=4)
        solve(problem, "nsga2", seed=0, population_size=8, termination=4,
              checkpoint_dir=tmp_path, checkpoint_interval=2)
        rng = np.random.default_rng(0)
        from repro.moo.individual import Individual, Population

        population = Population(
            Individual(problem.random_solution(rng)) for _ in range(8)
        )
        with pytest.raises(ConfigurationError, match="restored run"):
            solve(problem, "nsga2", seed=0, population_size=8, termination=8,
                  checkpoint_dir=tmp_path, checkpoint_interval=2,
                  initial_population=population)


class TestHistoryAcrossResume:
    def test_resumed_history_matches_uninterrupted(self, tmp_path):
        full = solve(Schaffer(), "nsga2", seed=9, termination=6,
                     population_size=8)
        solve(Schaffer(), "nsga2", seed=9, termination=4, population_size=8,
              checkpoint_dir=tmp_path, checkpoint_interval=2)
        resumed = solve(Schaffer(), "nsga2", seed=9, termination=6,
                        population_size=8, checkpoint_dir=tmp_path,
                        checkpoint_interval=2)
        assert [e["generation"] for e in resumed.history] == [
            e["generation"] for e in full.history
        ] == [1, 2, 3, 4, 5, 6]


class TestObserverHardening:
    def test_raising_observer_does_not_kill_the_solve(self, caplog):
        import logging

        calls = []
        boom = CallbackObserver(
            on_generation=lambda e: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        after = CallbackObserver(on_generation=lambda e: calls.append(e.generation))
        with caplog.at_level(logging.ERROR, logger="repro.solve"):
            result = solve(Schaffer(), "nsga2", seed=1, population_size=8,
                           termination=4, observers=[boom, after])
        # The solve finished and later observers still received every event.
        assert result.generations == 4
        assert calls == [1, 2, 3, 4]
        assert any("boom" in record.exc_text or "failed" in record.message
                   for record in caplog.records)

    def test_observer_errors_are_recorded_as_spans(self):
        from repro.obs import InMemorySink, Tracer, use_tracer

        boom = CallbackObserver(
            on_generation=lambda e: (_ for _ in ()).throw(ValueError("nope"))
        )
        sink = InMemorySink()
        with use_tracer(Tracer(sink)):
            solve(Schaffer(), "nsga2", seed=1, population_size=8, termination=3,
                  observers=[boom])
        errors = [span for span in sink.spans if span["name"] == "solve.observer_error"]
        assert len(errors) == 3
        assert all(
            span["attributes"] == {"observer": "CallbackObserver", "method": "on_generation"}
            for span in errors
        )

    def test_result_is_unaffected_by_a_failing_observer(self):
        clean = solve(Schaffer(), "nsga2", seed=5, population_size=8, termination=4)
        boom = CallbackObserver(
            on_checkpoint=lambda e: (_ for _ in ()).throw(RuntimeError("x"))
        )
        watched = solve(Schaffer(), "nsga2", seed=5, population_size=8,
                        termination=4, observers=[boom])
        assert np.array_equal(clean.front_objectives(), watched.front_objectives())
