"""Tests for the MOEA/D optimizer."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.metrics import inverted_generational_distance
from repro.moo.individual import Population
from repro.moo.moead import MOEAD, MOEADConfig, uniform_weight_vectors
from repro.moo.testproblems import DTLZ2, Schaffer, ZDT1
from repro.problems import FunctionalProblem, build_problem
from repro.solve import CallbackObserver, solve
from tests.helpers import solve_engine
from tests.oracles.budget import BudgetCounting
from tests.oracles.fronts import true_front


class TestWeightVectors:
    def test_two_objective_weights_sum_to_one(self):
        weights = uniform_weight_vectors(2, 11)
        assert weights.shape == (11, 2)
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert weights[0] == pytest.approx([0.0, 1.0])
        assert weights[-1] == pytest.approx([1.0, 0.0])

    def test_three_objective_weights_on_simplex(self):
        weights = uniform_weight_vectors(3, 15)
        assert weights.shape[0] == 15
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert np.all(weights >= 0.0)

    def test_rejects_single_objective(self):
        with pytest.raises(ConfigurationError):
            uniform_weight_vectors(1, 10)

    def test_rejects_population_smaller_than_objectives(self):
        with pytest.raises(ConfigurationError):
            uniform_weight_vectors(3, 2)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 2},
            {"neighborhood_size": 1},
            {"neighborhood_size": 200, "population_size": 20},
            {"neighborhood_selection_probability": 2.0},
            {"max_replacements": 0},
            {"de_scale": 0.0},
            {"de_crossover_rate": 1.5},
            {"mutation_eta": -2.0},
            {"mutation_probability": -0.1},
            {"constraint_penalty": -1.0},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MOEADConfig(**kwargs).validate()

    @pytest.mark.parametrize("field", ["mutation_eta"])
    def test_nonpositive_eta_fails_before_any_evaluation(self, field):
        problem = BudgetCounting(ZDT1())
        with pytest.raises(ConfigurationError, match=field):
            MOEAD(problem, MOEADConfig(**{field: 0}))
        with pytest.raises(ConfigurationError, match=field):
            solve(problem, "moead", seed=0, termination=2, **{field: 0.0})
        assert problem.evaluations == 0


def _moead(problem, generations, seed, **config):
    """``solve()`` MOEA/D on ``problem`` with the given config fields."""
    return solve(problem, "moead", seed=seed, termination=generations, **config)


class TestMOEADRun:
    def test_population_size_and_generations(self):
        result = _moead(Schaffer(), 5, 0, population_size=20, neighborhood_size=5)
        assert len(result.population) == 20
        assert result.generations == 5

    def test_evaluation_budget(self):
        result = _moead(Schaffer(), 5, 0, population_size=20, neighborhood_size=5)
        # Initialization + one offspring per sub-problem per generation.
        assert result.evaluations == 20 + 20 * 5

    def test_negative_generations_rejected(self):
        with pytest.raises(ConfigurationError):
            _moead(Schaffer(), -2, 0)

    def test_ideal_point_tracks_minimum(self):
        problem = Schaffer()
        optimizer = MOEAD(problem, MOEADConfig(population_size=16, neighborhood_size=4), seed=1)
        solve_engine(problem, optimizer, 5)
        matrix = optimizer.archive.F
        assert optimizer.ideal[0] <= matrix[:, 0].min() + 1e-9
        assert optimizer.ideal[1] <= matrix[:, 1].min() + 1e-9

    def test_converges_on_schaffer(self):
        problem = Schaffer()
        result = _moead(problem, 40, 2, population_size=30, neighborhood_size=8)
        igd = inverted_generational_distance(
            result.archive.F, true_front(problem)
        )
        assert igd < 0.3

    def test_three_objective_problem_runs(self):
        result = _moead(DTLZ2(n_obj=3, n_var=7), 5, 4, population_size=21, neighborhood_size=5)
        assert result.archive.F.shape[1] == 3

    def test_seed_reproducibility(self):
        fronts = [
            _moead(Schaffer(), 5, 11, population_size=12, neighborhood_size=4)
            .archive.F
            for _ in range(2)
        ]
        assert np.allclose(fronts[0], fronts[1])


class TestMOEADCheckpointParity:
    """MOEA/D has the same checkpoint/resume support as the other engines."""

    def test_run_accepts_checkpoint_and_saves_on_interval(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointManager

        manager = CheckpointManager(tmp_path, interval=2)
        _moead(Schaffer(), 6, 5, population_size=12, neighborhood_size=4, checkpoint=manager)
        assert [path.name for path in manager.checkpoints()] == [
            "checkpoint-00000002.pkl",
            "checkpoint-00000004.pkl",
            "checkpoint-00000006.pkl",
        ]

    def test_resume_is_bitwise_identical(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointManager

        config = dict(population_size=12, neighborhood_size=4)
        uninterrupted = _moead(Schaffer(), 8, 5, **config)

        manager = CheckpointManager(tmp_path, interval=3)
        _moead(Schaffer(), 5, 5, checkpoint=manager, **config)
        resumed = _moead(Schaffer(), 8, 5, checkpoint=manager, **config)

        assert resumed.generations == 8
        assert resumed.evaluations == uninterrupted.evaluations
        assert np.array_equal(
            uninterrupted.archive.F,
            resumed.archive.F,
        )
        assert np.array_equal(
            uninterrupted.population.X,
            resumed.population.X,
        )

    def test_callback_runs_every_generation(self):
        generations = []
        _moead(
            Schaffer(), 4, 5, population_size=12, neighborhood_size=4,
            observers=[CallbackObserver(on_generation=lambda e: generations.append(e.generation))],
        )
        assert generations == [1, 2, 3, 4]


class TestAdaptiveNeighborhoodDefault:
    def test_default_resolves_to_twenty_for_large_populations(self):
        assert MOEADConfig(population_size=100).resolved_neighborhood_size() == 20

    def test_default_shrinks_with_small_populations(self):
        assert MOEADConfig(population_size=8).resolved_neighborhood_size() == 4
        # The programmatic API works at small populations without an explicit
        # neighborhood_size, exactly like the CLI.
        result = _moead(Schaffer(), 2, 0, population_size=8)
        assert result.generations == 2

    def test_explicit_oversized_neighborhood_still_rejected(self):
        with pytest.raises(ConfigurationError):
            MOEADConfig(population_size=8, neighborhood_size=20).validate()


class _PerChildMOEAD(MOEAD):
    """Reference step: each child enters the archive as soon as it is evaluated."""

    def step(self):
        for index in range(self.config.population_size):
            pool, restricted = self._mating_pool(index)
            child = Population.from_matrix(self._reproduce(index, pool)[None])
            self.evaluations += child.evaluate(self.problem, self.evaluator)
            self.ideal = np.minimum(self.ideal, child.F[0])
            self.archive.add_population(child)
            replace_pool = pool if restricted else np.arange(self.config.population_size)
            self._update_neighborhood(child, self.rng.permutation(replace_pool))
        self.generation += 1


class TestGenerationArchiveFold:
    """A generation's children folded into the archive at once leave the
    archive and the incumbents byte-equal to folding each child in turn."""

    @pytest.mark.parametrize("spec", ["zdt1", "bnh", "dtlz2"])
    # 0.0: every child mates and replaces over the whole population.
    @pytest.mark.parametrize("neighborhood", [0.9, 0.0])
    @pytest.mark.parametrize("capacity", [None, 6])
    def test_matches_per_child_folds(self, spec, neighborhood, capacity):
        config = MOEADConfig(
            population_size=24,
            neighborhood_selection_probability=neighborhood,
            archive_capacity=capacity,
        )
        engines = [cls(build_problem(spec), config, seed=3) for cls in (MOEAD, _PerChildMOEAD)]
        for engine in engines:
            engine.initialize()
            for _ in range(6):
                engine.step()
        batched, reference = engines
        if capacity is not None:
            assert len(reference.archive) == capacity  # the bound was exercised
        for ours, theirs in (
            (batched.archive.to_population(), reference.archive.to_population()),
            (batched.population, reference.population),
        ):
            for field in ("X", "F", "CV"):
                assert getattr(ours, field).tobytes() == getattr(theirs, field).tobytes()


# ----------------------------------------------------------------------
# Golden digests: MOEA/D's fronts and final populations, byte for byte
# ----------------------------------------------------------------------
GOLDEN_MOEAD = Path(__file__).parent / "data" / "golden_moead.json"


def _constrained_functional():
    """A two-constraint problem wrapped from plain callables."""
    return FunctionalProblem(
        n_var=3,
        objective_functions=[
            lambda x: x[0] ** 2 + x[1],
            lambda x: (x[0] - 1.0) ** 2 + x[2] ** 2,
        ],
        constraint_functions=[
            lambda x: x[0] + x[1] - 1.2,
            lambda x: 0.3 - x[1] - x[2],
        ],
        lower_bounds=[0.0, 0.0, 0.0],
        upper_bounds=[1.0, 1.0, 1.0],
    )


#: PMO2 migration cases: name -> (problem spec, config fields beyond the
#: shared 8-row islands migrating every 2 generations).
_PMO2_CASES = {
    "3-islands": ("zdt1", dict(n_islands=3)),
    "isolated": ("zdt1", dict(n_islands=3, topology="isolated")),
    # Two sources of 5 migrants each flood an 8-row island every event.
    "rate=1-count=5": ("zdt1", dict(n_islands=3, migration_rate=1.0, migration_count=5)),
    "archive_capacity=6": ("zdt1", dict(archive_capacity=6)),
    "constrained": ("bnh", dict(migration_rate=1.0)),
}


def _golden_cases():
    """Case name -> a zero-argument run returning the case's digests."""
    cases = {}
    # "de-global": every child mates and replaces over the whole population.
    variants = {"de": 0.9, "de-global": 0.0}
    for spec in ("zdt1", "bnh", "dtlz2", "zdt1?noise=0.01"):
        for variant, neighborhood in variants.items():
            for seed in (0, 3):
                cases["moead/%s/%s/seed=%d" % (spec, variant, seed)] = (
                    lambda spec=spec, neighborhood=neighborhood, seed=seed: _digests(
                        _moead(
                            build_problem(spec), 6, seed, population_size=24,
                            neighborhood_selection_probability=neighborhood,
                        )
                    )
                )
    configs = {
        "moead": dict(population_size=24),
        "nsga2": dict(population_size=24),
        "pmo2": dict(n_islands=2, island_population_size=12, migration_interval=2),
    }
    for algorithm, config in configs.items():
        cases["%s/functional-constrained/cache" % algorithm] = (
            lambda algorithm=algorithm, config=config: _digests(
                solve(_constrained_functional(), algorithm, seed=1, termination=6, cache=True,
                      **config)
            )
        )
    for name, (spec, config) in _PMO2_CASES.items():
        cases["pmo2/%s/%s" % (spec, name)] = lambda spec=spec, config=config: _island_digests(
            solve(build_problem(spec), "pmo2", seed=5, termination=7,
                  island_population_size=8, migration_interval=2, **config)
        )
    return cases


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _digests(result) -> dict:
    """sha256 of the front's and the population's X/F/CV bytes, and the count.

    PMO2 keeps no single population, so its entry holds the front only.
    """
    digests = {"evaluations": int(result.evaluations)}
    for part, population in (("front", result.front), ("population", result.population)):
        if population is None:
            continue
        for field in ("X", "F", "CV"):
            digests["%s.%s" % (part, field)] = _sha256(getattr(population, field))
    return digests


def _island_digests(result) -> dict:
    """:func:`_digests` plus every island front's X/F/CV and the migration count."""
    digests = _digests(result)
    digests["migrations"] = int(result.migrations)
    for i, front in enumerate(result.extras["island_fronts"]):
        for field in ("X", "F", "CV"):
            digests["island%d.%s" % (i, field)] = _sha256(getattr(front, field))
    return digests


class TestGoldenDigests:
    """MOEA/D, PMO2's migration (island fronts and migration counts) and the
    functional-problem path every engine shares must reproduce, bit for bit,
    the fronts and populations recorded in ``data/golden_moead.json`` —
    regenerate it only for an intended change of results, with
    ``PYTHONPATH=src python -m tests.moo.test_moead``."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_MOEAD.read_text())

    def test_every_case_is_recorded(self, golden):
        assert sorted(golden) == sorted(_golden_cases())

    @pytest.mark.parametrize("case", sorted(_golden_cases()))
    def test_digests_match_golden(self, case, golden):
        assert _golden_cases()[case]() == golden[case]


if __name__ == "__main__":  # regenerate the golden digests
    golden = {name: run() for name, run in sorted(_golden_cases().items())}
    GOLDEN_MOEAD.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print("wrote %d cases to %s" % (len(golden), GOLDEN_MOEAD))
