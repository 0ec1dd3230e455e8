"""Equivalence suite: the vectorized FBA stack vs the preserved references.

The fast stack (shared :class:`~repro.fba.solver.LPAssembly`, sparse LP
constraints, batched violation screens) must reproduce the naive per-call
implementations preserved in ``tests/oracles/fba.py`` *bitwise*.  The
suite checks that three ways:

* element-for-element comparisons of the fast and reference results over
  feasible, degenerate and infeasible toy models,
* a golden JSON fixture (``data/golden_fba_reference.json``) recorded from
  the references, which both implementations must reproduce byte for byte
  (the fast stack every section but the knockout scans, which only the
  references still compute; the documented knockout recipe on the fast
  stack reproduces each recorded mutant),
* a regression test pinning the number of constraint assemblies a batched
  scan performs (one, not one per sub-problem).

Regenerate the fixture (only after an intentional behavior change) with::

    PYTHONPATH=src python -m tests.fba.test_fba_equivalence
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import InfeasibleProblemError, ModelConsistencyError
from repro.fba import (
    Metabolite,
    Reaction,
    StoichiometricModel,
    bound_violations,
    flux_balance_analysis,
    flux_variability_analysis,
    steady_state_violations,
)
from repro.fba.batch import ResidualPlan
from repro.geobacter.problem import GeobacterDesignProblem
from tests.oracles.fba import (
    knock_out,
    reference_bound_violation,
    reference_constraint_violation,
    reference_double_deletions,
    reference_flux_balance_analysis,
    reference_flux_variability_analysis,
    reference_single_deletions,
)

GOLDEN_FIXTURE = Path(__file__).parent / "data" / "golden_fba_reference.json"

_NORMS = ("l1", "l2", "linf")


# ----------------------------------------------------------------------
# Toy models covering the regimes the solvers must agree on
# ----------------------------------------------------------------------
def branched_model():
    """Feasible: substrate S splits into products P and Q at different yields."""
    model = StoichiometricModel("branched")
    model.add_metabolites([Metabolite("s_c"), Metabolite("p_c"), Metabolite("q_c")])
    model.add_reactions(
        [
            Reaction("EX_s", {"s_c": 1}, lower_bound=0.0, upper_bound=10.0),
            Reaction("S2P", {"s_c": -1, "p_c": 1}),
            Reaction("S2Q", {"s_c": -2, "q_c": 1}),
            Reaction("EX_p", {"p_c": -1}),
            Reaction("EX_q", {"q_c": -1}),
        ]
    )
    model.set_objective("EX_p")
    return model


def cyclic_model():
    """Feasible with an internal futile cycle (degenerate flux directions)."""
    model = branched_model()
    model.add_reactions(
        [
            Reaction("CYC_F", {"p_c": -1, "q_c": 1}, lower_bound=0.0, upper_bound=100.0),
            Reaction("CYC_R", {"q_c": -1, "p_c": 1}, lower_bound=0.0, upper_bound=100.0),
        ]
    )
    return model


def growth_model():
    """Feasible with a growth objective and a coupled by-product (knockouts)."""
    model = StoichiometricModel("strain-design-toy")
    model.add_metabolites([Metabolite("s_c"), Metabolite("p_c"), Metabolite("q_c")])
    model.add_reactions(
        [
            Reaction("EX_s", {"s_c": 1}, lower_bound=0.0, upper_bound=10.0),
            Reaction("P1", {"s_c": -1, "p_c": 1}),
            Reaction("P2", {"s_c": -1, "p_c": 0.7, "q_c": 0.3}),
            Reaction("GROWTH", {"p_c": -1}),
            Reaction("EX_q", {"q_c": -1}),
        ]
    )
    model.set_objective("GROWTH")
    return model


def degenerate_model():
    """Feasible with twin routes (alternate optima, the classical FVA trap)."""
    model = branched_model()
    model.add_reaction(Reaction("S2P_TWIN", {"s_c": -1, "p_c": 1}))
    return model


def infeasible_model():
    """Infeasible: production of P is forced while uptake of S is forbidden."""
    model = branched_model()
    model.set_bounds("EX_p", 5.0, 10.0)
    model.set_bounds("EX_s", 0.0, 0.0)
    return model


FEASIBLE_MODELS = {
    "branched": branched_model,
    "cyclic": cyclic_model,
    "growth": growth_model,
    "degenerate": degenerate_model,
}


def _population(model, rows: int = 6, seed: int = 7) -> np.ndarray:
    """Seeded flux population, including out-of-bound and boundary rows."""
    lower, upper = model.bounds()
    rng = np.random.default_rng(seed)
    X = rng.uniform(lower, upper, size=(rows, model.n_reactions))
    X[0] = lower
    X[1] = upper * 1.5  # violates the box bounds on purpose
    return X


# ----------------------------------------------------------------------
# Canonical payload shared by the recorder and both equivalence checks
# ----------------------------------------------------------------------
def _solution_record(solution) -> dict:
    return {
        "objective_value": solution.objective_value,
        "fluxes": dict(solution.fluxes),
    }


def _fva_record(ranges) -> dict:
    return {
        identifier: {"minimum": r.minimum, "maximum": r.maximum}
        for identifier, r in ranges.items()
    }


def _knockout_record(outcomes) -> list:
    return [
        {
            "reactions": list(o.reactions),
            "growth": o.growth,
            "production": o.production,
            "lethal": o.lethal,
        }
        for o in outcomes
    ]


def _payload(implementation: str) -> dict:
    """Every recorded quantity, computed by one of the two implementations."""
    fast = implementation == "fast"
    payload: dict = {"implementation-independent": True}
    for name, build in FEASIBLE_MODELS.items():
        model = build()
        X = _population(model)
        if fast:
            solution = flux_balance_analysis(model)
            fva = flux_variability_analysis(model, fraction_of_optimum=0.5)
            steady = {
                norm: steady_state_violations(model, X, norm=norm).tolist()
                for norm in _NORMS
            }
            bounds = bound_violations(model, X).tolist()
        else:
            solution = reference_flux_balance_analysis(model)
            fva = reference_flux_variability_analysis(model, fraction_of_optimum=0.5)
            steady = {
                norm: [reference_constraint_violation(model, row, norm) for row in X]
                for norm in _NORMS
            }
            bounds = [reference_bound_violation(model, row) for row in X]
        payload[name] = {
            "fba": _solution_record(solution),
            "fva": _fva_record(fva),
            "steady_state_violations": steady,
            "bound_violations": bounds,
        }

    if not fast:
        model = growth_model()
        singles = reference_single_deletions(model, target="EX_q")
        doubles = reference_double_deletions(model, ["P1", "P2", "EX_q"], target="EX_q")
        payload["growth"]["single_deletions"] = _knockout_record(singles)
        payload["growth"]["double_deletions"] = _knockout_record(doubles)
    return payload


def _serialize(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _golden_mutants() -> list:
    """Every knockout mutant the fixture records, singles then doubles."""
    growth = json.loads(GOLDEN_FIXTURE.read_text(encoding="utf-8"))["growth"]
    return growth["single_deletions"] + growth["double_deletions"]


# ----------------------------------------------------------------------
# Golden fixture: both implementations reproduce the recording byte for byte
# ----------------------------------------------------------------------
class TestGoldenFixture:
    def test_fixture_is_sane(self):
        golden = json.loads(GOLDEN_FIXTURE.read_text(encoding="utf-8"))
        assert golden["branched"]["fba"]["fluxes"]
        assert golden["growth"]["single_deletions"]

    def test_reference_reproduces_golden_fixture(self):
        golden = GOLDEN_FIXTURE.read_text(encoding="utf-8")
        assert _serialize(_payload("reference")) == golden

    def test_fast_stack_reproduces_golden_fixture(self):
        golden = json.loads(GOLDEN_FIXTURE.read_text(encoding="utf-8"))
        del golden["growth"]["single_deletions"], golden["growth"]["double_deletions"]
        assert _serialize(_payload("fast")) == _serialize(golden)

    @pytest.mark.parametrize(
        "recorded", _golden_mutants(), ids=lambda entry: "-".join(entry["reactions"])
    )
    def test_knockout_recipe_reproduces_golden_mutants(self, recorded):
        # The recipe docs/problems.md gives for the removed scans: copy the
        # model, knock the reactions out (the oracle's helper), solve with
        # the fast FBA.
        mutant = growth_model().copy()
        for identifier in recorded["reactions"]:
            knock_out(mutant.get_reaction(identifier))
        solution = flux_balance_analysis(mutant)
        growth = float(solution.objective_value)
        lethal = growth < 1e-6
        outcome = {
            "reactions": recorded["reactions"],
            "growth": growth,
            "production": None if lethal else float(solution["EX_q"]),
            "lethal": lethal,
        }
        assert _serialize(outcome) == _serialize(recorded)


# ----------------------------------------------------------------------
# Element-level agreement (sharper failures than the byte comparison)
# ----------------------------------------------------------------------
class TestElementEquivalence:
    @pytest.mark.parametrize("name", sorted(FEASIBLE_MODELS))
    def test_fba_solutions_identical(self, name):
        model = FEASIBLE_MODELS[name]()
        fast = flux_balance_analysis(model)
        slow = reference_flux_balance_analysis(model)
        assert fast.objective_value == slow.objective_value
        assert fast.fluxes == slow.fluxes

    @pytest.mark.parametrize("name", sorted(FEASIBLE_MODELS))
    def test_fva_ranges_identical(self, name):
        model = FEASIBLE_MODELS[name]()
        fast = flux_variability_analysis(model, fraction_of_optimum=0.5)
        slow = reference_flux_variability_analysis(model, fraction_of_optimum=0.5)
        assert fast == slow

    @pytest.mark.parametrize("name", sorted(FEASIBLE_MODELS))
    @pytest.mark.parametrize("norm", _NORMS)
    def test_violation_screens_identical(self, name, norm):
        model = FEASIBLE_MODELS[name]()
        X = _population(model)
        batched = steady_state_violations(model, X, norm=norm)
        looped = [reference_constraint_violation(model, row, norm) for row in X]
        assert batched.tolist() == looped
        assert bound_violations(model, X).tolist() == [
            reference_bound_violation(model, row) for row in X
        ]

    def test_infeasible_model_raises_in_both(self):
        with pytest.raises(InfeasibleProblemError):
            flux_balance_analysis(infeasible_model())
        with pytest.raises(InfeasibleProblemError):
            reference_flux_balance_analysis(infeasible_model())

    def test_infeasible_fva_raises_in_both(self):
        with pytest.raises(InfeasibleProblemError):
            flux_variability_analysis(infeasible_model(), objective="EX_p")
        with pytest.raises(InfeasibleProblemError):
            reference_flux_variability_analysis(infeasible_model(), objective="EX_p")


# ----------------------------------------------------------------------
# The sparse residual plan: every row shape, non-finite rows, the guard
# ----------------------------------------------------------------------
def sparse_model(counts, n_reactions: int = 29, seed: int = 3, integral: bool = True):
    """A model whose metabolite ``i`` appears in ``counts[i]`` reactions.

    As in real networks, a row with at most two nonzeros has integral
    coefficients (``integral=False`` makes them random floats too) and a
    longer row random floats; the bounds are random floats.  The ``EX_``
    prefix lets a reaction that touches no metabolite exist.
    """
    rng = np.random.default_rng(seed)
    S = np.zeros((len(counts), n_reactions))
    for row, count in enumerate(counts):
        columns = rng.choice(n_reactions, size=count, replace=False)
        if count <= 2 and integral:
            S[row, columns] = rng.choice([-2.0, -1.0, 1.0, 2.0], size=count)
        else:
            S[row, columns] = rng.uniform(-3.0, 3.0, size=count)
    model = StoichiometricModel("sparse-%d" % len(counts))
    model.add_metabolites([Metabolite("m%d_c" % i) for i in range(len(counts))])
    for j in range(n_reactions):
        bound = float(rng.uniform(1.0, 150.0))
        model.add_reaction(
            Reaction(
                "EX_r%d" % j,
                {"m%d_c" % i: S[i, j] for i in np.flatnonzero(S[:, j])},
                lower_bound=-bound,
                upper_bound=bound,
            )
        )
    return model


#: Row shapes: 0, 1, 2, 3 and many nonzeros, in row counts that are not a
#: multiple of 4, with the long rows in the middle and in the last block.
SPARSE_MODELS = {
    "mixed": [2, 0, 1, 2, 3, 2, 2, 2, 7, 29, 2, 1, 2, 2, 2, 2, 2, 2, 0, 3, 2, 2, 12],
    "short-only": [2, 1, 0, 2, 2, 1, 2, 2, 2, 0, 1, 2, 2, 2, 1],
    "long-only": [3, 9, 29, 4, 5, 3, 11],
    "one-long-row": [2] * 17 + [6] + [2] * 3,
}


def _sparse_models():
    """Every row shape, plus one with non-integral two-term rows.

    A BLAS that fuses the multiply-add of two products in one SIMD lane
    (OpenBLAS on AVX2 does) rounds an inexact second product differently
    from the plan, so on such a BLAS the last model fails the guard and
    runs the full GEMV.
    """
    models = {name: sparse_model(counts) for name, counts in SPARSE_MODELS.items()}
    models["mixed-non-integral"] = sparse_model(SPARSE_MODELS["mixed"], integral=False)
    return models


def _box_population(model, rows: int = 40, seed: int = 11) -> np.ndarray:
    """Random rows inside the box, plus both corners and a row of zeros."""
    lower, upper = model.bounds()
    rng = np.random.default_rng(seed)
    X = rng.uniform(lower, upper, size=(rows, model.n_reactions))
    X[0], X[1], X[2] = lower, upper, 0.0
    return X


def _assert_matches_reference(model, X):
    for norm in _NORMS:
        looped = np.array([reference_constraint_violation(model, row, norm) for row in X])
        assert steady_state_violations(model, X, norm=norm).tobytes() == looped.tobytes()


class TestSparseResidualPlan:
    @pytest.mark.parametrize("name", sorted(_sparse_models()))
    def test_every_row_shape_matches_the_reference(self, name):
        model = _sparse_models()[name]
        _assert_matches_reference(model, _box_population(model))

    @pytest.mark.parametrize("name", sorted(_sparse_models()))
    def test_non_finite_rows_match_the_reference(self, name):
        # A GEMV spreads a NaN or an infinity anywhere in the row to every
        # residual (0 * inf is NaN); the gathered products would not.
        model = _sparse_models()[name]
        X = _box_population(model, rows=12)
        X[3, 4] = np.nan
        X[5, 0] = np.inf
        X[7, -1] = -np.inf
        X[9] = np.inf
        with np.errstate(invalid="ignore"):
            _assert_matches_reference(model, X)
            assert np.isnan(model.constraint_violation(X[3]))

    def test_short_rows_are_two_products_and_one_add(self):
        model = sparse_model(SPARSE_MODELS["mixed"], integral=False)
        X = _box_population(model)
        S = model.stoichiometric_matrix()
        plan = model._residual_plan()
        residuals = plan.sparse_residuals(X)
        for row in plan.short_rows:
            terms = [(float(S[row, j]), j) for j in np.flatnonzero(S[row])]
            for x, value in zip(X, residuals[:, row]):
                products = [c * float(x[j]) for c, j in terms] + [0.0, 0.0]
                assert value == products[0] + products[1]

    @pytest.mark.parametrize("name", sorted(SPARSE_MODELS))
    def test_long_rows_run_over_aligned_blocks(self, name):
        model = sparse_model(SPARSE_MODELS[name])
        S = model.stoichiometric_matrix()
        plan = model._residual_plan()
        starts = sorted({4 * (row // 4) for row in plan.long_rows})
        assert np.array_equal(plan.blocks, np.vstack([S[:0]] + [S[i : i + 4] for i in starts]))
        assert np.array_equal(plan.blocks[plan.picked], S[plan.long_rows])
        assert sorted([*plan.short_rows, *plan.long_rows]) == list(range(S.shape[0]))

    def test_the_guard_detects_a_plan_that_differs(self):
        model = sparse_model(SPARSE_MODELS["mixed"])
        plan = model._residual_plan()
        plan.coefficients[0, 0] = np.nextafter(plan.coefficients[0, 0], np.inf)
        assert not plan.matches_gemv(*model.bounds())

    def test_an_unbounded_box_is_probed_on_a_finite_one(self):
        model = sparse_model(SPARSE_MODELS["mixed"])
        X = _box_population(model)
        model.set_bounds("EX_r0", -np.inf, 5.0)
        model.set_bounds("EX_r1", 0.0, np.inf)
        _assert_matches_reference(model, X)

    def test_geobacter_fba_seeds_match_the_reference(self):
        problem = GeobacterDesignProblem()
        X = np.vstack(problem.fba_seed_vectors(n_seeds=4) + [problem.lower_bounds, problem.upper_bounds])
        _assert_matches_reference(problem.model, X)

    @pytest.mark.parametrize("name", ["mixed", "long-only"])
    def test_chunk_invariant(self, name):
        model = sparse_model(SPARSE_MODELS[name])
        X = _box_population(model, rows=13)
        for norm in _NORMS:
            whole = steady_state_violations(model, X, norm=norm)
            split = np.concatenate(
                [steady_state_violations(model, X[:5], norm), steady_state_violations(model, X[5:], norm)]
            )
            single = np.array([model.constraint_violation(row, norm) for row in X])
            assert whole.tobytes() == split.tobytes() == single.tobytes()

    def test_a_failed_guard_keeps_the_full_gemv(self, monkeypatch):
        monkeypatch.setattr(ResidualPlan, "matches_gemv", lambda self, lower, upper: False)

        def unused(self, X):
            raise AssertionError("the sparse path ran after a failed guard")

        monkeypatch.setattr(ResidualPlan, "sparse_residuals", unused)
        model = sparse_model(SPARSE_MODELS["mixed"])
        _assert_matches_reference(model, _box_population(model))
        assert model._residual_plan().exact is False

    def test_the_guard_runs_once_per_plan(self, monkeypatch):
        probes = []
        original = ResidualPlan.matches_gemv

        def counted(self, lower, upper):
            probes.append(self)
            return original(self, lower, upper)

        monkeypatch.setattr(ResidualPlan, "matches_gemv", counted)
        model = sparse_model(SPARSE_MODELS["mixed"])
        X = _box_population(model)
        for norm in _NORMS:
            steady_state_violations(model, X, norm=norm)
        assert probes == [model._residual_plan()]

    def test_adding_a_reaction_rebuilds_the_plan(self):
        model = sparse_model(SPARSE_MODELS["mixed"])
        steady_state_violations(model, _box_population(model))
        plan = model._residual_plan()
        model.add_reaction(
            Reaction("EX_new", {"m1_c": 1.5, "m4_c": -0.25, "m22_c": 2.0}, -5.0, 5.0)
        )
        assert model._residual_plan() is not plan
        _assert_matches_reference(model, _box_population(model))

    def test_the_verdict_is_not_pickled(self):
        model = sparse_model(SPARSE_MODELS["mixed"])
        X = _box_population(model)
        steady_state_violations(model, X)
        assert model._residual_plan().exact is not None
        clone = pickle.loads(pickle.dumps(model))
        assert clone._residual_plan().exact is None
        _assert_matches_reference(clone, X)

    def test_unknown_norm_is_refused(self):
        model = sparse_model(SPARSE_MODELS["mixed"])
        with pytest.raises(ModelConsistencyError, match="l1, l2, linf"):
            steady_state_violations(model, _box_population(model), norm="l0")


# ----------------------------------------------------------------------
# Shared-assembly regression: batched scans assemble the LP exactly once
# ----------------------------------------------------------------------
class TestSingleAssembly:
    @pytest.fixture
    def assembly_counter(self, monkeypatch):
        calls = []
        original = StoichiometricModel.stoichiometric_matrix

        def counted(self):
            calls.append(self.name)
            return original(self)

        monkeypatch.setattr(StoichiometricModel, "stoichiometric_matrix", counted)
        return calls

    def test_fva_assembles_once(self, assembly_counter):
        flux_variability_analysis(branched_model(), fraction_of_optimum=0.5)
        assert len(assembly_counter) == 1


if __name__ == "__main__":
    GOLDEN_FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_FIXTURE.write_text(_serialize(_payload("reference")), encoding="utf-8")
    print("recorded %s" % GOLDEN_FIXTURE)
