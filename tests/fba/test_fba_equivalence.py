"""Equivalence suite: the vectorized FBA stack vs the preserved references.

The fast stack (shared :class:`~repro.fba.assembly.LPAssembly`, sparse LP
constraints, batched violation screens) must reproduce the naive per-call
implementations preserved in ``tests/oracles/fba.py`` *bitwise*.  The
suite checks that three ways:

* element-for-element comparisons of the fast and reference results over
  feasible, degenerate and infeasible toy models,
* a golden JSON fixture (``data/golden_fba_reference.json``) recorded from
  the references, which both implementations must reproduce byte for byte,
* a regression test pinning the number of constraint assemblies a batched
  scan performs (one, not one per sub-problem).

Regenerate the fixture (only after an intentional behavior change) with::

    PYTHONPATH=src python -m tests.fba.test_fba_equivalence
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import InfeasibleProblemError
from repro.fba import (
    Metabolite,
    Reaction,
    StoichiometricModel,
    assemble_lp,
    bound_violations,
    double_deletions,
    flux_balance_analysis,
    flux_variability_analysis,
    single_deletions,
    steady_state_violations,
)
from tests.oracles.fba import (
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

    model = growth_model()
    if fast:
        singles = single_deletions(model, target="EX_q")
        doubles = double_deletions(model, ["P1", "P2", "EX_q"], target="EX_q")
    else:
        singles = reference_single_deletions(model, target="EX_q")
        doubles = reference_double_deletions(model, ["P1", "P2", "EX_q"], target="EX_q")
    payload["growth"]["single_deletions"] = _knockout_record(singles)
    payload["growth"]["double_deletions"] = _knockout_record(doubles)
    return payload


def _serialize(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
        golden = GOLDEN_FIXTURE.read_text(encoding="utf-8")
        assert _serialize(_payload("fast")) == golden


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
        assert fast.info == slow.info

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

    def test_knockout_scans_identical(self):
        model = growth_model()
        assert single_deletions(model, target="EX_q") == reference_single_deletions(
            model, target="EX_q"
        )
        candidates = ["P1", "P2", "EX_q"]
        assert double_deletions(
            model, candidates, target="EX_q"
        ) == reference_double_deletions(model, candidates, target="EX_q")

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

    def test_single_deletions_assemble_once(self, assembly_counter):
        single_deletions(growth_model(), target="EX_q")
        assert len(assembly_counter) == 1

    def test_double_deletions_assemble_once(self, assembly_counter):
        double_deletions(growth_model(), ["P1", "P2", "EX_q"], target="EX_q")
        assert len(assembly_counter) == 1

    def test_knockout_bounds_do_not_leak_into_the_assembly(self):
        assembly = assemble_lp(growth_model())
        before = (assembly.lower.copy(), assembly.upper.copy())
        assembly.knockout_bounds(("P1",))
        assert np.array_equal(assembly.lower, before[0])
        assert np.array_equal(assembly.upper, before[1])


if __name__ == "__main__":
    GOLDEN_FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_FIXTURE.write_text(_serialize(_payload("reference")), encoding="utf-8")
    print("recorded %s" % GOLDEN_FIXTURE)
