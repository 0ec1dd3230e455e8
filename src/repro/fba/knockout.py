"""Reaction-deletion (knockout) analysis.

The paper motivates the Geobacter study with OptKnock, the bilevel framework
that finds gene deletions coupling growth to the overproduction of a target
compound.  This module provides the single- and double-deletion scans that
such strain-design workflows are built on: for every candidate knockout it
reports the mutant's maximal growth and the production of a target flux at
that growth, so coupled designs (production forced up by the deletion) can be
identified.

A scan assembles the LP constraint system **once**
(:func:`repro.fba.assembly.assemble_lp`); each mutant is just a bounds
override (the knocked fluxes clamped to zero) on the shared assembly, instead
of a full model copy plus a dense matrix rebuild per mutant as in the scalar
loop preserved in ``tests/oracles/fba.py``.  Mutants are embarrassingly
parallel, so ``n_workers > 1`` fans them out through
:func:`repro.runtime.parallel.parallel_map`; serial and parallel scans return
identical outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Iterable, Sequence

from repro.exceptions import InfeasibleProblemError
from repro.fba.assembly import LPAssembly, assemble_lp
from repro.fba.model import StoichiometricModel
from repro.runtime.parallel import parallel_map

__all__ = ["KnockoutOutcome", "single_deletions", "double_deletions", "coupled_designs"]


@dataclass(frozen=True)
class KnockoutOutcome:
    """Phenotype of one knockout mutant.

    Attributes
    ----------
    reactions:
        The deleted reaction identifiers.
    growth:
        Maximal growth rate of the mutant (0.0 when lethal or infeasible).
    production:
        Flux of the target reaction in the growth-optimal state (``None`` when
        no target was requested or the mutant is lethal).
    lethal:
        ``True`` when the mutant cannot grow (or cannot satisfy its fixed
        maintenance demands).
    """

    reactions: tuple[str, ...]
    growth: float
    production: float | None
    lethal: bool

    @property
    def label(self) -> str:
        """Human-readable knockout label (``"ΔPGK"`` style)."""
        return " ".join("d%s" % r for r in self.reactions)


def _evaluate_knockout(
    reactions: Sequence[str],
    assembly: LPAssembly,
    objective: str,
    target: str | None,
    growth_threshold: float,
) -> KnockoutOutcome:
    """Phenotype of one mutant: a bounds override on the shared assembly."""
    lower, upper = assembly.knockout_bounds(tuple(reactions))
    objective_vector = assembly.objective_vector({objective: 1.0})
    try:
        solution = assembly.solve(
            objective_vector, maximize=True, lower=lower, upper=upper
        )
    except InfeasibleProblemError:
        return KnockoutOutcome(tuple(reactions), 0.0, None, True)
    growth = float(solution.objective_value)
    lethal = growth < growth_threshold
    production = None
    if target is not None and not lethal:
        production = float(solution[target])
    return KnockoutOutcome(tuple(reactions), growth, production, lethal)


def single_deletions(
    model: StoichiometricModel,
    reactions: Iterable[str] | None = None,
    objective: str | None = None,
    target: str | None = None,
    growth_threshold: float = 1e-6,
    n_workers: int = 1,
) -> list[KnockoutOutcome]:
    """Knock out each reaction in turn and report the mutant phenotypes.

    Parameters
    ----------
    model:
        The constraint-based model (not modified).
    reactions:
        Candidate deletions; defaults to every non-exchange reaction.
    objective:
        Growth reaction; defaults to ``model.objective``.
    target:
        Optional production flux to report at the mutant's growth optimum.
    growth_threshold:
        Growth below this value classifies the deletion as lethal.
    n_workers:
        Worker processes for the per-mutant LPs; serial when 1.  Both paths
        return identical outcomes.
    """
    objective = objective or model.objective
    if objective is None:
        raise InfeasibleProblemError("no growth objective selected")
    candidates = list(reactions) if reactions is not None else [
        r.identifier for r in model.reactions if not r.is_exchange and r.identifier != objective
    ]
    assembly = assemble_lp(model)
    job = partial(
        _evaluate_knockout,
        assembly=assembly,
        objective=objective,
        target=target,
        growth_threshold=growth_threshold,
    )
    return parallel_map(job, [[identifier] for identifier in candidates], n_workers=n_workers)


def double_deletions(
    model: StoichiometricModel,
    reactions: Sequence[str],
    objective: str | None = None,
    target: str | None = None,
    growth_threshold: float = 1e-6,
    n_workers: int = 1,
) -> list[KnockoutOutcome]:
    """Exhaustive pairwise deletions over the supplied candidate reactions."""
    objective = objective or model.objective
    if objective is None:
        raise InfeasibleProblemError("no growth objective selected")
    assembly = assemble_lp(model)
    job = partial(
        _evaluate_knockout,
        assembly=assembly,
        objective=objective,
        target=target,
        growth_threshold=growth_threshold,
    )
    return parallel_map(
        job, [list(pair) for pair in combinations(reactions, 2)], n_workers=n_workers
    )


def coupled_designs(
    outcomes: Iterable[KnockoutOutcome],
    baseline_production: float,
    minimum_growth: float,
) -> list[KnockoutOutcome]:
    """Filter knockouts that increase production while keeping viable growth.

    This is the acceptance criterion of OptKnock-style strain design: the
    deletion must leave the organism able to grow (``growth >=
    minimum_growth``) and must raise the target production above the
    wild-type ``baseline_production``.
    """
    selected = [
        outcome
        for outcome in outcomes
        if not outcome.lethal
        and outcome.growth >= minimum_growth
        and outcome.production is not None
        and outcome.production > baseline_production
    ]
    return sorted(selected, key=lambda o: o.production or 0.0, reverse=True)
