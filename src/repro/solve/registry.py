"""Solver registry: every optimization engine as a named, buildable entry.

The registry is the solver-side counterpart of the experiment registry
(:mod:`repro.core.registry`): each engine registers a :class:`SolverSpec`
with its name, configuration class and a factory, and every consumer — the
generic :func:`repro.solve.solve` driver, the ``repro solve`` CLI command,
benchmarks — resolves engines by name instead of hand-wiring constructors.

Example
-------
>>> from repro.solve.registry import get_solver, solver_names
>>> solver_names()
['moead', 'nsga2', 'pmo2']
>>> get_solver("nsga2").config_cls.__name__
'NSGA2Config'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import ConfigurationError
from repro.naming import did_you_mean
from repro.moo.moead import MOEAD, MOEADConfig
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.pmo2 import PMO2Config, build_pmo2

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.problems.base import Problem
    from repro.runtime.evaluator import Evaluator

__all__ = [
    "SolverSpec",
    "UnknownSolverError",
    "register_solver",
    "get_solver",
    "solver_names",
]


class UnknownSolverError(KeyError):
    """Raised on a lookup of a solver name that was never registered.

    A :class:`KeyError` subclass so callers keep dictionary semantics while
    the CLI can distinguish a mistyped algorithm name from a ``KeyError``
    raised inside solver code.
    """


@dataclass(frozen=True)
class SolverSpec:
    """One registered solver: name, configuration schema and factory.

    Attributes
    ----------
    name:
        Registry name (``"nsga2"``, ``"moead"``, ``"pmo2"``); :func:`repro.solve.solve`
        stamps it on the result as ``result.algorithm``.
    title:
        One-line human-readable description.
    config_cls:
        The solver's configuration dataclass; keyword overrides passed to
        :meth:`build` are forwarded to it.
    factory:
        ``(problem, config, seed, evaluator) -> solver`` constructor returning
        an object satisfying the :class:`repro.solve.Solver` protocol.
    """

    name: str
    title: str
    config_cls: type
    factory: "Callable[[Problem, Any, int | None, Evaluator | None], Any]"

    def build(
        self,
        problem: "Problem",
        config: Any | None = None,
        seed: int | None = None,
        evaluator: "Evaluator | None" = None,
        **overrides: Any,
    ) -> Any:
        """Construct the solver for ``problem``.

        ``config`` and keyword ``overrides`` are mutually exclusive: pass a
        ready configuration object, or field overrides that are forwarded to
        :attr:`config_cls`.

        Example
        -------
        >>> from repro.moo.testproblems import Schaffer
        >>> engine = get_solver("nsga2").build(Schaffer(), population_size=8, seed=0)
        >>> type(engine).__name__
        'NSGA2'
        """
        if config is not None and overrides:
            raise ConfigurationError(
                "pass either a config object or keyword overrides, not both "
                "(got config=%r and %s)" % (config, ", ".join(sorted(overrides)))
            )
        if config is None:
            unknown = sorted(
                name
                for name in overrides
                if name not in self.config_cls.__dataclass_fields__
            )
            if unknown:
                raise ConfigurationError(
                    "unknown %s field(s): %s (known: %s)"
                    % (
                        self.config_cls.__name__,
                        ", ".join(unknown),
                        ", ".join(sorted(self.config_cls.__dataclass_fields__)),
                    )
                )
            config = self.config_cls(**overrides)
        return self.factory(problem, config, seed, evaluator)

    def population_overrides(self, population: int | None) -> dict:
        """Map a generic population knob onto this solver's config field.

        Island solvers size each island (``island_population_size``); the
        others size their one population (``population_size``).  ``None``
        keeps the configuration default.

        >>> get_solver("pmo2").population_overrides(16)
        {'island_population_size': 16}
        """
        if population is None:
            return {}
        fields = self.config_cls.__dataclass_fields__
        name = "population_size" if "population_size" in fields else "island_population_size"
        return {name: population}


_SOLVERS: dict[str, SolverSpec] = {}


def register_solver(spec: SolverSpec) -> SolverSpec:
    """Add one solver spec to the registry; duplicate names are errors."""
    if spec.name in _SOLVERS:
        raise ConfigurationError("solver %r is already registered" % spec.name)
    _SOLVERS[spec.name] = spec
    return spec


def get_solver(name: str) -> SolverSpec:
    """Look up one registered solver, with name suggestions on a miss.

    Example
    -------
    >>> get_solver("pmo2").title
    "PMO2 archipelago (the paper's algorithm)"
    """
    try:
        return _SOLVERS[name]
    except KeyError:
        raise UnknownSolverError(
            "unknown solver %r%s (available: %s)"
            % (name, did_you_mean(name, _SOLVERS), ", ".join(sorted(_SOLVERS)))
        ) from None


def solver_names() -> list[str]:
    """Sorted names of every registered solver."""
    return sorted(_SOLVERS)


# ---------------------------------------------------------------------------
# Built-in engines
# ---------------------------------------------------------------------------
register_solver(
    SolverSpec(
        name="nsga2",
        title="NSGA-II (single population, constraint-dominated)",
        config_cls=NSGA2Config,
        factory=lambda problem, config, seed, evaluator: NSGA2(
            problem, config=config, seed=seed, evaluator=evaluator
        ),
    )
)

register_solver(
    SolverSpec(
        name="moead",
        title="MOEA/D (Tchebycheff decomposition, the Table 1 baseline)",
        config_cls=MOEADConfig,
        factory=lambda problem, config, seed, evaluator: MOEAD(
            problem, config=config, seed=seed, evaluator=evaluator
        ),
    )
)

register_solver(
    SolverSpec(
        name="pmo2",
        title="PMO2 archipelago (the paper's algorithm)",
        config_cls=PMO2Config,
        factory=build_pmo2,
    )
)
