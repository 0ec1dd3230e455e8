"""Experiment registry: the canned paper experiments as first-class objects.

Every experiment of the evaluation section (the Table 1/2 comparisons, the
Figure 1-4 reproductions, the migration ablation) registers itself here with
a name, a description, a parameter schema and an artifact specification.  The
registry is what turns the library into a drivable tool: the command-line
interface (:mod:`repro.cli`), the benchmark harness and the artifact layer
(:mod:`repro.core.artifacts`) all consume :class:`Experiment` entries instead
of hand-calling the ``run_*`` functions.

Example
-------
List and run an experiment through the registry::

    >>> from repro.core.registry import get_experiment, experiment_names
    >>> "photosynthesis-table1" in experiment_names()
    True
    >>> experiment = get_experiment("photosynthesis-table1")
    >>> result = experiment.run(population=8, generations=2, seed=0)
    >>> sorted(result.rows)
    ['MOEA-D', 'PMO2']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.exceptions import ConfigurationError
from repro.naming import did_you_mean
from repro.params import Parameter, resolve_parameters

__all__ = [
    "Parameter",
    "Experiment",
    "ExperimentRegistry",
    "UnknownExperimentError",
    "REGISTRY",
    "get_experiment",
    "experiment_names",
]


class UnknownExperimentError(KeyError):
    """Raised on a registry lookup of a name that was never registered.

    A :class:`KeyError` subclass, so ``registry.get`` keeps dictionary
    semantics, while callers (the CLI) can distinguish a mistyped experiment
    name from a ``KeyError`` raised inside experiment code.
    """


@dataclass(frozen=True)
class Experiment:
    """A registered, runnable paper experiment with its artifact spec.

    Example
    -------
    >>> from repro.core.registry import get_experiment
    >>> experiment = get_experiment("migration-ablation")
    >>> experiment.reference
    'Sec. 2.1 ablation'
    >>> sorted(p.name for p in experiment.parameters)[:2]
    ['cache', 'generations']
    """

    #: Registry name (``photosynthesis-table1``, ``geobacter-figure4``, ...).
    name: str
    #: One-line title shown by ``repro list``.
    title: str
    #: Longer description shown by ``repro describe``.
    description: str
    #: Which table or figure of the paper the experiment regenerates.
    reference: str
    #: The underlying ``run_*`` function.
    function: Callable[..., Any]
    #: Parameter schema (name, type, default, help) accepted by :meth:`run`.
    parameters: tuple[Parameter, ...] = ()
    #: Extract the canonical front artifact from a result (``None`` = no front).
    front: Callable[[Any], dict | None] | None = None
    #: Extract the experiment-specific JSON payload from a result.
    payload: Callable[[Any], dict] | None = None
    #: Render a deterministic plain-text summary of a result.
    render: Callable[[Any], str] | None = None
    #: Whether the experiment honours ``checkpoint_dir`` (``repro resume``).
    supports_checkpoint: bool = False
    #: Artifact file names a recorded run of this experiment produces.
    artifact_names: tuple[str, ...] = field(
        default=("manifest.json", "front.json", "front.csv", "result.json")
    )

    # ------------------------------------------------------------------
    def parameter(self, name: str) -> Parameter:
        """Look up one schema parameter by name.

        Raises
        ------
        KeyError
            If the experiment has no parameter of that name.
        """
        for parameter in self.parameters:
            if parameter.name == name:
                return parameter
        raise KeyError("experiment %r has no parameter %r" % (self.name, name))

    def defaults(self) -> dict[str, Any]:
        """Schema defaults as a plain ``{name: value}`` dictionary."""
        return {parameter.name: parameter.default for parameter in self.parameters}

    def validate_parameters(self, overrides: dict[str, Any]) -> dict[str, Any]:
        """Merge ``overrides`` into the schema defaults, rejecting unknown names.

        Returns the full keyword-argument dictionary to call :attr:`function`
        with; values are coerced to their declared types.
        """
        return resolve_parameters(
            self.parameters, overrides, "experiment %r" % self.name
        )

    def run(self, **overrides: Any) -> Any:
        """Run the experiment with schema-validated parameters.

        Example
        -------
        >>> from repro.core.registry import get_experiment
        >>> result = get_experiment("migration-ablation").run(
        ...     population=8, generations=4, seed=0)
        >>> result.hypervolume_with_migration > 0.0
        True
        """
        return self.function(**self.validate_parameters(overrides))


class ExperimentRegistry:
    """Name-indexed collection of :class:`Experiment` entries.

    The module-level :data:`REGISTRY` instance is populated as a side effect
    of importing :mod:`repro.core.experiments`; use :func:`get_experiment` /
    :func:`experiment_names` to get that import for free.

    Example
    -------
    >>> registry = ExperimentRegistry()
    >>> _ = registry.register(Experiment(
    ...     name="demo", title="demo", description="", reference="",
    ...     function=lambda: None))
    >>> "demo" in registry
    True
    """

    def __init__(self) -> None:
        self._experiments: dict[str, Experiment] = {}

    def register(self, experiment: Experiment) -> Experiment:
        """Add one experiment; duplicate names are configuration errors."""
        if experiment.name in self._experiments:
            raise ConfigurationError(
                "experiment %r is already registered" % experiment.name
            )
        self._experiments[experiment.name] = experiment
        return experiment

    def get(self, name: str) -> Experiment:
        """Look up an experiment, with name suggestions on a miss."""
        try:
            return self._experiments[name]
        except KeyError:
            raise UnknownExperimentError(
                "unknown experiment %r%s (run `python -m repro list` for all names)"
                % (name, did_you_mean(name, self._experiments))
            ) from None

    def names(self) -> list[str]:
        """Sorted names of every registered experiment."""
        return sorted(self._experiments)

    def __contains__(self, name: object) -> bool:
        return name in self._experiments

    def __iter__(self) -> Iterator[Experiment]:
        return iter(self._experiments[name] for name in self.names())

    def __len__(self) -> int:
        return len(self._experiments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ExperimentRegistry(%s)" % ", ".join(self.names())


#: The process-wide registry the canned experiments register into.
REGISTRY = ExperimentRegistry()


def _ensure_populated() -> None:
    """Import the canned experiments so their registrations run."""
    import repro.core.experiments  # noqa: F401  (import-for-side-effect)


def get_experiment(name: str) -> Experiment:
    """Return one registered experiment, importing the canned set first.

    Example
    -------
    >>> get_experiment("photosynthesis-table2").supports_checkpoint
    True
    """
    _ensure_populated()
    return REGISTRY.get(name)


def experiment_names() -> list[str]:
    """Sorted names of every canned experiment.

    Example
    -------
    >>> "geobacter-figure4" in experiment_names()
    True
    """
    _ensure_populated()
    return REGISTRY.names()
