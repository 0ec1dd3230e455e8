"""Problem registry: every problem as a named, parameterized, buildable entry.

The registry is the problem-side counterpart of the solver registry
(:mod:`repro.solve.registry`) and the experiment registry
(:mod:`repro.core.registry`): each problem registers a :class:`ProblemSpec`
with its name, a parameter schema (reusing
:class:`repro.core.registry.Parameter`) and a factory.  Every consumer — the
``repro solve`` CLI, benchmarks, tests — builds problems by name instead of
hand-wiring constructors.

Spec strings
------------
:func:`build_problem` accepts *spec strings* with query-style parameters::

    build_problem("zdt1")                      # defaults
    build_problem("zdt1?n_var=10")             # problem parameter
    build_problem("zdt1?noise=0.01")           # Noisy transform
    build_problem("bnh?penalty=100&noise=0.1") # stacked transforms

Transform keys (``noise``, ``noise_seed``, ``normalized``, ``objectives``,
``penalty``, ``fail_after``, ``delay``) apply to **every**
registered problem; they wrap the built problem in the corresponding
:mod:`repro.problems.transforms` wrapper.  When several transform keys are
given, wrappers stack inner-to-outer as ``Normalized`` →
``ObjectiveSubset`` → ``ConstraintAsPenalty`` → ``Noisy`` →
``FailAfter`` → ``Throttled``.

Example
-------
>>> from repro.problems.registry import build_problem, problem_names
>>> "photosynthesis" in problem_names()
True
>>> build_problem("zdt1?noise=0.01").name
'Noisy(ZDT1)'
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.params import Parameter, resolve_parameters
from repro.exceptions import ConfigurationError
from repro.naming import did_you_mean
from repro.problems.base import Problem
from repro.problems.transforms import (
    ConstraintAsPenalty,
    FailAfter,
    Noisy,
    Normalized,
    ObjectiveSubset,
    Throttled,
)

__all__ = [
    "ProblemSpec",
    "TRANSFORM_PARAMETERS",
    "register_problem",
    "get_problem",
    "problem_names",
    "parse_problem_spec",
    "build_problem",
    "apply_transforms",
    "describe_problem",
]

#: Transform keys accepted by every problem spec (see module docstring).
TRANSFORM_PARAMETERS: tuple[Parameter, ...] = (
    Parameter("noise", float, None, "Gaussian objective-noise sigma (Noisy)"),
    Parameter("noise_seed", int, 0, "seed of the deterministic noise stream"),
    Parameter("normalized", bool, False, "optimize over the unit box (Normalized)"),
    Parameter(
        "objectives", str, None, "comma-separated objective indices to keep (ObjectiveSubset)"
    ),
    Parameter(
        "penalty", float, None, "fold constraints into objectives with this weight"
    ),
    Parameter(
        "fail_after", int, None, "raise after this many evaluations (FailAfter)"
    ),
    Parameter("delay", float, None, "seconds of sleep per evaluated design (Throttled)"),
)

_TRANSFORM_KEYS = {parameter.name: parameter for parameter in TRANSFORM_PARAMETERS}

@dataclass(frozen=True)
class ProblemSpec:
    """One registered problem: name, parameter schema and factory.

    Attributes
    ----------
    name:
        Registry name (``"zdt1"``, ``"photosynthesis"``, ...).
    title:
        One-line human-readable description.
    factory:
        Keyword-argument constructor returning a built
        :class:`~repro.problems.base.Problem`.
    description:
        Longer description shown by ``repro describe-problem``.
    parameters:
        Schema of the factory's keyword arguments.
    """

    name: str
    title: str
    factory: Callable[..., Problem]
    description: str = ""
    parameters: tuple[Parameter, ...] = ()

    def defaults(self) -> dict[str, Any]:
        """Schema defaults as a plain ``{name: value}`` dictionary."""
        return {parameter.name: parameter.default for parameter in self.parameters}

    def build(self, **overrides: Any) -> Problem:
        """Build the problem with schema-validated parameter overrides.

        Example
        -------
        >>> get_problem("zdt1").build(n_var=5).n_var
        5
        """
        merged = resolve_parameters(self.parameters, overrides, "problem %r" % self.name)
        problem = self.factory(**merged)
        if getattr(problem, "spec", None) is None:
            # Canonical spec string — registry name plus *every* resolved
            # parameter (defaults expanded, values coerced), sorted by key —
            # so equal tasks get equal identity strings no matter how the
            # caller spelled them.  Content-addressed caches key on it.
            problem.spec = _canonical_spec(self.name, merged)
        return problem


def _canonical_spec(name: str, params: dict[str, Any]) -> str:
    """Render a registry name plus resolved params as a canonical spec string."""
    if not params:
        return name
    rendered = "&".join(
        "%s=%s" % (key, json.dumps(params[key], sort_keys=True))
        for key in sorted(params)
    )
    return "%s?%s" % (name, rendered)


_PROBLEMS: dict[str, ProblemSpec] = {}


def _ensure_builtins() -> None:
    """Import the built-in problem registrations exactly once."""
    import repro.problems.builtins  # noqa: F401  (import-for-side-effect)


def register_problem(spec: ProblemSpec) -> ProblemSpec:
    """Add one problem spec to the registry; duplicate names are errors."""
    if spec.name in _PROBLEMS:
        raise ConfigurationError("problem %r is already registered" % spec.name)
    _PROBLEMS[spec.name] = spec
    return spec


def get_problem(name: str) -> ProblemSpec:
    """Look up one registered problem, with name suggestions on a miss.

    Example
    -------
    >>> get_problem("geobacter").title
    'Geobacter flux design (electron vs biomass production)'
    """
    _ensure_builtins()
    try:
        return _PROBLEMS[name]
    except KeyError:
        raise ConfigurationError(
            "unknown problem %r%s (available: %s)"
            % (name, did_you_mean(name, _PROBLEMS), ", ".join(sorted(_PROBLEMS)))
        ) from None


def problem_names() -> list[str]:
    """Sorted names of every problem buildable by name.

    Example
    -------
    >>> "zdt1" in problem_names()
    True
    """
    _ensure_builtins()
    return sorted(_PROBLEMS)


def parse_problem_spec(spec: str) -> tuple[str, dict[str, str]]:
    """Split a spec string into its registry name and raw parameter strings.

    Example
    -------
    >>> parse_problem_spec("zdt1?noise=0.01&n_var=10")
    ('zdt1', {'noise': '0.01', 'n_var': '10'})
    """
    name, _, query = spec.partition("?")
    if not name:
        raise ConfigurationError("empty problem name in spec %r" % spec)
    params: dict[str, str] = {}
    for item in query.split("&") if query else ():
        if not item:
            continue
        key, separator, value = item.partition("=")
        if not key:
            raise ConfigurationError("malformed parameter %r in spec %r" % (item, spec))
        # A bare key (`zdt1?normalized`) reads as a switched-on boolean.
        params[key] = value if separator else "true"
    return name, params


def _spec_value(text: str) -> Any:
    """One spec-string value; the JSON ``null`` and quoted strings of canonical specs decode.

    Canonical spec strings render every value as JSON, so a problem's
    ``spec`` builds the same problem again.
    """
    if text == "null":
        return None
    if len(text) >= 2 and text[0] == text[-1] == '"':
        try:
            return json.loads(text)
        except ValueError:
            pass
    return text


def apply_transforms(problem: Problem, params: dict[str, Any]) -> Problem:
    """Wrap ``problem`` in the transforms selected by coerced transform params.

    Wrappers stack inner-to-outer in the documented canonical order, so a
    spec string always produces the same composition regardless of key
    order.
    """
    if "noise_seed" in params and params.get("noise") is None:
        raise ConfigurationError(
            "noise_seed selects the stream of the Noisy transform and does "
            "nothing alone; add noise=<sigma> to the spec"
        )
    if params.get("normalized"):
        problem = Normalized(problem)
    if params.get("objectives") is not None:
        try:
            indices = [int(part) for part in str(params["objectives"]).split(",") if part]
        except ValueError:
            raise ConfigurationError(
                "objectives must be comma-separated indices, got %r"
                % params["objectives"]
            ) from None
        problem = ObjectiveSubset(problem, indices)
    if params.get("penalty") is not None:
        problem = ConstraintAsPenalty(problem, rho=params["penalty"])
    if params.get("noise") is not None:
        problem = Noisy(
            problem, sigma=params["noise"], seed=params.get("noise_seed") or 0
        )
    if params.get("fail_after") is not None:
        problem = FailAfter(problem, max_evaluations=params["fail_after"])
    if params.get("delay") is not None:
        problem = Throttled(problem, delay=params["delay"])
    return problem


def build_problem(spec: str, **overrides: Any) -> Problem:
    """Build one problem from a spec string plus keyword overrides.

    Keyword overrides win over spec-string parameters of the same name.
    Transform keys (see :data:`TRANSFORM_PARAMETERS`) are split off and
    applied as wrappers; everything else must match the problem's schema.

    Example
    -------
    >>> build_problem("zdt1").n_obj
    2
    >>> build_problem("zdt1?normalized=1&noise=0.05").name
    'Noisy(Normalized(ZDT1))'
    """
    name, raw = parse_problem_spec(spec)
    problem_spec = get_problem(name)
    merged: dict[str, Any] = {key: _spec_value(value) for key, value in raw.items()}
    merged.update(overrides)
    transform_params: dict[str, Any] = {}
    problem_params: dict[str, Any] = {}
    schema = {parameter.name for parameter in problem_spec.parameters}
    for key, value in merged.items():
        # Schema names shadow transform keys, so a problem with its own
        # `noise` parameter keeps it addressable.
        if key in schema:
            problem_params[key] = value
        elif key in _TRANSFORM_KEYS:
            transform_params[key] = _TRANSFORM_KEYS[key].coerce(value)
        else:
            choices = sorted(schema | set(_TRANSFORM_KEYS))
            raise ConfigurationError(
                "unknown parameter %r for problem %r%s (known: %s)"
                % (key, name, did_you_mean(key, choices), ", ".join(choices))
            )
    problem = problem_spec.build(**problem_params)
    return apply_transforms(problem, transform_params)


def describe_problem(spec: str) -> dict[str, Any]:
    """Build one problem and return its full declarative description.

    The payload powers ``repro describe-problem``: registry metadata, the
    parameter schema, the transform keys, the design space and the
    objective table of the *built* instance (spec-string parameters apply).

    Example
    -------
    >>> describe_problem("schaffer")["objectives"][0]["sense"]
    'min'
    """
    name, _ = parse_problem_spec(spec)
    problem_spec = get_problem(name)
    problem = build_problem(spec)
    return {
        "name": problem_spec.name,
        "spec": spec,
        "title": problem_spec.title,
        "description": problem_spec.description,
        "problem": problem.name,
        "n_var": problem.n_var,
        "n_obj": problem.n_obj,
        "objectives": [
            {"name": objective_name, "sense": "max" if sense < 0 else "min"}
            for objective_name, sense in zip(
                problem.objective_names, problem.objective_senses
            )
        ],
        "space": problem.design_space(),
        "parameters": [
            {
                "name": parameter.name,
                "type": parameter.type.__name__,
                "default": parameter.default,
                "help": parameter.help,
            }
            for parameter in problem_spec.parameters
        ],
        "transforms": [
            {
                "name": parameter.name,
                "type": parameter.type.__name__,
                "default": parameter.default,
                "help": parameter.help,
            }
            for parameter in TRANSFORM_PARAMETERS
        ],
    }
