"""repro.problems — the batch-first Problem API over a continuous decision box.

The problem layer is the product side of this library: the paper's core loop
is pareto-optimal *design* of biological systems, so problems are first-class
objects with three pillars:

* :mod:`~repro.problems.base` — the **batch-first contract**:
  :meth:`Problem.evaluate_matrix` maps an ``(n, n_var)`` decision matrix to
  a :class:`BatchEvaluation` of columnar objectives and constraint
  violations, over a box of named variables
  (:meth:`Problem.design_space` is its JSON form, recorded into run
  manifests);
* :mod:`~repro.problems.transforms` — composable wrappers (:class:`Noisy`,
  :class:`Normalized`, :class:`ObjectiveSubset`,
  :class:`ConstraintAsPenalty`, :class:`Throttled`, :class:`FailAfter`)
  that stack over any problem;
* :mod:`~repro.problems.registry` — the name-addressable
  :class:`ProblemSpec` registry with per-problem parameter schemas and
  query-style spec strings (``"zdt1?noise=0.01"``), consumed by
  ``repro solve`` and ``repro describe-problem``.

Example
-------
Build, transform and evaluate by name::

    >>> import numpy as np
    >>> from repro.problems import build_problem
    >>> problem = build_problem("zdt1?n_var=6&noise=0.01")
    >>> batch = problem.evaluate_matrix(np.zeros((4, 6)))
    >>> batch.F.shape, batch.n_con
    ((4, 2), 0)

See ``docs/problems.md`` for the full guide and the tables of entry points
removed in 2.0 and 12.0.
"""

from repro.problems.base import FunctionalProblem, Problem
from repro.problems.batch import BatchEvaluation
from repro.problems.registry import (
    TRANSFORM_PARAMETERS,
    ProblemSpec,
    apply_transforms,
    build_problem,
    describe_problem,
    get_problem,
    parse_problem_spec,
    problem_names,
    register_problem,
)
from repro.problems.transforms import (
    ConstraintAsPenalty,
    FailAfter,
    Noisy,
    Normalized,
    ObjectiveSubset,
    Throttled,
    ProblemTransform,
)

__all__ = [
    "Problem",
    "FunctionalProblem",
    "BatchEvaluation",
    "ProblemSpec",
    "TRANSFORM_PARAMETERS",
    "register_problem",
    "get_problem",
    "problem_names",
    "parse_problem_spec",
    "build_problem",
    "apply_transforms",
    "describe_problem",
    "ProblemTransform",
    "Noisy",
    "Normalized",
    "ObjectiveSubset",
    "ConstraintAsPenalty",
    "Throttled",
    "FailAfter",
]
