"""The columnar evaluation container: the return type of the Problem contract.

:class:`BatchEvaluation` is what :meth:`repro.problems.Problem.evaluate_matrix`
returns: an ``(n, n_obj)`` objective matrix ``F``, an ``(n, n_con)``
constraint-violation matrix ``G`` (zero-width for unconstrained problems).
A problem's evaluation is exactly these two matrices.  The evaluators in
:mod:`repro.runtime` move these containers between processes, and
:class:`~repro.moo.individual.Population` consumes their columns directly.

A problem whose physics is inherently per-design (one ODE solve per
candidate) loops its rows inside ``_evaluate_matrix`` and stacks them into
one batch; see :mod:`repro.problems.base`.

Example
-------
Columns in, columns out::

    >>> import numpy as np
    >>> batch = BatchEvaluation(F=np.array([[1.0, 2.0], [3.0, 4.0]]))
    >>> len(batch), batch.n_obj, batch.n_con
    (2, 2, 0)
    >>> batch.F[1]
    array([3., 4.])
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import ConfigurationError, DimensionError

__all__ = ["BatchEvaluation"]


class BatchEvaluation:
    """Evaluation of a whole ``(n, n_var)`` decision matrix, kept columnar.

    Parameters
    ----------
    F:
        ``(n, n_obj)`` matrix of minimized objective vectors.
    G:
        Optional ``(n, n_con)`` matrix of constraint violations (``> 0``
        violates); ``None`` means unconstrained (a zero-width matrix).

    Example
    -------
    >>> import numpy as np
    >>> batch = BatchEvaluation(
    ...     F=np.array([[1.0], [2.0]]), G=np.array([[0.0], [0.5]]))
    >>> batch.total_violations
    array([0. , 0.5])
    >>> batch.feasible
    array([ True, False])
    """

    __slots__ = ("F", "G")

    def __init__(self, F: np.ndarray, G: np.ndarray | None = None) -> None:
        F = np.asarray(F, dtype=float)
        if F.ndim != 2:
            raise DimensionError("F must be an (n, n_obj) matrix, got %r" % (F.shape,))
        if G is None:
            G = np.empty((F.shape[0], 0))
        else:
            G = np.asarray(G, dtype=float)
            if G.ndim == 1:
                G = G.reshape(-1, 1)
            if G.ndim != 2 or G.shape[0] != F.shape[0]:
                raise DimensionError(
                    "G must be an (n, n_con) matrix matching F's %d rows, got %r"
                    % (F.shape[0], G.shape)
                )
        self.F = F
        self.G = G

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.F.shape[0])

    @property
    def n_obj(self) -> int:
        """Number of objectives (columns of ``F``)."""
        return int(self.F.shape[1])

    @property
    def n_con(self) -> int:
        """Number of constraints (columns of ``G``; 0 when unconstrained)."""
        return int(self.G.shape[1])

    @property
    def total_violations(self) -> np.ndarray:
        """Per-row sum of positive constraint violations (``(n,)`` vector)."""
        if self.G.shape[1] == 0:
            return np.zeros(len(self))
        return np.sum(np.clip(self.G, 0.0, None), axis=1)

    @property
    def feasible(self) -> np.ndarray:
        """Boolean mask of rows with zero aggregate violation."""
        return self.total_violations == 0.0

    @classmethod
    def empty(cls, n_obj: int, n_con: int = 0) -> "BatchEvaluation":
        """A zero-row batch with the given column widths."""
        return cls(F=np.empty((0, n_obj)), G=np.empty((0, n_con)))

    @classmethod
    def concat(cls, batches: Iterable["BatchEvaluation"]) -> "BatchEvaluation":
        """Concatenate batches row-wise (the pool evaluator's reduce step).

        Example
        -------
        >>> import numpy as np
        >>> a = BatchEvaluation(F=np.array([[1.0]]))
        >>> b = BatchEvaluation(F=np.array([[2.0]]))
        >>> len(BatchEvaluation.concat([a, b]))
        2
        """
        batches = list(batches)
        if not batches:
            raise ConfigurationError("cannot concatenate zero batches")
        if len(batches) == 1:
            return batches[0]
        return cls(
            F=np.vstack([batch.F for batch in batches]),
            G=np.vstack([batch.G for batch in batches]),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "BatchEvaluation(n=%d, n_obj=%d, n_con=%d)" % (
            len(self),
            self.n_obj,
            self.n_con,
        )
