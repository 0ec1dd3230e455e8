"""Time-course and steady-state simulation of kinetic networks.

The simulator wraps :func:`scipy.integrate.solve_ivp` with the conventions the
photosynthesis model needs: stiff-friendly default method (LSODA), optional
steady-state detection based on the norm of the derivative, and flux read-out
at the final state.  ``solve_ivp`` is imported by the two methods that call
it, so building a network or evaluating its right-hand side never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ConvergenceError, EvaluationError
from tests.oracles.ode.network import KineticNetwork

__all__ = ["SimulationResult", "KineticSimulator"]


@dataclass
class SimulationResult:
    """Outcome of a kinetic simulation.

    Attributes
    ----------
    times:
        Time points of the stored trajectory.
    concentrations:
        Matrix of shape ``(len(times), n_dynamic_metabolites)``.
    metabolite_ids:
        Column labels of ``concentrations``.
    fluxes:
        Reaction fluxes evaluated at the final state.
    steady_state:
        ``True`` when the steady-state criterion was met before the time
        horizon ran out.
    derivative_norm:
        Max-norm of the concentration derivative at the final state.
    """

    times: np.ndarray
    concentrations: np.ndarray
    metabolite_ids: list[str]
    fluxes: dict[str, float]
    steady_state: bool
    derivative_norm: float
    info: dict = field(default_factory=dict)

    def final_concentrations(self) -> dict[str, float]:
        """Concentrations of the dynamic metabolites at the final time point."""
        return dict(zip(self.metabolite_ids, self.concentrations[-1]))

    def trajectory(self, metabolite_id: str) -> np.ndarray:
        """Concentration time-course of one metabolite."""
        index = self.metabolite_ids.index(metabolite_id)
        return self.concentrations[:, index]


class KineticSimulator:
    """Integrates a :class:`~tests.oracles.ode.network.KineticNetwork`.

    Parameters
    ----------
    network:
        The kinetic network to integrate.
    method:
        Any method accepted by :func:`scipy.integrate.solve_ivp`; LSODA copes
        well with the stiffness introduced by rapid-equilibrium reactions.
    rtol, atol:
        Integration tolerances.
    """

    def __init__(
        self,
        network: KineticNetwork,
        method: str = "LSODA",
        rtol: float = 1e-6,
        atol: float = 1e-9,
    ) -> None:
        network.validate()
        self.network = network
        self.method = method
        self.rtol = rtol
        self.atol = atol

    # ------------------------------------------------------------------
    def simulate(
        self,
        t_end: float,
        enzyme_scales: Mapping[str, float] | None = None,
        initial_state: np.ndarray | None = None,
        n_points: int = 200,
    ) -> SimulationResult:
        """Integrate the network for ``t_end`` seconds."""
        if t_end <= 0:
            raise EvaluationError("t_end must be positive")
        rhs = self.network.build_rhs(enzyme_scales)
        y0 = (
            np.asarray(initial_state, dtype=float)
            if initial_state is not None
            else self.network.initial_state()
        )
        from scipy.integrate import solve_ivp

        t_eval = np.linspace(0.0, t_end, max(2, n_points))
        solution = solve_ivp(
            rhs,
            (0.0, t_end),
            y0,
            method=self.method,
            rtol=self.rtol,
            atol=self.atol,
            t_eval=t_eval,
        )
        if not solution.success:
            raise EvaluationError(
                "ODE integration failed for %s: %s" % (self.network.name, solution.message)
            )
        return self._package(solution.t, solution.y.T, enzyme_scales, rhs)

    def simulate_ensemble(
        self,
        t_end: float,
        enzyme_scales: Sequence[Mapping[str, float] | None],
        initial_states: np.ndarray | None = None,
        n_points: int = 200,
    ) -> list[SimulationResult]:
        """Integrate one trajectory per enzyme-scale mapping of a population.

        Members integrate independently (coupling a population into one
        stacked ODE system would let the adaptive step-size controller of one
        member perturb every other member's trajectory), so each result is
        bitwise identical to the corresponding :meth:`simulate` call.

        Parameters
        ----------
        t_end:
            Time horizon shared by all members.
        enzyme_scales:
            One per-enzyme scale mapping per member (``None`` = unscaled).
        initial_states:
            Optional ``(P, n_dyn)`` matrix of per-member initial states; the
            network's initial state when omitted.
        n_points:
            Stored time points per trajectory.

        Sweep enzyme scalings across a population::

            scales = [{"rubisco": s} for s in (0.5, 1.0, 1.5)]
            results = simulator.simulate_ensemble(60.0, scales)
        """
        if initial_states is None:
            initial_states = [None] * len(enzyme_scales)
        else:
            initial_states = np.asarray(initial_states, dtype=float)
            if initial_states.ndim != 2 or initial_states.shape[0] != len(enzyme_scales):
                raise EvaluationError(
                    "initial_states must be (P, n_dyn) with one row per member"
                )
        return [
            self.simulate(t_end, enzyme_scales=scales, initial_state=state, n_points=n_points)
            for scales, state in zip(enzyme_scales, initial_states)
        ]

    def simulate_to_steady_state(
        self,
        enzyme_scales: Mapping[str, float] | None = None,
        initial_state: np.ndarray | None = None,
        t_max: float = 2000.0,
        t_block: float = 100.0,
        tolerance: float = 1e-6,
        raise_on_failure: bool = False,
    ) -> SimulationResult:
        """Integrate in blocks until the derivative norm falls below ``tolerance``.

        The derivative norm is normalized by the concentration scale so the
        criterion is insensitive to the absolute magnitude of the pools.  When
        the horizon ``t_max`` is exhausted the last state is returned with
        ``steady_state=False`` unless ``raise_on_failure`` is set.
        """
        from scipy.integrate import solve_ivp

        rhs = self.network.build_rhs(enzyme_scales)
        state = (
            np.asarray(initial_state, dtype=float)
            if initial_state is not None
            else self.network.initial_state()
        )
        elapsed = 0.0
        times = [0.0]
        states = [state.copy()]
        converged = False
        while elapsed < t_max:
            horizon = min(t_block, t_max - elapsed)
            solution = solve_ivp(
                rhs,
                (0.0, horizon),
                state,
                method=self.method,
                rtol=self.rtol,
                atol=self.atol,
            )
            if not solution.success:
                raise EvaluationError(
                    "ODE integration failed for %s: %s"
                    % (self.network.name, solution.message)
                )
            state = solution.y[:, -1]
            elapsed += horizon
            times.append(elapsed)
            states.append(state.copy())
            scale = np.maximum(np.abs(state), 1e-3)
            derivative_norm = float(np.max(np.abs(rhs(0.0, state)) / scale))
            if derivative_norm < tolerance:
                converged = True
                break
        if not converged and raise_on_failure:
            raise ConvergenceError(
                "no steady state within t_max=%.1f s (residual %.3g)"
                % (t_max, derivative_norm)
            )
        return self._package(
            np.asarray(times), np.vstack(states), enzyme_scales, rhs, steady=converged
        )

    # ------------------------------------------------------------------
    def _package(
        self,
        times: np.ndarray,
        states: np.ndarray,
        enzyme_scales: Mapping[str, float] | None,
        rhs,
        steady: bool | None = None,
    ) -> SimulationResult:
        final = states[-1]
        metabolite_ids = self.network.dynamic_metabolite_ids
        concentrations = dict(zip(metabolite_ids, np.maximum(final, 0.0)))
        for metabolite in self.network.metabolites:
            if metabolite.fixed:
                concentrations[metabolite.identifier] = metabolite.initial_concentration
        fluxes = self.network.fluxes(concentrations, enzyme_scales)
        scale = np.maximum(np.abs(final), 1e-3)
        derivative_norm = float(np.max(np.abs(rhs(0.0, final)) / scale))
        return SimulationResult(
            times=times,
            concentrations=states,
            metabolite_ids=metabolite_ids,
            fluxes=fluxes,
            steady_state=bool(steady) if steady is not None else derivative_norm < 1e-6,
            derivative_norm=derivative_norm,
        )
