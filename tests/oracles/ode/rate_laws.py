"""Rate laws for kinetic network models.

The C3 carbon-metabolism model of the paper (after Zhu, de Sturler & Long
2007) classifies reactions into equilibrium reactions and non-equilibrium
reactions obeying Michaelis-Menten kinetics "modified as necessary for the
presence of inhibitors or activators".  This module provides exactly that
vocabulary:

* :class:`MassAction` — elementary reversible mass-action kinetics,
* :class:`MichaelisMenten` — irreversible single-substrate MM with optional
  competitive inhibitors and hyperbolic activators,
* :class:`MultiSubstrateMichaelisMenten` — irreversible multi-substrate MM,
* :class:`ReversibleMichaelisMenten` — reversible MM parameterized by an
  equilibrium constant,
* :class:`RapidEquilibrium` — a stiff reversible law that keeps a pair of
  pools near a fixed concentration ratio (the paper's "equilibrium
  reactions"),
* :class:`ConstantFlux` — clamped boundary fluxes (e.g. triose-P export).

Every rate law is a callable ``rate(concentrations, vmax)`` where
``concentrations`` is a mapping of metabolite identifier to concentration and
``vmax`` the maximal velocity contributed by the catalysing enzyme.  Rate laws
are deliberately written with plain ``float`` arithmetic: the ODE right-hand
side is evaluated hundreds of thousands of times per parameter sweep and scalar
math is significantly faster than 0-d numpy operations.

Each law additionally implements ``rate_batch(concentrations, vmax)``, the
columnwise form over a *population* of parameter vectors: every concentration
is a ``(P,)`` column (one entry per population member) and ``vmax`` a ``(P,)``
vector of per-member maximal velocities.  The batched forms replicate the
scalar arithmetic operation for operation — early ``return 0.0`` branches
become ``np.where`` masks over expressions whose denominators stay positive
for the floored concentrations the network feeds in — so each column entry is
bitwise identical to the scalar call (asserted by
``tests/kinetics/test_ode_equivalence.py``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "RateLaw",
    "MassAction",
    "MichaelisMenten",
    "MultiSubstrateMichaelisMenten",
    "ReversibleMichaelisMenten",
    "RapidEquilibrium",
    "ConstantFlux",
]


class RateLaw(abc.ABC):
    """Base class of every rate law."""

    @abc.abstractmethod
    def rate(self, concentrations: Mapping[str, float], vmax: float) -> float:
        """Instantaneous reaction rate given concentrations and a Vmax."""

    def rate_batch(
        self, concentrations: Mapping[str, np.ndarray], vmax: np.ndarray
    ) -> np.ndarray:
        """Columnwise rate over a population: ``(P,)`` columns in, ``(P,)`` out.

        The base implementation loops the scalar :meth:`rate` per member,
        which keeps third-party laws correct without a vectorized form; the
        built-in laws override it with true columnwise arithmetic that
        reproduces the scalar results bitwise.
        """
        vmax = np.asarray(vmax, dtype=float)
        species = self.required_species()
        return np.array(
            [
                self.rate(
                    {name: float(concentrations[name][member]) for name in species},
                    float(vmax[member]),
                )
                for member in range(vmax.size)
            ]
        )

    def required_species(self) -> list[str]:
        """Metabolite identifiers the law reads (for model validation)."""
        return []


@dataclass
class MassAction(RateLaw):
    """Reversible elementary mass action: ``k_f * prod(S) - k_r * prod(P)``.

    ``vmax`` scales the forward constant so that enzyme abundance still
    modulates the reaction when mass action is used for catalysed steps.
    """

    substrates: Sequence[str]
    products: Sequence[str] = ()
    forward_constant: float = 1.0
    reverse_constant: float = 0.0

    def rate(self, concentrations: Mapping[str, float], vmax: float) -> float:
        forward = self.forward_constant * vmax
        for species in self.substrates:
            forward *= concentrations[species]
        reverse = self.reverse_constant * vmax
        if reverse:
            for species in self.products:
                reverse *= concentrations[species]
        else:
            reverse = 0.0
        return forward - reverse

    def rate_batch(
        self, concentrations: Mapping[str, np.ndarray], vmax: np.ndarray
    ) -> np.ndarray:
        forward = self.forward_constant * vmax
        for species in self.substrates:
            forward = forward * concentrations[species]
        # The scalar law skips the product term whenever k_r * vmax is zero;
        # with k_r == 0 the whole column is zero, and with k_r > 0 a member
        # whose vmax is zero contributes 0 * prod(P) == 0.0 either way.
        if self.reverse_constant:
            reverse = self.reverse_constant * vmax
            for species in self.products:
                reverse = reverse * concentrations[species]
            return forward - reverse
        return forward - 0.0

    def required_species(self) -> list[str]:
        return list(self.substrates) + list(self.products)


@dataclass
class MichaelisMenten(RateLaw):
    """Irreversible Michaelis-Menten with optional inhibitors and activators.

    rate = vmax * S / (Km * (1 + sum_i I_i / Ki_i) + S) * act

    where the activation factor ``act`` is the product of hyperbolic terms
    ``A / (A + Ka)`` over the activators.
    """

    substrate: str
    km: float
    inhibitors: dict[str, float] = field(default_factory=dict)
    activators: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.km <= 0:
            raise ConfigurationError("Km must be positive for %s" % self.substrate)
        for name, constant in {**self.inhibitors, **self.activators}.items():
            if constant <= 0:
                raise ConfigurationError(
                    "inhibition/activation constant of %s must be positive" % name
                )

    def rate(self, concentrations: Mapping[str, float], vmax: float) -> float:
        substrate = concentrations[self.substrate]
        if substrate <= 0.0:
            return 0.0
        inhibition = 1.0
        for species, ki in self.inhibitors.items():
            inhibition += concentrations[species] / ki
        value = vmax * substrate / (self.km * inhibition + substrate)
        for species, ka in self.activators.items():
            activator = concentrations[species]
            value *= activator / (activator + ka)
        return value

    def rate_batch(
        self, concentrations: Mapping[str, np.ndarray], vmax: np.ndarray
    ) -> np.ndarray:
        substrate = concentrations[self.substrate]
        inhibition = 1.0
        for species, ki in self.inhibitors.items():
            inhibition = inhibition + concentrations[species] / ki
        # Denominator stays positive for floored concentrations (km > 0,
        # inhibition >= 1), so members the scalar law short-circuits to zero
        # evaluate to an exact 0.0 here before the mask reasserts it.
        value = vmax * substrate / (self.km * inhibition + substrate)
        for species, ka in self.activators.items():
            activator = concentrations[species]
            value = value * (activator / (activator + ka))
        return np.where(substrate <= 0.0, 0.0, value)

    def required_species(self) -> list[str]:
        return [self.substrate] + list(self.inhibitors) + list(self.activators)


@dataclass
class MultiSubstrateMichaelisMenten(RateLaw):
    """Irreversible Michaelis-Menten over several substrates.

    rate = vmax * prod_s [ S / (Km_s + S) ] * (1 / (1 + sum_i I_i / Ki_i))
    """

    substrates: dict[str, float] = field(default_factory=dict)
    inhibitors: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.substrates:
            raise ConfigurationError("at least one substrate is required")
        for name, km in self.substrates.items():
            if km <= 0:
                raise ConfigurationError("Km of %s must be positive" % name)

    def rate(self, concentrations: Mapping[str, float], vmax: float) -> float:
        value = vmax
        for species, km in self.substrates.items():
            concentration = concentrations[species]
            if concentration <= 0.0:
                return 0.0
            value *= concentration / (km + concentration)
        if self.inhibitors:
            inhibition = 1.0
            for species, ki in self.inhibitors.items():
                inhibition += concentrations[species] / ki
            value /= inhibition
        return value

    def rate_batch(
        self, concentrations: Mapping[str, np.ndarray], vmax: np.ndarray
    ) -> np.ndarray:
        value = np.asarray(vmax, dtype=float)
        depleted = np.zeros(value.shape, dtype=bool)
        for species, km in self.substrates.items():
            concentration = concentrations[species]
            depleted |= concentration <= 0.0
            # A depleted member multiplies in 0 / (km + 0) == 0.0, matching
            # the scalar early return once the mask reasserts the zero.
            value = value * (concentration / (km + concentration))
        if self.inhibitors:
            inhibition = 1.0
            for species, ki in self.inhibitors.items():
                inhibition = inhibition + concentrations[species] / ki
            value = value / inhibition
        return np.where(depleted, 0.0, value)

    def required_species(self) -> list[str]:
        return list(self.substrates) + list(self.inhibitors)


@dataclass
class ReversibleMichaelisMenten(RateLaw):
    """Reversible Michaelis-Menten parameterized with an equilibrium constant.

    rate = vmax * (S - P / Keq) / (Km_s + S + (Km_s / Km_p) * P)
    """

    substrate: str
    product: str
    km_substrate: float
    km_product: float
    keq: float = 1.0

    def __post_init__(self) -> None:
        if min(self.km_substrate, self.km_product) <= 0:
            raise ConfigurationError("Michaelis constants must be positive")
        if self.keq <= 0:
            raise ConfigurationError("equilibrium constant must be positive")

    def rate(self, concentrations: Mapping[str, float], vmax: float) -> float:
        substrate = concentrations[self.substrate]
        product = concentrations[self.product]
        numerator = substrate - product / self.keq
        denominator = (
            self.km_substrate
            + substrate
            + (self.km_substrate / self.km_product) * product
        )
        if denominator <= 0.0:
            return 0.0
        return vmax * numerator / denominator

    def rate_batch(
        self, concentrations: Mapping[str, np.ndarray], vmax: np.ndarray
    ) -> np.ndarray:
        substrate = concentrations[self.substrate]
        product = concentrations[self.product]
        numerator = substrate - product / self.keq
        denominator = (
            self.km_substrate
            + substrate
            + (self.km_substrate / self.km_product) * product
        )
        # km_substrate > 0 keeps the denominator positive for floored
        # concentrations; the guard only fires on pathological inputs, where
        # the scalar law returns zero too.
        safe = np.where(denominator <= 0.0, 1.0, denominator)
        return np.where(denominator <= 0.0, 0.0, vmax * numerator / safe)

    def required_species(self) -> list[str]:
        return [self.substrate, self.product]


@dataclass
class RapidEquilibrium(RateLaw):
    """Fast reversible inter-conversion keeping two pools near equilibrium.

    The paper's "equilibrium reactions" (GAP/DHAP, the pentose-phosphate pool,
    the hexose-phosphate pool) are modelled as reversible first-order exchange
    with a large rate constant, which relaxes the pair towards the ratio
    ``product / substrate = keq`` on a time scale much faster than the
    surrounding chemistry without requiring a differential-algebraic solver.
    """

    substrate: str
    product: str
    keq: float = 1.0
    relaxation_rate: float = 500.0

    def __post_init__(self) -> None:
        if self.keq <= 0:
            raise ConfigurationError("equilibrium constant must be positive")
        if self.relaxation_rate <= 0:
            raise ConfigurationError("relaxation rate must be positive")

    def rate(self, concentrations: Mapping[str, float], vmax: float) -> float:
        # vmax is ignored on purpose: equilibration is not enzyme limited.
        substrate = concentrations[self.substrate]
        product = concentrations[self.product]
        return self.relaxation_rate * (substrate - product / self.keq)

    def rate_batch(
        self, concentrations: Mapping[str, np.ndarray], vmax: np.ndarray
    ) -> np.ndarray:
        substrate = concentrations[self.substrate]
        product = concentrations[self.product]
        return self.relaxation_rate * (substrate - product / self.keq)

    def required_species(self) -> list[str]:
        return [self.substrate, self.product]


@dataclass
class ConstantFlux(RateLaw):
    """A clamped flux, optionally saturating in one carrier species.

    Used for boundary processes such as the triose-phosphate export to the
    cytosol, whose maximum rate is an environmental condition of the paper
    (1 or 3 mmol l-1 s-1).
    """

    value: float
    carrier: str | None = None
    km: float = 0.1

    def rate(self, concentrations: Mapping[str, float], vmax: float) -> float:
        if self.carrier is None:
            return self.value
        concentration = concentrations[self.carrier]
        if concentration <= 0.0:
            return 0.0
        return self.value * concentration / (self.km + concentration)

    def rate_batch(
        self, concentrations: Mapping[str, np.ndarray], vmax: np.ndarray
    ) -> np.ndarray:
        if self.carrier is None:
            return np.full(np.asarray(vmax).shape, float(self.value))
        concentration = concentrations[self.carrier]
        # km > 0 keeps the denominator positive for floored concentrations.
        value = self.value * concentration / (self.km + concentration)
        return np.where(concentration <= 0.0, 0.0, value)

    def required_species(self) -> list[str]:
        return [self.carrier] if self.carrier is not None else []
