"""Enzyme-limited steady-state model of C3 carbon metabolism.

The optimizer needs tens of thousands of CO2-uptake evaluations per run; the
full kinetic ODE model (``tests/oracles/ode/calvin.py``) is accurate
but far too slow for that role.  This module provides the fast evaluator used
inside the optimization loop: a steady-state, capacity-based model in the
spirit of the Farquhar–von Caemmerer–Berry framework, extended so that *every
one of the 23 enzymes* of the design vector shapes the achievable uptake:

* **Rubisco-limited carboxylation** ``Wc`` follows the classical
  CO2/O2-competitive Michaelis-Menten form, scaled by the Rubisco activity.
* **RuBP regeneration** ``Wr`` is limited by the most constraining of the
  Calvin-cycle enzymes (PGA kinase, GAPDH, the two aldolases, FBPase,
  transketolase, SBPase, PRK), each converted to a per-CO2 capacity through
  its stoichiometric demand.
* **Electron-transport-limited regeneration** ``Wj`` uses the fixed
  whole-chain capacity of the environmental condition (the light reactions
  are outside the redesign, as in the paper's source model).
* **Triose-phosphate utilization** ``Wp`` is the sum of the export flux
  (capped by the condition's triose-P export rate), starch synthesis
  (ADPGPP-limited) and sucrose synthesis (limited by the cytosolic chain and
  modulated by F26BPase, which relieves the inhibition of cytosolic FBPase).
* **Photorespiratory recycling**: the oxygenation flux produced at the chosen
  carboxylation rate must be processed by the photorespiratory enzymes
  (PGCA phosphatase, GOA oxidase, GGAT, GDC, GSAT, HPR reductase, GCEA
  kinase); any shortfall drains carbon and phosphate and is charged against
  the net uptake.

The model returns net CO2 uptake in µmol m⁻² s⁻¹ on the leaf-area basis used
throughout the paper, and is calibrated (through the natural activities in
:mod:`repro.photosynthesis.enzymes`) so the natural leaf fixes
≈ 15.5 µmol m⁻² s⁻¹ under the "present, low export" condition while carrying
a large Rubisco over-capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DimensionError
from repro.photosynthesis.conditions import EnvironmentalCondition, PRESENT
from repro.photosynthesis.enzymes import ENZYMES, enzyme_index, natural_activities

__all__ = ["UptakeBreakdown", "EnzymeLimitedModel"]

# Indices of the enzyme groups in the 23-dimensional design vector.
_CALVIN_REGENERATION = [
    enzyme_index(key)
    for key in (
        "pga_kinase",
        "gapdh",
        "fbp_aldolase",
        "fbpase",
        "transketolase",
        "sbp_aldolase",
        "sbpase",
        "prk",
    )
]
_PHOTORESPIRATION = [
    enzyme_index(key)
    for key in (
        "pgca_phosphatase",
        "goa_oxidase",
        "ggat",
        "gdc",
        "gsat",
        "hpr_reductase",
        "gcea_kinase",
    )
]
_SUCROSE_CHAIN = [
    enzyme_index(key)
    for key in ("cytosolic_fbp_aldolase", "cytosolic_fbpase", "udpgp", "sps", "spp")
]
_RUBISCO = enzyme_index("rubisco")
_ADPGPP = enzyme_index("adpgpp")
_F26BPASE = enzyme_index("f26bpase")

_DEMANDS = np.array([enzyme.demand_per_co2 for enzyme in ENZYMES])


@dataclass
class UptakeBreakdown:
    """Detailed output of one uptake evaluation.

    All fluxes are in µmol m⁻² s⁻¹.  ``limiting_process`` names the capacity
    that actually set the gross carboxylation rate, which the reports use to
    explain which enzymes control a given design.
    """

    net_uptake: float
    gross_carboxylation: float
    oxygenation: float
    rubisco_capacity: float
    regeneration_capacity: float
    electron_transport_capacity: float
    triose_use_capacity: float
    photorespiration_capacity: float
    photorespiration_shortfall: float
    export_flux: float
    starch_flux: float
    sucrose_flux: float
    limiting_process: str


class EnzymeLimitedModel:
    """Fast steady-state CO2-uptake model over the 23-enzyme design vector.

    Parameters
    ----------
    condition:
        Environmental scenario (Ci, triose-P export rate, ...).  Defaults to
        the paper's "present, low export" condition.
    export_scale:
        Conversion from the condition's triose-P export rate (mmol l⁻¹ s⁻¹)
        to a leaf-area triose-P flux (µmol m⁻² s⁻¹ of triose phosphate).
    photorespiration_penalty:
        Net CO2 lost per unit of unprocessed oxygenation flux when the
        photorespiratory enzymes cannot keep up.
    """

    def __init__(
        self,
        condition: EnvironmentalCondition = PRESENT,
        export_scale: float = 2.55,
        photorespiration_penalty: float = 0.7,
    ) -> None:
        self.condition = condition
        self.export_scale = export_scale
        self.photorespiration_penalty = photorespiration_penalty
        self.n_enzymes = len(ENZYMES)

    # ------------------------------------------------------------------
    def _validate(self, activities: np.ndarray) -> np.ndarray:
        arr = np.asarray(activities, dtype=float)
        if arr.shape != (self.n_enzymes,):
            raise DimensionError(
                "expected %d enzyme activities, got %r" % (self.n_enzymes, arr.shape)
            )
        return np.clip(arr, 0.0, None)

    def _capacity(self, activities: np.ndarray, indices: list[int]) -> float:
        """Most-limiting per-CO2 (or per-triose) capacity of an enzyme group."""
        return float(np.min(activities[indices] / _DEMANDS[indices]))

    # ------------------------------------------------------------------
    def breakdown(self, activities: np.ndarray) -> UptakeBreakdown:
        """Full capacity breakdown of one enzyme-activity vector."""
        x = self._validate(activities)
        cond = self.condition

        # 1. Rubisco-limited gross carboxylation.
        vcmax = x[_RUBISCO]
        wc = vcmax * cond.ci / (cond.ci + cond.rubisco_effective_km)

        # 2. RuBP regeneration limited by the Calvin-cycle enzymes.
        wr = self._capacity(x, _CALVIN_REGENERATION)

        # 3. Electron-transport (light) limited regeneration, fixed per condition.
        wj = (
            cond.electron_transport_capacity
            * cond.ci
            / (4.0 * cond.ci + 8.0 * cond.co2_compensation_point)
        )

        # 4. Triose-phosphate utilization: export + starch + sucrose sinks.
        export_flux = self.export_scale * cond.triose_export_rate
        starch_flux = x[_ADPGPP] / _DEMANDS[_ADPGPP]
        sucrose_capacity = self._capacity(x, _SUCROSE_CHAIN)
        # F26BPase relieves the inhibition of the cytosolic FBPase: at zero
        # activity the sucrose chain runs at 50 % of its capacity, saturating
        # towards 100 % as the regulator is expressed.
        f26 = x[_F26BPASE]
        regulation = 0.5 + 0.5 * f26 / (f26 + ENZYMES[_F26BPASE].natural_activity)
        sucrose_flux = sucrose_capacity * regulation
        # Each triose phosphate carries three fixed CO2.
        wp = 3.0 * (export_flux + starch_flux + sucrose_flux)

        # Gross carboxylation is set by the most limiting process; the
        # triose-use cap applies to the net carbon actually leaving the cycle.
        wp_gross = wp / max(cond.net_fraction, 1e-9)
        candidates = {
            "rubisco": wc,
            "regeneration": wr,
            "electron_transport": wj,
            "triose_phosphate_use": wp_gross,
        }
        limiting_process = min(candidates, key=candidates.get)
        vc = candidates[limiting_process]

        # 5. Photorespiration: oxygenation scales with the carboxylation rate.
        oxygenation = cond.oxygenation_ratio * vc
        pr_capacity = self._capacity(x, _PHOTORESPIRATION)
        shortfall = max(0.0, oxygenation - pr_capacity)

        net = (
            vc * cond.net_fraction
            - cond.dark_respiration
            - self.photorespiration_penalty * shortfall
        )
        return UptakeBreakdown(
            net_uptake=net,
            gross_carboxylation=vc,
            oxygenation=oxygenation,
            rubisco_capacity=wc,
            regeneration_capacity=wr,
            electron_transport_capacity=wj,
            triose_use_capacity=wp,
            photorespiration_capacity=pr_capacity,
            photorespiration_shortfall=shortfall,
            export_flux=export_flux,
            starch_flux=starch_flux,
            sucrose_flux=sucrose_flux,
            limiting_process=limiting_process,
        )

    # ------------------------------------------------------------------
    # Batched evaluation over a population of activity vectors
    # ------------------------------------------------------------------
    def _validate_batch(self, activities: np.ndarray) -> np.ndarray:
        arr = np.asarray(activities, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.n_enzymes:
            raise DimensionError(
                "expected an (n, %d) activity matrix, got %r"
                % (self.n_enzymes, arr.shape)
            )
        return np.clip(arr, 0.0, None)

    def co2_uptake_batch(self, activities: np.ndarray) -> np.ndarray:
        """Net CO2 uptake of every row of an ``(n, 23)`` activity matrix.

        Every entry is bitwise identical to the scalar :meth:`co2_uptake` of
        the matching row: the arithmetic is elementwise in the same operation
        order, the group capacities use exact ``min`` reductions, and the
        carboxylation rate comes from ``argmin`` over the candidate columns in
        the same rubisco / regeneration / electron-transport / triose-use
        order the scalar dictionary enumerates (first minimum wins in both).
        Only the net uptake is computed, none of the other breakdown fields.
        """
        X = self._validate_batch(activities)
        cond = self.condition

        vcmax = X[:, _RUBISCO]
        wc = vcmax * cond.ci / (cond.ci + cond.rubisco_effective_km)

        wr = np.min(X[:, _CALVIN_REGENERATION] / _DEMANDS[_CALVIN_REGENERATION], axis=1)

        wj = (
            cond.electron_transport_capacity
            * cond.ci
            / (4.0 * cond.ci + 8.0 * cond.co2_compensation_point)
        )

        export_flux = self.export_scale * cond.triose_export_rate
        starch_flux = X[:, _ADPGPP] / _DEMANDS[_ADPGPP]
        sucrose_capacity = np.min(X[:, _SUCROSE_CHAIN] / _DEMANDS[_SUCROSE_CHAIN], axis=1)
        f26 = X[:, _F26BPASE]
        regulation = 0.5 + 0.5 * f26 / (f26 + ENZYMES[_F26BPASE].natural_activity)
        sucrose_flux = sucrose_capacity * regulation
        wp = 3.0 * (export_flux + starch_flux + sucrose_flux)

        wp_gross = wp / max(cond.net_fraction, 1e-9)
        candidates = np.column_stack(
            [wc, wr, np.full(X.shape[0], wj), wp_gross]
        )
        winner = np.argmin(candidates, axis=1)
        vc = candidates[np.arange(X.shape[0]), winner]

        oxygenation = cond.oxygenation_ratio * vc
        pr_capacity = np.min(X[:, _PHOTORESPIRATION] / _DEMANDS[_PHOTORESPIRATION], axis=1)
        shortfall = np.maximum(0.0, oxygenation - pr_capacity)

        return (
            vc * cond.net_fraction
            - cond.dark_respiration
            - self.photorespiration_penalty * shortfall
        )

    def co2_uptake(self, activities: np.ndarray) -> float:
        """Net CO2 uptake (µmol m⁻² s⁻¹) of one enzyme-activity vector."""
        return self.breakdown(activities).net_uptake

    def natural_uptake(self) -> float:
        """Net CO2 uptake of the natural leaf under this model's condition."""
        return self.co2_uptake(natural_activities())

    def with_condition(self, condition: EnvironmentalCondition) -> "EnzymeLimitedModel":
        """Copy of the model under a different environmental condition."""
        return EnzymeLimitedModel(
            condition=condition,
            export_scale=self.export_scale,
            photorespiration_penalty=self.photorespiration_penalty,
        )
