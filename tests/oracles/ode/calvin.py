"""Full kinetic ODE model of C3 carbon metabolism.

This module builds the detailed counterpart of the fast evaluator in
:mod:`repro.photosynthesis.steady_state`: an ordinary-differential-equation
model of the Calvin-Benson cycle, the photorespiratory (C2) cycle, starch
synthesis and cytosolic sucrose synthesis, following the structure of the
model the paper adopts (Zhu, de Sturler & Long 2007): discrete rate equations
for every enzymatic step, equilibrium reactions for the fast inter-conversion
pools, Michaelis-Menten kinetics for the non-equilibrium reactions, and
conserved cofactor pools.

The model cross-validates the fast model
(``tests/integration/test_cross_validation.py``) and, through
:class:`CalvinUptakeProblem`, gives ``benchmarks/bench_runtime_scaling.py``
a CPU-bound batch to fan out; it is **not** used inside the optimization loop
(each steady state costs a stiff ODE integration).

Simplifications relative to the published 38-ODE model, chosen to keep the
system stiff-solver friendly while preserving the couplings the design
problem exercises:

* NADPH/NADP and the phosphate pools are treated as buffered (fixed)
  species; the adenylate pool (ATP/ADP) is dynamic and conserved.
* The light reactions are represented by a single ATP-regeneration flux with
  a fixed capacity (the design vector does not touch the thylakoid).
* Starch and sucrose are terminal sinks.

Concentrations are in mM and time in seconds; fluxes are converted to the
paper's leaf-area basis (µmol m⁻² s⁻¹) through ``FLUX_PER_AREA``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.exceptions import DimensionError
from repro.photosynthesis.conditions import EnvironmentalCondition, PRESENT
from repro.photosynthesis.enzymes import ENZYME_NAMES, ENZYMES, natural_activities
from repro.photosynthesis.nitrogen import total_nitrogen_batch
from repro.problems.base import Problem
from repro.problems.batch import BatchEvaluation
from tests.oracles.ode import (
    ConstantFlux,
    KineticNetwork,
    KineticReaction,
    KineticSimulator,
    Metabolite,
    MichaelisMenten,
    MultiSubstrateMichaelisMenten,
    RapidEquilibrium,
)

__all__ = ["FLUX_PER_AREA", "build_calvin_network", "CalvinCycleModel", "CalvinUptakeProblem"]

#: Conversion between stromal volumetric fluxes (mM s⁻¹) and leaf-area fluxes
#: (µmol m⁻² s⁻¹).  One µmol m⁻² s⁻¹ corresponds to roughly 0.03 mM s⁻¹ for a
#: typical stromal volume per unit leaf area.
FLUX_PER_AREA = 0.03


def _enzyme_vmax(key: str) -> float:
    """Baseline Vmax (mM s⁻¹) of an enzyme at its natural activity."""
    for enzyme in ENZYMES:
        if enzyme.key == key:
            return enzyme.natural_activity * FLUX_PER_AREA
    raise KeyError("unknown enzyme %s" % key)


def build_calvin_network(condition: EnvironmentalCondition = PRESENT) -> KineticNetwork:
    """Assemble the C3 kinetic network for one environmental condition.

    The returned :class:`~tests.oracles.ode.KineticNetwork` has one reaction per
    enzymatic step; reactions catalysed by one of the 23 design enzymes carry
    that enzyme's key in :attr:`KineticReaction.enzyme`, so a design vector is
    applied simply by passing per-enzyme scale factors to the simulator.
    """
    network = KineticNetwork(name="c3-carbon-metabolism")

    # ------------------------------------------------------------------
    # Metabolites.  Initial concentrations are representative of an
    # illuminated chloroplast at steady photosynthesis.
    # ------------------------------------------------------------------
    stroma = [
        ("RuBP", 2.0),
        ("PGA", 2.5),
        ("BPGA", 0.05),
        ("GAP", 0.1),
        ("DHAP", 2.0),
        ("FBP", 0.6),
        ("F6P", 1.0),
        ("E4P", 0.05),
        ("SBP", 0.3),
        ("S7P", 0.5),
        ("X5P", 0.05),
        ("R5P", 0.05),
        ("Ru5P", 0.05),
        ("G6P", 2.0),
        ("G1P", 0.1),
        ("PGCA", 0.03),
        ("GCA", 0.5),
        ("GOA", 0.03),
        ("GLY", 1.0),
        ("SER", 2.0),
        ("HPR", 0.01),
        ("GCEA", 0.2),
        ("ATP", 1.5),
        ("ADP", 0.5),
    ]
    cytosol = [
        ("TPc", 0.5),
        ("FBPc", 0.2),
        ("F6Pc", 0.5),
        ("G6Pc", 1.5),
        ("G1Pc", 0.1),
        ("UDPG", 0.3),
        ("SUCP", 0.05),
        ("F26BP", 0.005),
    ]
    for identifier, value in stroma:
        network.add_metabolite(
            Metabolite(identifier, initial_concentration=value, compartment="stroma")
        )
    for identifier, value in cytosol:
        network.add_metabolite(
            Metabolite(identifier, initial_concentration=value, compartment="cytosol")
        )
    # Buffered / boundary species.
    for identifier, value in [
        ("CO2", condition.ci / 1000.0 * 0.037),  # dissolved CO2 in mM (Henry's law-ish)
        ("O2", condition.oxygen / 1000.0 * 0.0012),
        ("NADPH", 0.3),
        ("NADP", 0.15),
        ("Pi", 5.0),
        ("STARCH", 0.0),
        ("SUC", 0.0),
        ("CO2_released", 0.0),
    ]:
        network.add_metabolite(
            Metabolite(identifier, initial_concentration=value, fixed=True)
        )

    # ------------------------------------------------------------------
    # Calvin-Benson cycle.
    # ------------------------------------------------------------------
    co2 = condition.ci / 1000.0 * 0.037
    o2 = condition.oxygen / 1000.0 * 0.0012
    km_co2 = condition.kc / 1000.0 * 0.037
    km_o2 = condition.ko / 1000.0 * 0.0012

    network.add_reactions(
        [
            KineticReaction(
                "rubisco_carboxylation",
                {"RuBP": -1, "PGA": 2},
                MultiSubstrateMichaelisMenten(
                    substrates={"RuBP": 0.02, "CO2": km_co2},
                    inhibitors={"O2": km_o2},
                ),
                enzyme="rubisco",
                vmax=_enzyme_vmax("rubisco"),
                name="RuBP carboxylase",
            ),
            KineticReaction(
                "rubisco_oxygenation",
                {"RuBP": -1, "PGA": 1, "PGCA": 1},
                MultiSubstrateMichaelisMenten(
                    substrates={"RuBP": 0.02, "O2": km_o2},
                    inhibitors={"CO2": km_co2},
                ),
                enzyme="rubisco",
                vmax=_enzyme_vmax("rubisco") * 0.25,
                name="RuBP oxygenase",
            ),
            KineticReaction(
                "pga_kinase",
                {"PGA": -1, "ATP": -1, "BPGA": 1, "ADP": 1},
                MultiSubstrateMichaelisMenten(substrates={"PGA": 0.24, "ATP": 0.39}),
                enzyme="pga_kinase",
                vmax=_enzyme_vmax("pga_kinase"),
                name="phosphoglycerate kinase",
            ),
            KineticReaction(
                "gapdh",
                {"BPGA": -1, "NADPH": -1, "GAP": 1, "NADP": 1, "Pi": 1},
                MultiSubstrateMichaelisMenten(substrates={"BPGA": 0.004, "NADPH": 0.1}),
                enzyme="gapdh",
                vmax=_enzyme_vmax("gapdh"),
                name="GAP dehydrogenase",
            ),
            KineticReaction(
                "triose_phosphate_isomerase",
                {"GAP": -1, "DHAP": 1},
                RapidEquilibrium("GAP", "DHAP", keq=22.0),
                name="triose phosphate isomerase (equilibrium)",
            ),
            KineticReaction(
                "fbp_aldolase",
                {"GAP": -1, "DHAP": -1, "FBP": 1},
                MultiSubstrateMichaelisMenten(substrates={"GAP": 0.3, "DHAP": 0.4}),
                enzyme="fbp_aldolase",
                vmax=_enzyme_vmax("fbp_aldolase"),
                name="FBP aldolase",
            ),
            KineticReaction(
                "fbpase",
                {"FBP": -1, "F6P": 1, "Pi": 1},
                MichaelisMenten("FBP", km=0.033, inhibitors={"F6P": 0.7, "Pi": 12.0}),
                enzyme="fbpase",
                vmax=_enzyme_vmax("fbpase"),
                name="stromal FBPase",
            ),
            KineticReaction(
                "transketolase_f6p",
                {"F6P": -1, "GAP": -1, "X5P": 1, "E4P": 1},
                MultiSubstrateMichaelisMenten(substrates={"F6P": 0.1, "GAP": 0.1}),
                enzyme="transketolase",
                vmax=_enzyme_vmax("transketolase"),
                name="transketolase (F6P + GAP)",
            ),
            KineticReaction(
                "sbp_aldolase",
                {"E4P": -1, "DHAP": -1, "SBP": 1},
                MultiSubstrateMichaelisMenten(substrates={"E4P": 0.2, "DHAP": 0.4}),
                enzyme="sbp_aldolase",
                vmax=_enzyme_vmax("sbp_aldolase"),
                name="SBP aldolase",
            ),
            KineticReaction(
                "sbpase",
                {"SBP": -1, "S7P": 1, "Pi": 1},
                MichaelisMenten("SBP", km=0.05, inhibitors={"Pi": 12.0}),
                enzyme="sbpase",
                vmax=_enzyme_vmax("sbpase"),
                name="SBPase",
            ),
            KineticReaction(
                "transketolase_s7p",
                {"S7P": -1, "GAP": -1, "X5P": 1, "R5P": 1},
                MultiSubstrateMichaelisMenten(substrates={"S7P": 0.1, "GAP": 0.1}),
                enzyme="transketolase",
                vmax=_enzyme_vmax("transketolase"),
                name="transketolase (S7P + GAP)",
            ),
            KineticReaction(
                "xylulose_epimerase",
                {"X5P": -1, "Ru5P": 1},
                RapidEquilibrium("X5P", "Ru5P", keq=0.67),
                name="ribulose phosphate epimerase (equilibrium)",
            ),
            KineticReaction(
                "ribose_isomerase",
                {"R5P": -1, "Ru5P": 1},
                RapidEquilibrium("R5P", "Ru5P", keq=0.4),
                name="ribose phosphate isomerase (equilibrium)",
            ),
            KineticReaction(
                "prk",
                {"Ru5P": -1, "ATP": -1, "RuBP": 1, "ADP": 1},
                MultiSubstrateMichaelisMenten(
                    substrates={"Ru5P": 0.05, "ATP": 0.59},
                    inhibitors={"PGA": 2.0, "RuBP": 0.7},
                ),
                enzyme="prk",
                vmax=_enzyme_vmax("prk"),
                name="phosphoribulokinase",
            ),
        ]
    )

    # ------------------------------------------------------------------
    # Starch synthesis branch (stroma).
    # ------------------------------------------------------------------
    network.add_reactions(
        [
            KineticReaction(
                "hexose_isomerase",
                {"F6P": -1, "G6P": 1},
                RapidEquilibrium("F6P", "G6P", keq=2.3),
                name="phosphoglucose isomerase (equilibrium)",
            ),
            KineticReaction(
                "phosphoglucomutase",
                {"G6P": -1, "G1P": 1},
                RapidEquilibrium("G6P", "G1P", keq=0.058),
                name="phosphoglucomutase (equilibrium)",
            ),
            KineticReaction(
                "adpgpp_starch",
                {"G1P": -1, "ATP": -1, "ADP": 1, "Pi": 2, "STARCH": 1},
                MultiSubstrateMichaelisMenten(
                    substrates={"G1P": 0.08, "ATP": 0.08},
                    inhibitors={"Pi": 6.0},
                ),
                enzyme="adpgpp",
                vmax=_enzyme_vmax("adpgpp"),
                name="ADP-glucose pyrophosphorylase (starch synthesis)",
            ),
        ]
    )

    # ------------------------------------------------------------------
    # Photorespiratory (C2) cycle.
    # ------------------------------------------------------------------
    network.add_reactions(
        [
            KineticReaction(
                "pgca_phosphatase",
                {"PGCA": -1, "GCA": 1, "Pi": 1},
                MichaelisMenten("PGCA", km=0.026),
                enzyme="pgca_phosphatase",
                vmax=_enzyme_vmax("pgca_phosphatase"),
                name="phosphoglycolate phosphatase",
            ),
            KineticReaction(
                "goa_oxidase",
                {"GCA": -1, "GOA": 1},
                MichaelisMenten("GCA", km=0.1),
                enzyme="goa_oxidase",
                vmax=_enzyme_vmax("goa_oxidase"),
                name="glycolate oxidase",
            ),
            KineticReaction(
                "ggat",
                {"GOA": -1, "GLY": 1},
                MichaelisMenten("GOA", km=0.15),
                enzyme="ggat",
                vmax=_enzyme_vmax("ggat"),
                name="glutamate:glyoxylate aminotransferase",
            ),
            KineticReaction(
                "gdc",
                {"GLY": -2, "SER": 1, "CO2_released": 1},
                MichaelisMenten("GLY", km=6.0),
                enzyme="gdc",
                vmax=_enzyme_vmax("gdc"),
                name="glycine decarboxylase complex",
            ),
            KineticReaction(
                "gsat",
                {"SER": -1, "HPR": 1},
                MichaelisMenten("SER", km=2.7),
                enzyme="gsat",
                vmax=_enzyme_vmax("gsat"),
                name="serine:glyoxylate aminotransferase",
            ),
            KineticReaction(
                "hpr_reductase",
                {"HPR": -1, "NADPH": -1, "GCEA": 1, "NADP": 1},
                MultiSubstrateMichaelisMenten(substrates={"HPR": 0.09, "NADPH": 0.1}),
                enzyme="hpr_reductase",
                vmax=_enzyme_vmax("hpr_reductase"),
                name="hydroxypyruvate reductase",
            ),
            KineticReaction(
                "gcea_kinase",
                {"GCEA": -1, "ATP": -1, "PGA": 1, "ADP": 1},
                MultiSubstrateMichaelisMenten(substrates={"GCEA": 0.25, "ATP": 0.21}),
                enzyme="gcea_kinase",
                vmax=_enzyme_vmax("gcea_kinase"),
                name="glycerate kinase",
            ),
        ]
    )

    # ------------------------------------------------------------------
    # Triose-phosphate export and cytosolic sucrose synthesis.
    # ------------------------------------------------------------------
    export_vmax = condition.triose_export_rate * 2.55 * FLUX_PER_AREA
    network.add_reactions(
        [
            KineticReaction(
                "triose_phosphate_translocator",
                {"DHAP": -1, "TPc": 1, "Pi": 1},
                ConstantFlux(export_vmax, carrier="DHAP", km=0.6),
                name="triose phosphate / Pi translocator",
            ),
            KineticReaction(
                "cytosolic_fbp_aldolase",
                {"TPc": -2, "FBPc": 1},
                MichaelisMenten("TPc", km=0.3),
                enzyme="cytosolic_fbp_aldolase",
                vmax=_enzyme_vmax("cytosolic_fbp_aldolase"),
                name="cytosolic FBP aldolase",
            ),
            KineticReaction(
                "cytosolic_fbpase",
                {"FBPc": -1, "F6Pc": 1},
                MichaelisMenten("FBPc", km=0.02, inhibitors={"F26BP": 0.002}),
                enzyme="cytosolic_fbpase",
                vmax=_enzyme_vmax("cytosolic_fbpase"),
                name="cytosolic FBPase",
            ),
            KineticReaction(
                "cytosolic_hexose_isomerase",
                {"F6Pc": -1, "G6Pc": 1},
                RapidEquilibrium("F6Pc", "G6Pc", keq=2.3),
                name="cytosolic phosphoglucose isomerase (equilibrium)",
            ),
            KineticReaction(
                "cytosolic_phosphoglucomutase",
                {"G6Pc": -1, "G1Pc": 1},
                RapidEquilibrium("G6Pc", "G1Pc", keq=0.058),
                name="cytosolic phosphoglucomutase (equilibrium)",
            ),
            KineticReaction(
                "udpgp",
                {"G1Pc": -1, "UDPG": 1},
                MichaelisMenten("G1Pc", km=0.14),
                enzyme="udpgp",
                vmax=_enzyme_vmax("udpgp"),
                name="UDP-glucose pyrophosphorylase",
            ),
            KineticReaction(
                "sps",
                {"UDPG": -1, "F6Pc": -1, "SUCP": 1},
                MultiSubstrateMichaelisMenten(
                    substrates={"UDPG": 1.3, "F6Pc": 0.4},
                    inhibitors={"Pi": 10.0},
                ),
                enzyme="sps",
                vmax=_enzyme_vmax("sps"),
                name="sucrose phosphate synthase",
            ),
            KineticReaction(
                "spp",
                {"SUCP": -1, "SUC": 1},
                MichaelisMenten("SUCP", km=0.1),
                enzyme="spp",
                vmax=_enzyme_vmax("spp"),
                name="sucrose phosphate phosphatase",
            ),
            # Fructose-2,6-bisphosphate turnover: synthesized at a constant
            # basal rate, degraded by F26BPase.  Its level feeds back as an
            # inhibitor of the cytosolic FBPase, which is how the 23rd design
            # enzyme influences the sucrose flux in this model.
            KineticReaction(
                "f26bp_synthesis",
                {"F26BP": 1},
                ConstantFlux(0.0005),
                name="fructose-6-phosphate,2-kinase (basal)",
            ),
            KineticReaction(
                "f26bpase",
                {"F26BP": -1},
                MichaelisMenten("F26BP", km=0.005),
                enzyme="f26bpase",
                vmax=_enzyme_vmax("f26bpase") * 0.01,
                name="fructose-2,6-bisphosphatase",
            ),
        ]
    )

    # ------------------------------------------------------------------
    # Light reactions: ATP regeneration with a fixed capacity.
    # ------------------------------------------------------------------
    atp_capacity = condition.electron_transport_capacity / 2.5 * FLUX_PER_AREA
    network.add_reaction(
        KineticReaction(
            "atp_synthase",
            {"ADP": -1, "Pi": -1, "ATP": 1},
            MultiSubstrateMichaelisMenten(substrates={"ADP": 0.05, "Pi": 0.5}),
            vmax=atp_capacity,
            name="thylakoid ATP synthesis (light reactions)",
        )
    )
    network.validate()
    return network


class CalvinCycleModel:
    """High-level interface to the C3 kinetic ODE model.

    Parameters
    ----------
    condition:
        Environmental scenario.
    t_max:
        Maximum integration horizon (s) for the steady-state search.
    """

    def __init__(
        self,
        condition: EnvironmentalCondition = PRESENT,
        t_max: float = 600.0,
        rtol: float = 1e-5,
        atol: float = 1e-8,
    ) -> None:
        self.condition = condition
        self.network = build_calvin_network(condition)
        self.simulator = KineticSimulator(self.network, rtol=rtol, atol=atol)
        self.t_max = t_max
        self._natural = natural_activities()

    # ------------------------------------------------------------------
    def enzyme_scales(self, activities: np.ndarray) -> dict[str, float]:
        """Convert an absolute activity vector to per-enzyme scale factors."""
        arr = np.asarray(activities, dtype=float)
        if arr.shape != (len(ENZYMES),):
            raise DimensionError(
                "expected %d enzyme activities, got %r" % (len(ENZYMES), arr.shape)
            )
        return {
            enzyme.key: float(arr[i] / self._natural[i])
            for i, enzyme in enumerate(ENZYMES)
        }

    def simulate(self, activities: np.ndarray | None = None, t_end: float | None = None):
        """Time-course simulation for an activity vector (natural when omitted)."""
        scales = (
            self.enzyme_scales(activities)
            if activities is not None
            else {enzyme.key: 1.0 for enzyme in ENZYMES}
        )
        return self.simulator.simulate(t_end or self.t_max, enzyme_scales=scales)

    def steady_state(self, activities: np.ndarray | None = None):
        """Relax the network to (near) steady state for an activity vector."""
        scales = (
            self.enzyme_scales(activities)
            if activities is not None
            else {enzyme.key: 1.0 for enzyme in ENZYMES}
        )
        return self.simulator.simulate_to_steady_state(
            enzyme_scales=scales, t_max=self.t_max, t_block=60.0, tolerance=1e-4
        )

    def co2_uptake(self, activities: np.ndarray | None = None) -> float:
        """Net CO2 uptake (µmol m⁻² s⁻¹) at the relaxed state of the ODE model.

        Uptake is carboxylation minus photorespiratory CO2 release (half a CO2
        per glycine decarboxylated is already encoded in the GDC
        stoichiometry) minus dark respiration.
        """
        result = self.steady_state(activities)
        carboxylation = result.fluxes["rubisco_carboxylation"]
        released = result.fluxes["gdc"]
        net_volumetric = carboxylation - released
        return net_volumetric / FLUX_PER_AREA - self.condition.dark_respiration

    def fluxes(self, activities: np.ndarray | None = None) -> Mapping[str, float]:
        """Steady-state reaction fluxes (mM s⁻¹) for an activity vector."""
        return self.steady_state(activities).fluxes


class CalvinUptakeProblem(Problem):
    """Uptake versus nitrogen with the uptake from the ODE model, row by row.

    The box, names and senses are those of
    :class:`~repro.photosynthesis.problem.PhotosynthesisProblem` at its
    default 0.05x – 3x scales; each row's uptake is one
    :meth:`CalvinCycleModel.co2_uptake` relaxation (about 0.3 s), so a batch
    is CPU-bound work a process pool can split.  Module level, so it pickles
    into pool workers.
    """

    def __init__(self, condition: EnvironmentalCondition = PRESENT) -> None:
        natural = natural_activities()
        super().__init__(
            n_var=len(ENZYMES),
            n_obj=2,
            lower_bounds=natural * 0.05,
            upper_bounds=natural * 3.0,
            names=list(ENZYME_NAMES),
            objective_names=["co2_uptake", "nitrogen"],
            objective_senses=[-1, 1],
        )
        self.model = CalvinCycleModel(condition)

    def _evaluate_matrix(self, X: np.ndarray) -> BatchEvaluation:
        uptake = np.array([self.model.co2_uptake(x) for x in X])
        return BatchEvaluation(F=np.column_stack([-uptake, total_nitrogen_batch(X)]))
