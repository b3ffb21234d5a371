"""Convertibility of quasi-classical athermality states.

Decides convertibility under closed thermal operations, computes the
extremal temperatures a resource can cool or heat a target to, maximal
ground-state overlaps, qubit cooling/heating monotones, and feasible
energy-gap sets, with an independent LP oracle for cross-checking.
"""

from .core import (
    AthermalityState,
    ExtendedBeta,
    GibbsContext,
    ProbabilityVector,
    validate_state,
)
from .esets import (
    EnergyGapSet,
    GapInterval,
    construct_gap_example,
    fa_point,
    gap_membership,
    gap_set,
)
from .majorization import (
    TestingBoundary,
    alpha_at,
    compute_elbows,
    relatively_majorizes,
)
from .monotones import (
    CriticalEnergySet,
    convertible_via_monotones,
    cooling_monotone,
    critical_energies,
    heating_monotone,
)
from .oracle import FeasibilityResult, lp_feasible
from .tempbounds import (
    CoolingReport,
    HeatingReport,
    beta_max,
    beta_min,
    max_ground_overlap,
    qubit_beta_bounds,
    qubit_energy_change,
)
from .thermo import (
    DensityMatrix,
    gibbs_vector,
    log_partition,
    to_quasiclassical,
)

__version__ = "0.1.0"

__all__ = [
    "AthermalityState",
    "CoolingReport",
    "CriticalEnergySet",
    "DensityMatrix",
    "EnergyGapSet",
    "ExtendedBeta",
    "FeasibilityResult",
    "GapInterval",
    "GibbsContext",
    "HeatingReport",
    "ProbabilityVector",
    "TestingBoundary",
    "alpha_at",
    "beta_max",
    "beta_min",
    "compute_elbows",
    "construct_gap_example",
    "convertible_via_monotones",
    "cooling_monotone",
    "critical_energies",
    "fa_point",
    "gap_membership",
    "gap_set",
    "gibbs_vector",
    "heating_monotone",
    "log_partition",
    "lp_feasible",
    "max_ground_overlap",
    "qubit_beta_bounds",
    "qubit_energy_change",
    "relatively_majorizes",
    "to_quasiclassical",
    "validate_state",
]
