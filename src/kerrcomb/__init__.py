"""Quantum dynamics of Kerr optical frequency combs.

Semi-classical stationary states (flat, roll, bright/dark soliton) of a
pumped Kerr microresonator, spontaneous four-wave-mixing spectra below
threshold, and multimode squeezing spectra above threshold, for
add-through and add-drop coupling topologies.
"""

from .units import (
    LossBudget,
    ModalParams,
    ResonatorConfig,
    Topology,
    derive_loss_budget,
    min_pump_power,
    modal_params,
    predicted_roll_order,
    threshold_pump_power,
)
from .steady_state import (
    CombState,
    FlatStateBranches,
    PatternKind,
    find_steady_state,
    solve_flat_state,
)

__all__ = [
    "LossBudget", "ModalParams", "ResonatorConfig", "Topology",
    "derive_loss_budget", "min_pump_power", "modal_params",
    "predicted_roll_order", "threshold_pump_power",
    "CombState", "FlatStateBranches", "PatternKind", "find_steady_state",
    "solve_flat_state",
]

__version__ = "0.1.0"
