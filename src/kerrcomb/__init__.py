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

#: Re-exports of `steady_state`, resolved at first access (PEP 562), so
#: that importing the package loads no numpy.
_STEADY_STATE = ("CombState", "FlatStateBranches", "PatternKind",
                 "find_steady_state", "solve_flat_state")

__all__ = [
    "LossBudget", "ModalParams", "ResonatorConfig", "Topology",
    "derive_loss_budget", "min_pump_power", "modal_params",
    "predicted_roll_order", "threshold_pump_power", *_STEADY_STATE,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _STEADY_STATE:
        from . import steady_state
        return getattr(steady_state, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
