"""Linearized quantum-fluctuation flow around a stationary comb state.

Fluctuations delta-a_l around a stationary field obey

    d(delta a_l)/dt = sum_p R_lp delta a_p + S_lp delta a_p^dagger + noise,

with R and S determined by the stationary amplitudes.  This module builds
R and S, re-exports their stability spectrum from `_modal` (the matrix
Newton uses), and — for reflection-symmetric states — the real 2K x 2K
quadrature Jacobian J_q acting on the differences D_l = delta a_{+l} -
delta a_{-l} of the K sidemode pairs, each in its natural phase frame.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _modal
from ._modal import stability_spectrum
from .steady_state import PATTERN_FLOOR, CombState, PatternKind

#: Residual gate: states with larger dimensionless residual are refused.
RESIDUAL_GATE = 1e-8
#: A state is reported stable when max Re(stability_spectrum) <= this multiple
#: of kappa (neutral translation modes of patterned states sit at ~0).
STABILITY_TOL = 1e-6
#: Relative reflection asymmetry up to which a state counts as symmetric.
SYMMETRY_TOL = 1e-6


class QuadratureJacobian(NamedTuple):
    """Pair-quadrature flow; row i of J_q (0-based) is mode pair l = i + 1."""

    J_q: np.ndarray
    pair_rotation: np.ndarray   # Phi_l applied per pair, l=1..K


def _gate(state: CombState) -> None:
    if state.residual_norm > RESIDUAL_GATE:
        raise ValueError(
            f"state residual {state.residual_norm:.2e} exceeds the "
            f"linearization gate {RESIDUAL_GATE:g}; refine the state first")


def build_modal_jacobian(state: CombState) -> tuple[np.ndarray, np.ndarray]:
    """(R, S) of the modal fluctuation flow around a gated state."""
    _gate(state)
    return _modal.build_RS(state.amplitudes, state.params)


def is_stable(eig: np.ndarray, kappa: float) -> bool:
    """Whether a stability spectrum has max Re(eig) <= STABILITY_TOL kappa."""
    return float(np.max(eig.real)) <= STABILITY_TOL * kappa


def pair_phases(state: CombState) -> np.ndarray:
    """Half-sum phases Phi_l = (arg A_l + arg A_{-l})/2 in (-pi, pi].

    Entry l - 1 is pair l.  A pair with a mode at or below PATTERN_FLOOR of
    the peak intensity carries no meaningful phase and gets Phi_l = 0.
    """
    a = state.amplitudes
    K = state.K
    floor = PATTERN_FLOOR * float(np.max(np.abs(a) ** 2))
    phis = np.zeros(K)
    for l in range(1, K + 1):
        ap, am = a[K + l], a[K - l]
        if abs(ap) ** 2 <= floor or abs(am) ** 2 <= floor:
            continue
        phi = math.remainder(0.5 * (np.angle(ap) + np.angle(am)), 2 * math.pi)
        if phi <= -math.pi:
            phi += 2.0 * math.pi
        phis[l - 1] = phi
    return phis


def build_quadrature_jacobian(state: CombState) -> QuadratureJacobian:
    """Real flow matrix for the pair-difference quadratures.

    Requires a reflection-symmetric state (A_{-l} = A_{+l}), as every
    `find_steady_state` root is; then the difference coordinates
    D_l = delta a_{+l} - delta a_{-l} close among themselves (the pump mode
    drops out) in the antisymmetric block of `_modal.reflection_blocks`:

        dD_l/dt = sum_p A_lp D_p + B_lp D_p^dagger,
        A_lp = R_{l,p} - R_{l,-p},   B_lp = S_{l,p} - S_{l,-p}.

    Each pair is pre-rotated by its phase Phi_l, giving J_q =
    `_modal.real_jacobian(A', B')`, so a downstream quadrature angle phi
    is measured from the pair's natural frame.
    """
    R, S = build_modal_jacobian(state)
    a = state.amplitudes
    asym = float(np.max(np.abs(a[::-1] - a)) / np.max(np.abs(a)))
    if asym > SYMMETRY_TOL:
        raise ValueError(
            f"pair quadratures need a reflection-symmetric state "
            f"(A_-l = A_l); asymmetry {asym:.2e}")
    _, (A, B) = _modal.reflection_blocks(R, S)
    phis = pair_phases(state)
    rot = np.exp(1j * phis)
    J_q = _modal.real_jacobian(
        A * (rot[None, :] / rot[:, None]),          # e^{i(Phi_p - Phi_l)}
        B / (rot[None, :] * rot[:, None]))          # e^{-i(Phi_p + Phi_l)}
    return QuadratureJacobian(J_q, phis)


def three_mode_rates(state: CombState) -> tuple[float, float]:
    """Exact amplitude/phase relaxation rates of a three-mode comb.

    For a roll whose only excited modes are 0 and +/-L,
        kappa_a = -g0 |A_0|^2 sin(2 phi_0 - 2 Phi_L),
        kappa_p =  g0 (|A_L|^2 + |A_0|^2 cos(2 phi_0 - 2 Phi_L)),
    with phi_0 the pump-mode phase and Phi_L the pair phase.  A mode with
    more than 1e-10 of the peak intensity counts as excited.
    """
    _gate(state)
    if state.pattern is not PatternKind.ROLL or state.roll_order is None:
        raise ValueError("three-mode rates are defined for roll states only")
    a = state.amplitudes
    K, L = state.K, state.roll_order
    I = np.abs(a) ** 2
    excited = np.flatnonzero(I > 1e-10 * I.max()) - K
    if not set(excited.tolist()) <= {-L, 0, L}:
        raise ValueError(
            f"state excites modes {sorted(excited.tolist())} above 1e-10 "
            f"of the peak; the exact rates hold only for the three-mode comb "
            f"{{-{L}, 0, {L}}} (truncate at K < 2L)")
    g0 = state.params.g0
    phi0 = float(np.angle(a[K]))
    Phi_L = 0.5 * (np.angle(a[K + L]) + np.angle(a[K - L]))
    delta = 2.0 * phi0 - 2.0 * Phi_L
    kappa_a = -g0 * I[K] * math.sin(delta)
    kappa_p = g0 * (I[K + L] + I[K] * math.cos(delta))
    return float(kappa_a), float(kappa_p)

