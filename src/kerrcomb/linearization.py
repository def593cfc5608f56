"""Linearized quantum-fluctuation flow around a stationary comb state.

Fluctuations delta-a_l around a stationary field obey

    d(delta a_l)/dt = sum_p R_lp delta a_p + S_lp delta a_p^dagger + noise,

with R and S determined by the stationary amplitudes.  This module builds
R and S and, for reflection-symmetric states, the real 2K x 2K quadrature
Jacobian J_q acting on the differences D_l = delta a_{+l} - delta a_{-l}
of the K sidemode pairs, each in its natural phase frame.  It owns the
one complex Schur form of J_q per state (`_schur_form`): the stability
spectrum reads the antisymmetric eigenvalues off its diagonal, and the
pair spectra in `squeezing` reuse it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import rsf2csf, schur

from . import _modal
from .steady_state import PATTERN_FLOOR, CombState, PatternKind

#: Residual gate: states with larger dimensionless residual are refused.
RESIDUAL_GATE = 1e-8
#: A state is reported stable when max Re(stability_spectrum) <= this multiple
#: of kappa (neutral translation modes of patterned states sit at ~0).
STABILITY_TOL = 1e-6
#: Relative reflection asymmetry up to which a state counts as symmetric.
SYMMETRY_TOL = 1e-6
#: (key, T, Q) of the last J_q `_schur_form` factored; key is its exact
#: dtype, shape and bytes.
_schur_form_memo: tuple[tuple, np.ndarray, np.ndarray] | None = None


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


def _fold(state: CombState) -> tuple[tuple, QuadratureJacobian]:
    """(R_s, S_s) of the symmetric `_modal.reflection_blocks` block of a
    gated, reflection-symmetric state, and J_q of its antisymmetric block
    with each pair rotated by Phi_l; (R, S) is built and folded once."""
    R, S = build_modal_jacobian(state)
    a = state.amplitudes
    asym = float(np.max(np.abs(a[::-1] - a)) / np.max(np.abs(a)))
    if asym > SYMMETRY_TOL:
        raise ValueError(
            f"pair quadratures need a reflection-symmetric state "
            f"(A_-l = A_l); asymmetry {asym:.2e}")
    sym, (A, B) = _modal.reflection_blocks(R, S)
    phis = pair_phases(state)
    rot = np.exp(1j * phis)
    J_q = _modal.real_jacobian(
        A * (rot[None, :] / rot[:, None]),          # e^{i(Phi_p - Phi_l)}
        B / (rot[None, :] * rot[:, None]))          # e^{-i(Phi_p + Phi_l)}
    return sym, QuadratureJacobian(J_q, phis)


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
    return _fold(state)[1]


def _schur_form(J_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form (T, Q), J_q = Q T Q^H, of a real J_q.

    The stability spectrum and every pair of a state use the same J_q, so
    the last form is kept and returned again, read-only, while the next
    J_q has the same dtype, shape and bytes; any other matrix, or one
    mutated in place since, is factored afresh.
    """
    global _schur_form_memo
    key = (J_q.dtype, J_q.shape, J_q.tobytes())
    memo = _schur_form_memo
    if memo is None or memo[0] != key:
        T, Q = rsf2csf(*schur(J_q))
        T.flags.writeable = Q.flags.writeable = False
        memo = _schur_form_memo = (key, T, Q)
    return memo[1], memo[2]


def stability_spectrum(state: CombState) -> np.ndarray:
    """Eigenvalues of the linearized flow around a reflection-symmetric
    state, sorted by descending real part.

    The flow keeps the two `_modal.reflection_blocks` apart, so this is
    the spectrum of the symmetric block's `real_jacobian` (order 2K + 2)
    together with the diagonal of J_q's complex Schur form, which the pair
    spectra reuse: J_q is the antisymmetric block up to the pair rotation,
    a similarity.
    """
    (R_s, S_s), quad = _fold(state)
    T, _ = _schur_form(quad.J_q)
    eig = np.concatenate([np.linalg.eigvals(_modal.real_jacobian(R_s, S_s)),
                          np.diag(T)])
    return eig[np.argsort(-eig.real)]


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

