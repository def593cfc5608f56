"""Linearized quantum-fluctuation flow around a stationary comb state.

Fluctuations delta-a_l around a stationary field obey

    d(delta a_l)/dt = sum_p R_lp delta a_p + S_lp delta a_p^dagger + noise,

with R and S determined by the stationary amplitudes.  For
reflection-symmetric states this module builds the real 2K x 2K
quadrature Jacobian J_q acting on the differences D_l = delta a_{+l} -
delta a_{-l} of the K sidemode pairs, each in its natural phase frame.
`_linearize` is the one place that builds both reflection blocks of
(R, S) (`_modal.reflection_block`), builds J_q, factors it as
J_q = V diag(lam) V^-1 with the pole weights every pair spectrum shares
(`eigen_form`) and solves the symmetric block, once per state: the
stability spectrum, `build_quadrature_jacobian` and through it every pair
spectrum in `squeezing` read its result, kept for the last state.  numpy
is the only runtime dependency.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _modal
from .steady_state import PATTERN_FLOOR, CombState

#: Residual gate: states with larger dimensionless residual are refused.
RESIDUAL_GATE = 1e-8
#: A state is reported stable when max Re(stability_spectrum) <= this multiple
#: of kappa (neutral translation modes of patterned states sit at ~0).
STABILITY_TOL = 1e-6
#: Relative reflection asymmetry up to which a state counts as symmetric.
SYMMETRY_TOL = 1e-6
#: Largest cond_2(V) of J_q's eigenvectors that `eigen_form` accepts.  The
#: pole sums of `squeezing` miss the dense resolvent by up to about
#: 0.5 eps cond_2(V)^2 (measured up to cond_2 = 1e8), 1e-8 at this bound.
COND_MAX = 1e4


class EigenForm(NamedTuple):
    """J_q = V diag(lam) V^-1 and the pole weights that every pair spectrum
    of `squeezing.pair_spectral_blocks` shares (see `eigen_form`)."""

    lam: np.ndarray
    mu: np.ndarray        # lam / kappa
    V: np.ndarray
    E: np.ndarray         # P_jk (2 + 4 / (mu_j + conj mu_k)); 0 if double
    double: tuple[np.ndarray, np.ndarray, np.ndarray]   # (j, k, 4 P_jk)
    tol: float            # w is neutral where min_j |mu_j + i w| <= tol


class QuadratureJacobian(NamedTuple):
    """Pair-quadrature flow; row i of J_q (0-based) is mode pair l = i + 1,
    and `eigen` its `eigen_form`."""

    J_q: np.ndarray
    pair_rotation: np.ndarray   # Phi_l applied per pair, l=1..K
    eigen: EigenForm


#: (key, result) of the last `_linearize` call; the key is the state's
#: amplitudes (dtype, shape, bytes) and params.
_last: tuple[tuple, tuple[QuadratureJacobian, np.ndarray]] | None = None


def _gate(state: CombState) -> None:
    if state.residual_norm > RESIDUAL_GATE:
        raise ValueError(
            f"state residual {state.residual_norm:.2e} exceeds the "
            f"linearization gate {RESIDUAL_GATE:g}; refine the state first")


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


def _vacuum_gram(V: np.ndarray) -> np.ndarray:
    """P = (V^-1 u)(V^-1 u)^H, u = [I; -iI] (so u u^H = C_in), for an
    eigenvector basis V of order 2K that `eigen_form` accepts.

    Where two eigenvalues merge with one eigenvector (an exceptional
    point, as near a bifurcation) V turns singular; a V with cond_2(V)
    above COND_MAX is refused, as the pair spectra are then no longer pole
    sums to the accuracy they are reported at.  As ||V||_F ||V^-1||_F >=
    cond_2(V) + 1/cond_2(V), a V that this bound accepts needs no SVD;
    where it does not, or V^-1 fails, `np.linalg.cond` decides.
    """
    K = len(V) // 2
    try:
        V_inv = np.linalg.inv(V)
        # an overflowing norm or product is inf, which `cond` then decides
        with np.errstate(over="ignore"):
            bound = float(np.linalg.norm(V)) * float(np.linalg.norm(V_inv))
    except np.linalg.LinAlgError:
        V_inv, bound = None, math.inf
    if not bound <= COND_MAX:
        cond = float(np.linalg.cond(V))
        if not cond <= COND_MAX:
            raise ValueError(f"J_q of K = {K} is too close to defective for "
                             f"pole sums: cond_2(V) = {cond:.3e} exceeds "
                             f"{COND_MAX:g}")
        if V_inv is None:
            V_inv = np.linalg.inv(V)
    W = V_inv[:, :K] - 1j * V_inv[:, K:]
    return W @ W.conj().T


def eigen_form(J_q: np.ndarray, kappa: float) -> EigenForm:
    """J_q = V diag(lam) V^-1 for a real J_q of order n = 2K, with the
    state-only part of every pair's pole sums (`squeezing`); a V too close
    to singular is refused (`_vacuum_gram`).

    With P = `_vacuum_gram(V)` and mu = lam / kappa, the pole weights are
    E_jk = P_jk (2 + 4 / (mu_j + conj mu_k)) where |mu_j + conj mu_k| >
    STABILITY_TOL; the remaining (j, k), a neutral mode with itself, are
    double poles with weight 4 P_jk.  P itself is not kept.  A frequency w
    is neutral when min_j |mu_j + i w| <= tol = n eps max(max|mu|, 1).
    """
    if np.iscomplexobj(J_q):
        raise ValueError("J_q must be real for (J_q - i w I)^-1 = conj G_+")
    lam, V = np.linalg.eig(J_q)
    P = _vacuum_gram(V)
    mu = lam / kappa
    mu_sum = mu[:, None] + mu.conj()[None, :]
    double = np.abs(mu_sum) <= STABILITY_TOL
    j, k = np.nonzero(double)
    mu_sum[double] = np.inf
    E = P * (2.0 + 4.0 / mu_sum)
    tol = len(lam) * np.finfo(float).eps * max(float(np.max(np.abs(mu))), 1.0)
    return EigenForm(lam, mu, V, E, (j, k, 4.0 * P[j, k]), tol)


def _linearize(state: CombState) -> tuple[QuadratureJacobian, np.ndarray]:
    """(`QuadratureJacobian`, stability spectrum) of a gated state, built
    from its two reflection blocks and kept, read-only, for the next call
    with the same amplitudes (dtype, shape, bytes) and params.

    Requires a reflection-symmetric state (A_{-l} = A_{+l}), as every
    `find_steady_state` root is; then the difference coordinates
    D_l = delta a_{+l} - delta a_{-l} close among themselves (the pump mode
    drops out) in the antisymmetric block (`_modal.reflection_block`):

        dD_l/dt = sum_p A_lp D_p + B_lp D_p^dagger,
        A_lp = R_{l,p} - R_{l,-p},   B_lp = S_{l,p} - S_{l,-p}.

    Each pair is pre-rotated by its phase Phi_l, giving J_q =
    `_modal.real_jacobian(A', B')`, so a downstream quadrature angle phi
    is measured from the pair's natural frame.
    """
    global _last
    _gate(state)
    a = state.amplitudes
    key = (a.dtype, a.shape, a.tobytes(), state.params)
    if _last is not None and _last[0] == key:
        return _last[1]
    asym = float(np.max(np.abs(a[::-1] - a)) / np.max(np.abs(a)))
    if asym > SYMMETRY_TOL:
        raise ValueError(f"pair quadratures need a reflection-symmetric "
                         f"state (A_-l = A_l); asymmetry {asym:.2e}")
    A, B = _modal.reflection_block(a, state.params, -1)
    phis = pair_phases(state)
    rot = np.exp(1j * phis)
    J_q = _modal.real_jacobian(
        A * (rot[None, :] / rot[:, None]),          # e^{i(Phi_p - Phi_l)}
        B / (rot[None, :] * rot[:, None]))          # e^{-i(Phi_p + Phi_l)}
    eigen = eigen_form(J_q, state.params.kappa)
    sym = _modal.reflection_block(a, state.params, 1)
    eig = np.concatenate([np.linalg.eigvals(_modal.real_jacobian(*sym)),
                          eigen.lam])
    eig = eig[np.argsort(-eig.real)]
    for x in (J_q, phis, eig, eigen.lam, eigen.mu, eigen.V, eigen.E,
              *eigen.double):
        x.flags.writeable = False
    _last = key, (QuadratureJacobian(J_q, phis, eigen), eig)
    return _last[1]


def build_quadrature_jacobian(state: CombState) -> QuadratureJacobian:
    """Real flow matrix J_q of the pair-difference quadratures, in each
    pair's frame, with its `eigen_form` (see `_linearize`)."""
    return _linearize(state)[0]


def stability_spectrum(state: CombState) -> np.ndarray:
    """Eigenvalues of the linearized flow around a reflection-symmetric
    state, sorted by descending real part (read-only, see `_linearize`).

    The flow keeps its two reflection blocks (`_modal.reflection_block`)
    apart: these are the eigenvalues of the symmetric block's
    `real_jacobian` (order 2K + 2) and those of J_q (`eigen_form`), J_q
    being the antisymmetric block up to the pair rotation, a similarity.
    """
    return _linearize(state)[1]

