"""Output squeezing spectra of sidemode pairs above threshold.

The intracavity pair-difference quadratures relax under the real flow
matrix J_q (see linearization); input vacuum enters through the coupler
and the output field is the interference of the reflected input with the
leaked intracavity field.  The resulting stationary output correlation
matrix at analysis frequency omega is

    C_out(w) = [2 k r (J_q + i w I)^-1 + I] C_in [2 k r (J_q - i w I)^-1 + I]^T
               + 4 k^2 r (1 - r) (J_q + i w I)^-1 C_in [(J_q - i w I)^-1]^T

with r = rho the escape efficiency, k = kappa the total half-linewidth
and C_in the frequency-independent vacuum correlation matrix.  Expanded,
the r^2 terms cancel and C_out is linear in rho:
C_out(rho) = C_in + rho (C_out(1) - C_in).  Quadrature spectra at
arbitrary angle follow from the diagonal blocks of C_out and are
normalized so that shot noise is 1.

A pair l needs only rows r in {l - 1, K + l - 1} of C_out, and in the
eigenbasis J_q = V diag(lam) V^-1 each of its entries is a sum of
Lorentzian poles at the eigenvalues lam_j (`pair_spectral_blocks`).
Everything that depends on the state alone, the O(n^3)
eigendecomposition and the n x n pole weights, comes with J_q from
`linearization.build_quadrature_jacobian`, the state's one linearization,
which the stability spectrum and every pair share (`linearization.eigen_form`).
A pair then costs two (2 x n)(n x n) products and O(n) per frequency,
against about 40 n^3 per frequency for the full C_out of the dense
reference the tests compare against (`output_correlation` in
tests/conftest.py).  A frequency sits on a neutral mode, and its entries
are NaN, when min_j |lam_j + i w kappa| <= n eps max(max|lam|, kappa).

The spectrum at angle phi is S_phi = a + b cos 2phi + c sin 2phi with
a = (C11 + C22)/2, b = (C11 - C22)/2 and c = (C12 + C21)/2, so the
squeezing-optimal angle is solved in closed form (`solve_quadrature_angle`).
With A_l = A_-l = |A_l| e^{i Phi_l}, delta(N_+l - N_-l) = |A_l| (e^{-i Phi_l}
D_l + h.c.), so C11 (`AngleOptimum.blocks`) is also the normalized
photon-number-difference spectrum of pair l.

Nothing here builds text: `cli.run_products` yields the pair products
and their report records from an `AngleOptimum` through `io.csv_text`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linearization import EigenForm, build_quadrature_jacobian
from .spontaneous import SpectrumSeries, default_omega_grid
from .steady_state import CombState
from .units import OBJECTIVES

#: Imaginary residue tolerated on (and stripped from) real spectra.
IMAG_TOL = 1e-10


@dataclass(frozen=True)
class PairSpectralBlocks:
    """Diagonal C_out entries of one mode pair over a frequency grid."""

    omega_over_kappa: np.ndarray
    c11: np.ndarray      # <q q> spectrum of the pair
    c22: np.ndarray      # <p p>
    c12_plus_c21: np.ndarray


@dataclass(frozen=True)
class AngleOptimum:
    Phi_l: float
    delta_Phi: float
    objective: float
    spectrum: SpectrumSeries     # S at delta_Phi in the pair frame
    degenerate: bool
    blocks: PairSpectralBlocks   # C11: the number-difference spectrum


def pair_spectral_blocks(eigen: EigenForm, rho: float,
                         omega_grid: np.ndarray,
                         l: int) -> PairSpectralBlocks:
    """Diagonal pair-l entries of C_out over a dimensionless grid, from
    the `linearization.eigen_form` of a real J_q.

    Row i = l - 1 of block C11 is the q-quadrature spectrum of pair l.
    With mu = lam / kappa, G_+ = (J_q + i w kappa)^-1 = V diag(1/(kappa
    (mu + i w))) V^-1 and G_- = conj G_+; the entries C[r, s] of C_out(1)
    - C_in, for r, s in {l - 1, K + l - 1}, are then pole sums

        sum_j a_j / (mu_j + i w) + sum_k b_k / (conj mu_k - i w),
        a_j = V[r, j] sum_k E_jk conj V[s, k],
        b_k = conj V[s, k] sum_j V[r, j] E_jk,

    with the pole weights E_jk of `eigen_form`, which hold the partial
    fractions of 1 / ((mu_j + i w)(conj mu_k - i w)).  Each double pole
    (j, k) (a neutral mode with itself) adds 4 P_jk V[r, j] conj V[s, k]
    g_+j g_-k, summed per frequency, as its partial fractions would
    cancel to the last digits.  C_out(rho) = C_in + rho (C_out(1) - C_in)
    scales them exactly to rho.  C12 and C21 are summed only after their
    pole sums, so their imaginary residue still reaches the IMAG_TOL
    checks.  Cost per pair: two (2 x n)(n x n) products and O(n) per
    frequency; the O(n^3) and n x n work is the state's, in `eigen_form`.
    A frequency is neutral, and reported as NaN, when
    min_j |mu_j + i w| <= `eigen.tol`.
    """
    mu, V, E = eigen.mu, eigen.V, eigen.E
    j, k, weight = eigen.double
    n = len(mu)
    K = n // 2
    if not 1 <= l <= K:
        raise ValueError(f"pair index l must be in 1..{K}")
    Vr = V[[l - 1, K + l - 1]]
    # (r, s, j): a_j and b_j of entry C[r, s]
    a = Vr[:, None, :] * (Vr.conj() @ E.T)[None, :, :]
    b = (Vr @ E)[:, None, :] * Vr.conj()[None, :, :]
    d = Vr[:, None, j] * Vr.conj()[None, :, k] * weight
    omega_grid = np.asarray(omega_grid, dtype=float)
    iw = 1j * omega_grid[:, None]
    regular = np.min(np.abs(mu + iw), axis=1) > eigen.tol
    g_plus = 1.0 / (mu + iw[regular])
    g_minus = 1.0 / (mu.conj() - iw[regular])
    C = np.full((len(omega_grid), 2, 2), np.nan, dtype=complex)
    C[regular] = (g_plus @ a.reshape(4, n).T + g_minus @ b.reshape(4, n).T
                  + (g_plus[:, j] * g_minus[:, k]) @ d.reshape(4, -1).T
                  ).reshape(-1, 2, 2)
    # C_in is 1 on the diagonal and i, -i off it, so C12 + C21 has no C_in
    return PairSpectralBlocks(omega_grid, 1.0 + rho * C[:, 0, 0],
                              1.0 + rho * C[:, 1, 1],
                              rho * (C[:, 0, 1] + C[:, 1, 0]))


def _real(values: np.ndarray) -> np.ndarray:
    """Real part of `values` once the finite entries' imaginary residue is
    within IMAG_TOL."""
    finite = values[np.isfinite(values)]
    residue = float(np.max(np.abs(finite.imag))) if finite.size else 0.0
    if residue > IMAG_TOL:
        raise FloatingPointError(
            f"quadrature spectrum has imaginary residue {residue:.2e}")
    return values.real


def quadrature_spectrum(blocks: PairSpectralBlocks, phi: float) -> SpectrumSeries:
    """Spectrum of the pair quadrature at angle phi (pair frame).

    S_phi = C11 cos^2 phi + C22 sin^2 phi + (C12 + C21) cos phi sin phi.
    """
    c, s = math.cos(phi), math.sin(phi)
    values = blocks.c11 * c**2 + blocks.c22 * s**2 + blocks.c12_plus_c21 * c * s
    return SpectrumSeries(blocks.omega_over_kappa, _real(values))


def solve_quadrature_angle(blocks: PairSpectralBlocks, half_width: float,
                           objective: str) -> tuple[float, float, bool]:
    """(delta_Phi, objective value, degenerate) minimizing `objective` of
    S_phi over the band 0.1 <= |omega|/kappa <= 10 for |phi| <= half_width.

    S_phi = a + b cos 2phi + c sin 2phi is minimal at 2phi = atan2(-c, -b).
    "band_integral" integrates a, b and c over the band (trapezoid rule on
    sorted |omega|) and takes that angle of the integrals; "min" takes it
    per frequency and keeps the frequency with the lowest value.  Over a
    window that misses the minimum, the sinusoid is lowest at the edge
    nearer to it, which is where np.clip puts phi in (-pi/2, pi/2].  The
    objective is degenerate, and delta_Phi = 0, when its angle-dependent
    amplitude sqrt(b^2 + c^2) is at most 1e-12 max(|objective|, 1).
    C11, C22 and C12 + C21 pass the IMAG_TOL check once, which bounds the
    imaginary residue of S_phi at every angle.  A grid with no finite
    value in the band is a ValueError.
    """
    w = np.abs(blocks.omega_over_kappa)
    c11, c22, cross = _real(np.stack([blocks.c11, blocks.c22,
                                      blocks.c12_plus_c21]))
    sel = (w >= 0.1) & (w <= 10.0) & np.isfinite(c11 + c22 + cross)
    if not np.any(sel):
        x = blocks.omega_over_kappa
        span = f"{np.min(x):g} to {np.max(x):g}" if x.size else "nothing"
        raise ValueError("no frequency with a finite spectrum lies in the "
                         "band 0.1 <= |omega|/kappa <= 10; the grid spans "
                         f"omega/kappa = {span}")
    a, b, c = (c11 + c22)[sel] / 2, (c11 - c22)[sel] / 2, cross[sel] / 2
    if objective == "band_integral":
        # a symmetric grid makes |omega| non-monotonic; sort before integrating
        order = np.argsort(w[sel])
        a, b, c = (np.atleast_1d(np.trapezoid(v[order], w[sel][order]))
                   for v in (a, b, c))
    phi = np.clip(0.5 * np.arctan2(-c, -b), -half_width, half_width)
    values = a + b * np.cos(2.0 * phi) + c * np.sin(2.0 * phi)
    k = int(np.argmin(values))
    if np.max(np.hypot(b, c)) <= 1e-12 * max(abs(values[k]), 1.0):
        return 0.0, float(np.min(a + b)), True
    return float(phi[k]), float(values[k]), False


def optimize_quadrature_angle(state: CombState, l: int,
                              omega_grid: np.ndarray | None = None,
                              half_width: float = math.pi / 4,
                              objective: str = "band_integral") -> AngleOptimum:
    """Angle minimizing a squeezing objective of the pair spectrum.

    J_q is built in the pair's natural frame, so the solved angle is the
    residual offset delta-Phi around the pair phase Phi_l, within
    [-half_width, +half_width]; `solve_quadrature_angle` finds it in
    closed form.  `objective` is either "band_integral" (integral of S
    over 0.1 <= |omega|/kappa <= 10, good for near-Lorentzian dips) or
    "min" (deepest point of S in that band, robust when anti-squeezing at
    low frequency dominates the integral, as for soliton pairs).  Window
    and objective are scenario keys because "best squeezing" is a
    modeling choice, not a law.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    flow = build_quadrature_jacobian(state)
    if omega_grid is None:
        omega_grid = default_omega_grid()
    blocks = pair_spectral_blocks(flow.eigen, state.params.rho, omega_grid,
                                  l)
    delta, obj, degenerate = solve_quadrature_angle(blocks, half_width,
                                                    objective)
    return AngleOptimum(float(flow.pair_rotation[l - 1]), delta, obj,
                        quadrature_spectrum(blocks, delta), degenerate,
                        blocks)

