"""Below-threshold spontaneous four-wave mixing from a flat pumped state.

With the pump below the oscillation threshold the sidemodes stay empty on
average, yet vacuum fluctuations are parametrically scattered into
symmetric pairs (+l, -l).  All quantities here follow in closed form from
the flat intracavity amplitude A0: the output photon-flux spectral
density per sidemode, its lineshape, the spectral envelope across modes,
integrated photon fluxes in the weak/strong/very-weak pumping regimes
and the total emitted power.

Spectra are dimensionless and sampled on an omega/kappa grid
(`default_omega_grid`); conversion to SI output power is left to the
callers (P = hbar * omega_L * R).  Everything here returns numbers and
arrays; `cli.run_products` yields them as product files formatted by
`io.csv_text`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .steady_state import FlatStateBranches
from .units import HBAR, ModalParams

#: Default spectral window (units of kappa) and sampling.
OMEGA_WINDOW = 20.0
OMEGA_POINTS = 2048
#: |m_l| <= SINGULAR_RTOL kappa^2 counts as m_l = 0.  There the flat cubic
#: has a double root, resolved only to ~sqrt(eps) = 1.5e-8 relative, so a
#: point exactly on m_l = 0 computes as |m_l| ~ 1e-7 kappa^2.
SINGULAR_RTOL = 1e-6


class NearThresholdError(FloatingPointError):
    """A pair sits on its own threshold m_l = 0, where its spectrum, its
    lineshape peak and its flux diverge: linearized fluctuation theory
    breaks down in the regime of large quantum fluctuations."""


class LineShapeKind(enum.Enum):
    SINGLE_PEAKED = "single_peaked"
    DOUBLE_PEAKED = "double_peaked"


@dataclass(frozen=True)
class SpectrumSeries:
    """Samples of a spectral density over omega/kappa."""

    x: np.ndarray
    values: np.ndarray


def default_omega_grid(n: int = 1024, w_max: float = 10.0) -> np.ndarray:
    """Symmetric omega/kappa grid of n points on [-w_max, w_max], without
    the points within 1e-3 of 0."""
    grid = np.linspace(-w_max, w_max, n)
    return grid[np.abs(grid) >= 1e-3]


def _square(x):
    """x**2 by libm's pow, as Python squares a float (numpy's ** squares an
    array as x*x, which differs in the last bit for about 1e-3 of x), so
    every entry equals one mode's scalar arithmetic."""
    return np.float_power(x, 2)


def _shifts(l: int | np.ndarray, flat: FlatStateBranches) -> tuple:
    """(g^2, xi_l^2, m_l = kappa^2 + xi_l^2 - g^2) of sidemode l, with
    g = g0 |A0|^2 and xi_l = sigma - zeta2 l^2/2 + 2g on the lower flat
    branch (the state a pump ramp from zero reaches); `l` is an int or an
    integer array.  Raises NearThresholdError, naming the first such l, on
    m_l = 0, pair l's own threshold, where the omega = 0 spectrum, the
    lineshape peak and the flux diverge."""
    p = flat.params
    g = p.g0 * abs(flat.lower) ** 2
    xi2 = _square(p.sigma - 0.5 * p.zeta2 * l**2 + 2.0 * g)
    m = p.kappa**2 + xi2 - g**2
    singular = abs(m) <= SINGULAR_RTOL * p.kappa**2
    if np.count_nonzero(singular):
        l_0 = np.ravel(l)[np.argmax(singular)]
        raise NearThresholdError(f"mode l={l_0} sits on m_l = kappa^2 + "
                                 "xi_l^2 - g^2 = 0, where linearized "
                                 "below-threshold theory diverges")
    return g**2, xi2, m


def spontaneous_spectrum(l: int, flat: FlatStateBranches,
                         omega_grid: np.ndarray) -> SpectrumSeries:
    """Output photon-flux spectral density of sidemode l (dimensionless)
    on `omega_grid` (units of kappa).

    S_l(omega) = 4 rho kappa^2 g^2 /
                 ([kappa^2 - g^2 + xi_l^2 - omega^2]^2 + 4 kappa^2 omega^2)
    diverges at omega = 0 on m_l = 0, and there raises NearThresholdError.
    """
    p = flat.params
    g2, xi2, _ = _shifts(l, flat)
    w = omega_grid * p.kappa
    denom = (p.kappa**2 - g2 + xi2 - w**2) ** 2 + 4.0 * p.kappa**2 * w**2
    values = 4.0 * p.rho * p.kappa**2 * g2 / denom
    return SpectrumSeries(np.asarray(omega_grid, dtype=float), values)


def lineshape_peaks(ls: np.ndarray, flat: FlatStateBranches) -> tuple:
    """(kind, peak, w_m) of the sidemodes ls, an integer array: the
    lineshape kind (a `LineShapeKind` value), the peak spectral density
    and the peak frequency (rad/s).

    The spectrum is single-peaked, with its maximum 4 rho kappa^2 g^2 /
    m_l^2 at omega = 0 (w_m = 0), iff xi_l^2 <= kappa^2 + g^2; otherwise
    its maxima rho g^2 / (xi_l^2 - g^2) sit at +/- w_m,
    w_m = sqrt(xi_l^2 - kappa^2 - g^2).  Raises NearThresholdError,
    naming the first such l, on m_l = 0, where the single peak diverges.
    """
    p = flat.params
    g2, xi2, _ = _shifts(ls, flat)
    excess = xi2 - p.kappa**2 - g2
    double = excess > 0.0
    single = 4.0 * p.rho * p.kappa**2 * g2 / _square(p.kappa**2 - g2 + xi2)
    # xi_l^2 = g^2 can occur only where the single form applies
    peak = np.where(double, p.rho * g2 / np.where(double, xi2 - g2, 1.0),
                    single)
    kind = np.where(double, LineShapeKind.DOUBLE_PEAKED.value,
                    LineShapeKind.SINGLE_PEAKED.value)
    return kind, peak, np.sqrt(np.maximum(excess, 0.0))


def mode_spectra(modes: list[int], flat: FlatStateBranches):
    """The per-mode spectra: for each sidemode l of `modes`, in order,
    (l, lineshape kind, peak frequencies over kappa, `SpectrumSeries`).

    One `lineshape_peaks` evaluation over the modes gives each kind and
    w_m.  A mode's spectrum is sampled on OMEGA_POINTS points over
    +/- max(OMEGA_WINDOW, w_m/kappa + 10), which covers both maxima of a
    double-peaked lineshape; OMEGA_POINTS - 1 is odd, so no point lies
    near 0 and `default_omega_grid` drops none.  Modes on one window share
    one grid array, which stays alive while the generator runs.  A mode
    on m_l = 0 raises NearThresholdError before any mode is yielded.
    """
    ls = np.asarray(modes, dtype=int)
    kinds, _, w_m = lineshape_peaks(ls, flat)
    w = w_m / flat.params.kappa
    windows = np.maximum(OMEGA_WINDOW, w + 10.0)
    grids = {}                      # window -> its omega/kappa grid
    for l, kind, w_l, window in zip(ls.tolist(), kinds.tolist(), w.tolist(),
                                    windows.tolist()):
        if window not in grids:
            grids[window] = default_omega_grid(OMEGA_POINTS, window)
        peaks = ([-w_l, w_l] if kind == LineShapeKind.DOUBLE_PEAKED.value
                 else [0.0])
        yield l, kind, peaks, spontaneous_spectrum(l, flat, grids[window])


def envelope_peaks(flat: FlatStateBranches) -> tuple[int, ...]:
    """Modes maximizing the spectral envelope.

    The envelope has two maxima near l = +/- sqrt(2(sigma + 2g)/zeta2)
    when that radicand is positive, otherwise a single maximum at l = 0.
    zeta2 = 0 raises ZeroDivisionError: the envelope is flat.
    """
    p = flat.params
    if p.zeta2 == 0.0:
        raise ZeroDivisionError(
            "zeta2 = 0 gives a flat spectral envelope, with no peak modes")
    xi_0 = p.sigma + 2.0 * p.g0 * abs(flat.lower) ** 2
    radicand = 2.0 * xi_0 / p.zeta2
    if radicand <= 0.0:
        return (0,)
    l_peak = int(round(math.sqrt(radicand)))
    return (-l_peak, l_peak)


def sidemode_flux(l: int | np.ndarray, flat: FlatStateBranches) -> tuple:
    """Integrated photon flux of sidemode l and the matching output power.

    Returns (R in photons/s, P_out in W, regime tag); `l` may be an int or
    an integer array, and each result takes its shape.  The weak-pumping
    form holds for g^2 < kappa^2 + xi_l^2 and the strong-pumping form for
    g^2 > kappa^2 + xi_l^2; on the boundary m_l = 0 between them, pair
    l's own threshold, both closed forms diverge: NearThresholdError.
    """
    p = flat.params
    g2, xi2, margin = _shifts(l, flat)
    weak = margin > 0.0
    R = p.rho * p.kappa * g2 / margin
    if g2 > p.kappa**2:                 # else every mode is weak
        R = np.where(weak, R, p.rho * p.kappa**2 * g2 / (
            math.sqrt(g2 - p.kappa**2) * (g2 - p.kappa**2 - xi2)))
    return R, HBAR * p.omega_L * R, np.where(weak, "weak", "strong")


def very_weak_flux(l: int | np.ndarray,
                   p: ModalParams) -> tuple[float | np.ndarray, float]:
    """Sidemode photon flux in the very-weak-pumping limit, with R_max.

    R(l) = R_max / ([1 + (sigma/kappa)^2]^2 [1 + (sigma - zeta2 l^2/2)^2/kappa^2]),
    R_max = 4 rho g0^2 kappa_t^2 / kappa^5 * (A_in^2)^2,
    with A_in^2 = P / hbar omega_L the pump photon flux; `l` may be an array.
    """
    s, kappa = p.sigma, p.kappa
    flux = p.A_in**2
    n_flat = 2.0 * p.kappa_t * flux / (kappa**2 + s**2)
    if n_flat > 1e-2 * kappa / p.g0:
        raise ValueError(
            "pump too strong for the very-weak expansion: "
            f"g0|A0|^2/kappa ~ {p.g0 * n_flat / kappa:.3g} exceeds 1e-2")
    R_max = 4.0 * p.rho * p.g0**2 * p.kappa_t**2 / kappa**5 * flux**2
    bracket0 = 1.0 + (s / kappa) ** 2
    bracket_l = 1.0 + ((s - 0.5 * p.zeta2 * l**2) / kappa) ** 2
    return R_max / (bracket0**2 * bracket_l), R_max


def total_spontaneous_power(p: ModalParams) -> tuple[float, float]:
    """Total spontaneously emitted power (W) in the very-weak regime.

    Returns the closed-form continuous approximation and, for validation,
    the discrete sum of hbar*omega_L*R(l) far past the envelope's peak.

    P_total = hbar omega_L R_max pi sqrt(kappa/|zeta2|)
              * [1 + (sigma/kappa)^2]^(-9/4)
              * [1 + sgn(zeta2) (sigma/kappa)/sqrt(1 + (sigma/kappa)^2)]^(1/2).

    This is the exact continuous-in-l integral of the very-weak flux,
    via  int du / (1 + (u^2 - a)^2)
         = (pi/sqrt(2)) (1+a^2)^(-1/4) [1 + a/sqrt(1+a^2)]^(1/2)
    with a = sgn(zeta2) sigma/kappa (the dispersion curve only crosses the
    pump resonance when sigma and zeta2 share a sign).
    """
    zeta2, s, kappa = p.zeta2, p.sigma, p.kappa
    if zeta2 == 0.0:
        raise ZeroDivisionError(
            "zeta2 = 0 gives an unphysical divergence of the total "
            "spontaneous power (every mode would emit equally)")
    # cover the envelope far past its peak scale sqrt(2|s|+..)/zeta2
    l_scale = math.sqrt(max(2.0 * abs(s), kappa) / abs(zeta2))
    l_max = max(10 * int(math.ceil(l_scale)), 200)
    fluxes, R_max = very_weak_flux(np.arange(-l_max, l_max + 1), p)
    a = float(np.sign(zeta2)) * s / kappa
    one_plus = 1.0 + a**2
    closed = (HBAR * p.omega_L * R_max * math.pi
              * math.sqrt(kappa / abs(zeta2))
              * one_plus ** (-2.25)
              * math.sqrt(1.0 + a / math.sqrt(one_plus)))
    discrete = float(HBAR * p.omega_L * fluxes.sum())
    return closed, discrete

