"""Shared fixtures: the standard CaF2 resonator, cached solver states, the
Parseval oracle of the below-threshold flux, the full fluctuation
matrices (R, S) and their reflection fold, the full-space stability
oracle, the allocating split-step loop, the dense resolvent oracle of the
above-threshold output correlations, the per-pair pole weights, and the
closed forms of a three-mode comb.

Expensive steady-state solves are session-scoped and reused across module
and acceptance tests; each fixture also reports its wall-clock solve time
so runtime budgets can be asserted without re-solving.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from kerrcomb import _modal
from kerrcomb import steady_state as ss
from kerrcomb import units
from kerrcomb.linearization import STABILITY_TOL
from kerrcomb.spontaneous import SpectrumSeries
from kerrcomb.squeezing import PairSpectralBlocks

TWO_PI = 2.0 * math.pi
#: Pump carrier near 1550 nm (rad/s), for hand-built ModalParams.
OMEGA_L = 1.2153e15


def caf2_config(pump_power: float = 2.5e-3, zeta2: float = TWO_PI * 2.9e3,
                detuning: float = 0.0) -> units.ResonatorConfig:
    """mm-size CaF2 add-through resonator pumped near 1550 nm."""
    return units.ResonatorConfig(
        pump_wavelength=1550e-9, main_radius=2.5e-3, group_index=1.43,
        intrinsic_Q=1e9, through_Q=0.25e9, pump_power=pump_power,
        detuning=detuning, gamma=0.001, zeta2=zeta2)


def make_flat(g_over_kappa: float, sigma_over_kappa: float,
              zeta2_over_kappa: float, rho: float = 0.5,
              kappa: float = 1.0, g0: float = 1e-3):
    """Flat state engineered to have g0|A0|^2 = g_over_kappa * kappa.

    Returns (branches, A0) where A0 is the root amplitude with the
    requested photon number.
    """
    N = g_over_kappa * kappa / g0
    sigma = sigma_over_kappa * kappa
    drive = N * (kappa**2 + (sigma + g0 * N) ** 2)
    kappa_t = rho * kappa
    A_in = math.sqrt(drive / (2.0 * kappa_t))
    params = units.ModalParams(
        kappa=kappa, kappa_t=kappa_t, sigma=sigma,
        zeta2=zeta2_over_kappa * kappa, g0=g0, A_in=A_in, rho=rho,
        omega_L=OMEGA_L)
    branches = ss.solve_flat_state(params)
    for A0 in branches.amplitudes:
        if math.isclose(abs(A0) ** 2, N, rel_tol=1e-6):
            return branches, A0
    raise AssertionError(f"no branch matches N = {N}")


def flux_parseval_oracle(l: int, flat) -> float:
    """(1/2pi) integral over omega of the sidemode-l spectral density on
    the lower flat branch, by adaptive quadrature.

    Independent check of the weak-regime closed-form flux: g = g0|A0|^2
    and xi_l = sigma - zeta2 l^2/2 + 2g are derived here, not taken from
    `spontaneous`.
    """
    p = flat.params
    g = p.g0 * abs(flat.lower) ** 2
    xi = p.sigma - 0.5 * p.zeta2 * l**2 + 2.0 * g

    def integrand(w: float) -> float:
        denom = (p.kappa**2 - g**2 + xi**2 - w**2) ** 2 + 4.0 * p.kappa**2 * w**2
        return 4.0 * p.rho * p.kappa**2 * g**2 / denom

    # the lineshape maxima (0 or +/- omega_m) are the breakpoints
    excess = xi**2 - p.kappa**2 - g**2
    peaks = (0.0,) if excess <= 0.0 else (-math.sqrt(excess), math.sqrt(excess))
    total, _ = quad(integrand, -200.0 * p.kappa, 200.0 * p.kappa,
                    points=peaks, limit=400)
    return total / (2.0 * math.pi)


def build_RS(amps: np.ndarray,
             params: units.ModalParams) -> tuple[np.ndarray, np.ndarray]:
    """Fluctuation-flow matrices R and S of order 2K+1, for any field.

    R_lp = -[kappa - i(sigma - zeta2 l^2/2)] delta(p-l)
           + 2 i g0 sum_{m-n=l-p} A_m A_n^*
    S_lp = i g0 sum_{m+n=l+p} A_m A_n

    The oracle of `_modal.reflection_block`, whose blocks are the
    `reflection_blocks` of this (R, S) bit for bit.
    """
    K = (len(amps) - 1) // 2
    n = 2 * K + 1
    l = _modal.mode_numbers(K)
    c1 = np.correlate(amps, amps, mode="full")     # lags d=-2K..2K at index d+2K
    c2 = np.convolve(amps, amps)                   # sums s=-2K..2K at index s+2K
    dmat = l[:, None] - l[None, :]                 # l - p
    smat = l[:, None] + l[None, :]                 # l + p
    R = 2j * params.g0 * c1[dmat + 2 * K]
    R[np.diag_indices(n)] += _modal.linear_rates(params, K)
    S = 1j * params.g0 * c2[smat + 2 * K]
    return R, S


def reflection_blocks(R: np.ndarray, S: np.ndarray) -> tuple[tuple, tuple]:
    """((R_s, S_s), (R_a, S_a)): (R, S) of a field with A_{-l} = A_l, folded
    onto the fluctuations da_{-p} = da_p and da_{-p} = -da_p that its flow
    keeps apart.  Symmetric: rows l = 0..K, columns p and -p added (p = 0
    once).  Antisymmetric: rows l = 1..K, column -p subtracted from p.
    """
    K = (len(R) - 1) // 2
    sym, anti = [], []
    for M in (R, S):
        mirror = M[K:, :K][:, ::-1]            # column -p for p = 1..K
        sym.append(np.hstack([M[K:, K:K + 1], M[K:, K + 1:] + mirror]))
        anti.append(M[K + 1:, K + 1:] - mirror[1:])
    return tuple(sym), tuple(anti)


def full_stability_spectrum(R: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Eigenvalues of the linearized flow from the full-space real Jacobian
    of order 2(2K+1), sorted by descending real part; defined for any field,
    symmetric or not."""
    eig = np.linalg.eigvals(_modal.real_jacobian(R, S))
    return eig[np.argsort(-eig.real)]


def propagate_allocating(amps: np.ndarray, params: units.ModalParams,
                         horizon: float, step: float,
                         limit: float) -> tuple[np.ndarray, float]:
    """`steady_state.propagate` as a loop that allocates both transforms
    and the Kerr phase (a complex scalar times |A|^2) at every step; the
    bit-for-bit oracle of the buffered loop."""
    K = (len(amps) - 1) // 2
    n = ss._fft_size(K)
    idx = _modal.mode_numbers(K) % n
    dt = step / abs(params.kappa)

    lam = _modal.linear_rates(params, K)
    half = np.zeros(n, dtype=complex)
    half[idx] = np.exp(lam * dt / 2.0)
    pump = np.sqrt(2.0 * params.kappa_t) * params.A_in
    pump_half = pump * (half[0] - 1.0) / lam[K]
    kerr = 1j * params.g0 * dt
    limit2 = limit ** 2

    spec = np.zeros(n, dtype=complex)
    spec[idx] = amps
    intensity = np.empty(n)
    phase = np.empty(n, dtype=complex)
    n_steps = max(1, int(round(horizon / step)))

    for i in range(n_steps):
        spec *= half
        spec[0] += pump_half
        field = np.fft.ifft(spec, norm="forward")
        np.abs(field, out=intensity)
        np.square(intensity, out=intensity)
        np.multiply(kerr, intensity, out=phase)
        field *= np.exp(phase, out=phase)
        spec = np.fft.fft(field, norm="forward")
        spec *= half
        spec[0] += pump_half
        if not np.vdot(spec, spec).real <= limit2:
            raise ss.DivergenceError(
                f"field norm passed {limit:.6g} at step {i + 1} of "
                f"{n_steps} (dt = {step}/kappa)",
                spec[idx])
    return spec[idx], ss.residual(spec[idx], params)


def pair_blocks_per_pair(lam: np.ndarray, V: np.ndarray, rho: float,
                         kappa: float, omega_grid: np.ndarray, l: int):
    """Pair-l blocks with every pole weight rebuilt for the pair, from
    P = (V^-1 u)(V^-1 u)^H: the bit-for-bit oracle of
    `squeezing.pair_spectral_blocks` on `linearization.eigen_form`."""
    n = len(lam)
    K = n // 2
    V_inv = np.linalg.inv(V)
    W = V_inv[:, :K] - 1j * V_inv[:, K:]
    P = W @ W.conj().T
    mu = lam / kappa
    Vr = V[[l - 1, K + l - 1]]
    mu_sum = mu[:, None] + mu.conj()[None, :]
    double = np.abs(mu_sum) <= STABILITY_TOL
    E = P * (2.0 + 4.0 / np.where(double, np.inf, mu_sum))
    a = Vr[:, None, :] * (Vr.conj() @ E.T)[None, :, :]
    b = (Vr @ E)[:, None, :] * Vr.conj()[None, :, :]
    j, k = np.nonzero(double)
    d = 4.0 * Vr[:, None, j] * Vr.conj()[None, :, k] * P[j, k]
    omega_grid = np.asarray(omega_grid, dtype=float)
    tol = n * np.finfo(float).eps * max(float(np.max(np.abs(mu))), 1.0)
    iw = 1j * omega_grid[:, None]
    regular = np.min(np.abs(mu + iw), axis=1) > tol
    g_plus = 1.0 / (mu + iw[regular])
    g_minus = 1.0 / (mu.conj() - iw[regular])
    C = np.full((len(omega_grid), 2, 2), np.nan, dtype=complex)
    C[regular] = (g_plus @ a.reshape(4, n).T + g_minus @ b.reshape(4, n).T
                  + (g_plus[:, j] * g_minus[:, k]) @ d.reshape(4, -1).T
                  ).reshape(-1, 2, 2)
    return PairSpectralBlocks(omega_grid, 1.0 + rho * C[:, 0, 0],
                              1.0 + rho * C[:, 1, 1],
                              rho * (C[:, 0, 1] + C[:, 1, 0]))


class ResolventError(np.linalg.LinAlgError):
    """(J_q +/- i omega I) is singular at this frequency (neutral mode)."""


def input_correlation(K: int) -> np.ndarray:
    """Vacuum quadrature correlation matrix C_in = [[I, iI], [-iI, I]]."""
    eye = np.eye(K)
    return np.block([[eye, 1j * eye], [-1j * eye, eye]])


def output_correlation(J_q: np.ndarray, rho: float, kappa: float,
                       omega: float) -> np.ndarray:
    """Output correlation matrix C_out at angular frequency omega (rad/s).

    J_q is real, so (J_q - i w I)^-1 is the complex conjugate of
    (J_q + i w I)^-1 and one inverse serves both resolvents.
    """
    if np.iscomplexobj(J_q):
        raise ValueError("J_q must be real for (J_q - i w I)^-1 = conj G_+")
    n = J_q.shape[0]
    K = n // 2
    eye = np.eye(n)
    C_in = input_correlation(K)
    try:
        G_p = np.linalg.inv(J_q + 1j * omega * eye)
    except np.linalg.LinAlgError as exc:
        raise ResolventError(
            f"J_q -/+ i omega is singular at omega = {omega:g} rad/s "
            "(neutral mode); skip this grid point") from exc
    G_m = G_p.conj()
    T_p = 2.0 * kappa * rho * G_p + eye
    T_m = 2.0 * kappa * rho * G_m + eye
    return (T_p @ C_in @ T_m.T
            + 4.0 * kappa**2 * rho * (1.0 - rho) * (G_p @ C_in @ G_m.T))


def photon_number_difference_spectrum(rho: float, kappa: float,
                                      omega_grid: np.ndarray) -> SpectrumSeries:
    """Normalized spectrum of the output pair photon-number difference of
    a three-mode comb.

    S(w) = 1 - rho * 4 kappa^2 / (w^2 + 4 kappa^2): shot noise at large
    |w|, and 1 - rho at w = 0.  `omega_grid` is in units of `kappa`.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    w = np.asarray(omega_grid, dtype=float) * kappa
    values = 1.0 - rho * 4.0 * kappa**2 / (w**2 + 4.0 * kappa**2)
    return SpectrumSeries(np.asarray(omega_grid, dtype=float), values)


def analytic_three_mode_spectra(kappa_a: float, kappa_p: float, rho: float,
                                omega_grid: np.ndarray, kappa: float = 1.0
                                ) -> tuple[SpectrumSeries, SpectrumSeries]:
    """Exact amplitude and phase quadrature spectra of a three-mode comb.

    S_a(w) = 1 - rho 4 kappa_a^2/(w^2 + 4 kappa_a^2),
    S_p(w) = 1 + rho (4 kappa_a^2/w^2) [1 + 4 kappa_p^2/(w^2 + 4 kappa_a^2)]^2.
    The phase spectrum diverges at w = 0; that point is reported as +inf.
    `omega_grid` is in units of `kappa`.
    """
    w = np.asarray(omega_grid, dtype=float) * kappa
    S_a = 1.0 - rho * 4.0 * kappa_a**2 / (w**2 + 4.0 * kappa_a**2)
    with np.errstate(divide="ignore"):
        S_p = 1.0 + rho * (4.0 * kappa_a**2 / w**2) * (
            1.0 + 4.0 * kappa_p**2 / (w**2 + 4.0 * kappa_a**2)) ** 2
    S_p = np.where(w == 0.0, np.inf, S_p)
    x = np.asarray(omega_grid, dtype=float)
    return SpectrumSeries(x, S_a), SpectrumSeries(x, S_p)


def three_mode_rates(state: ss.CombState) -> tuple[float, float]:
    """Exact amplitude/phase relaxation rates of a three-mode comb.

    For a roll whose only excited modes are 0 and +/-L,
        kappa_a = -g0 |A_0|^2 sin(2 phi_0 - 2 Phi_L),
        kappa_p =  g0 (|A_L|^2 + |A_0|^2 cos(2 phi_0 - 2 Phi_L)),
    with phi_0 the pump-mode phase and Phi_L the pair phase.  A mode with
    more than 1e-10 of the peak intensity counts as excited.
    """
    if state.pattern is not ss.PatternKind.ROLL or state.roll_order is None:
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


def _timed(solve):
    t0 = time.perf_counter()
    state = solve()
    return state, time.perf_counter() - t0


@pytest.fixture(scope="session")
def vi_c_budget():
    return units.derive_loss_budget(caf2_config())


@pytest.fixture(scope="session")
def roll20(vi_c_budget):
    """Roll(20) at P = 2.5 mW, sigma = -kappa (initial-condition selected)."""
    cfg = caf2_config(pump_power=2.5e-3, detuning=-vi_c_budget.kappa)
    params = units.modal_params(cfg)
    return _timed(lambda: ss.find_steady_state(
        params, kind="roll", seed=0, target_order=20))


@pytest.fixture(scope="session")
def three_mode(vi_c_budget):
    """Exact three-mode comb: P = 1.01 P_th, sigma = -kappa, K < 2L."""
    p_th = units.threshold_pump_power(
        units.modal_params(caf2_config(detuning=-vi_c_budget.kappa)))
    params = units.modal_params(
        caf2_config(pump_power=1.01 * p_th, detuning=-vi_c_budget.kappa))
    return _timed(lambda: ss.find_steady_state(
        params, kind="roll", seed=0, K=20, horizon=8000.0))


@pytest.fixture(scope="session")
def bright_soliton(vi_c_budget):
    cfg = caf2_config(pump_power=4e-3, detuning=-2.0 * vi_c_budget.kappa)
    params = units.modal_params(cfg)
    return _timed(lambda: ss.find_steady_state(
        params, kind="bright_soliton", horizon=500.0))


@pytest.fixture(scope="session")
def dark_soliton(vi_c_budget):
    cfg = caf2_config(pump_power=5.3e-3, zeta2=-TWO_PI * 2.9e3,
                      detuning=-2.5 * vi_c_budget.kappa)
    params = units.modal_params(cfg)
    return _timed(lambda: ss.find_steady_state(
        params, kind="dark_soliton", horizon=500.0))
