"""Low-level modal algebra shared by the steady-state solver and the
fluctuation-Jacobian builder, including the one matrix of the linearized
flow, `real_jacobian`, and the one builder of its l <-> -l blocks,
`reflection_block`: Newton steps on the symmetric block, J_q is the
antisymmetric one, and the stability spectrum takes both.

Amplitude vectors are complex arrays of length 2K+1 in natural mode order
l = -K..K (index l + K).  All sums over interacting modes are exact
truncated convolutions/correlations, never aliased FFT products.
"""

from __future__ import annotations

import numpy as np

from .units import ModalParams


def mode_numbers(K: int) -> np.ndarray:
    return np.arange(-K, K + 1)


def linear_rates(params: ModalParams, K: int) -> np.ndarray:
    """Per-mode linear coefficient -kappa + i(sigma - zeta2 l^2 / 2)."""
    l = mode_numbers(K)
    return -params.kappa + 1j * (params.sigma - 0.5 * params.zeta2 * l**2)


def kerr_term(amps: np.ndarray, g0: float) -> np.ndarray:
    """i g0 * sum_{m-n+p=l} A_m A_n^* A_p for every l in -K..K."""
    K = (len(amps) - 1) // 2
    # c1[d + 2K] = sum_m A_m A_{m-d}^*  (autocorrelation at lags -2K..2K)
    c1 = np.correlate(amps, amps, mode="full")
    cubic = np.convolve(c1, amps)          # lags -3K..3K, length 6K+1
    return 1j * g0 * cubic[2 * K: 4 * K + 1]


def drive_vector(params: ModalParams, K: int) -> np.ndarray:
    d = np.zeros(2 * K + 1, dtype=complex)
    d[K] = np.sqrt(2.0 * params.kappa_t) * params.A_in
    return d


def vector_field(amps: np.ndarray, params: ModalParams) -> np.ndarray:
    """Deterministic modal flow dA_l/dt."""
    K = (len(amps) - 1) // 2
    return (linear_rates(params, K) * amps
            + drive_vector(params, K)
            + kerr_term(amps, params.g0))


def reflection_block(amps: np.ndarray, params: ModalParams,
                     sign: int) -> tuple[np.ndarray, np.ndarray]:
    """(R_b, S_b): the flow matrices (R, S) of a field with A_{-l} = A_l
    on the fluctuations da_{-p} = sign da_p, which its flow keeps apart.
    With c1[d] = sum_{m-n=d} A_m A_n^* and c2[d] = sum_{m+n=d} A_m A_n,

        R_b[l, p] = 2 i g0 c1[l-p] + delta(l-p) rate_l + sign 2 i g0 c1[l+p]
        S_b[l, p] = i g0 c2[l+p] + sign i g0 c2[l-p]

    (rate_l of `linear_rates`) for l, p = 0..K, with no mirror term in
    column p = 0, if sign = 1, and for l, p = 1..K if sign = -1.
    """
    K = (len(amps) - 1) // 2
    l = np.arange(0 if sign > 0 else 1, K + 1)
    diff = l[:, None] - l[None, :] + 2 * K     # index of lag l - p
    summ = l[:, None] + l[None, :] + 2 * K     # index of lag l + p
    # 2 i g0 c1 and i g0 c2 at lags -2K..2K
    r = 2j * params.g0 * np.correlate(amps, amps, mode="full")
    s = 1j * params.g0 * np.convolve(amps, amps)
    R = r[diff]
    R[np.diag_indices(len(l))] += linear_rates(params, K)[l + K]
    S = s[summ]
    fold = np.add if sign > 0 else np.subtract
    p = slice(1 - l[0], None)                  # columns p >= 1
    fold(R[:, p], r[summ[:, p]], out=R[:, p])
    fold(S[:, p], s[diff[:, p]], out=S[:, p])
    return R, S


def real_jacobian(R: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Jacobian of the flow in stacked real coordinates [Re A; Im A].

    dF = R dA + S dA* maps to [[Re(R+S), -Im(R-S)], [Im(R+S), Re(R-S)]].
    """
    a = R + S
    b = R - S
    return np.block([[a.real, -b.imag], [a.imag, b.real]])

