"""Low-level modal algebra shared by the steady-state solver and the
fluctuation-Jacobian builder, including the one matrix of the linearized
flow, `real_jacobian`, and the one l <-> -l fold of it,
`reflection_blocks`: Newton steps on the symmetric block, J_q is the
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


def build_RS(amps: np.ndarray, params: ModalParams) -> tuple[np.ndarray, np.ndarray]:
    """Fluctuation-flow matrices R and S of order 2K+1.

    R_lp = -[kappa - i(sigma - zeta2 l^2/2)] delta(p-l)
           + 2 i g0 sum_{m-n=l-p} A_m A_n^*
    S_lp = i g0 sum_{m+n=l+p} A_m A_n
    """
    K = (len(amps) - 1) // 2
    n = 2 * K + 1
    l = mode_numbers(K)
    c1 = np.correlate(amps, amps, mode="full")     # lags d=-2K..2K at index d+2K
    c2 = np.convolve(amps, amps)                   # sums s=-2K..2K at index s+2K
    dmat = l[:, None] - l[None, :]                 # l - p
    smat = l[:, None] + l[None, :]                 # l + p
    R = 2j * params.g0 * c1[dmat + 2 * K]
    R[np.diag_indices(n)] += linear_rates(params, K)
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


def real_jacobian(R: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Jacobian of the flow in stacked real coordinates [Re A; Im A].

    dF = R dA + S dA* maps to [[Re(R+S), -Im(R-S)], [Im(R+S), Re(R-S)]].
    """
    a = R + S
    b = R - S
    return np.block([[a.real, -b.imag], [a.imag, b.real]])

