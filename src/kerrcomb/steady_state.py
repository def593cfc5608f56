"""Stationary intracavity field patterns of a driven Kerr resonator.

The modal amplitudes A_l (photon-number normalized, frame rotating at the
pump and on the cold-cavity grid) obey

    dA_l/dt = -[kappa - i(sigma - zeta2 l^2/2)] A_l
              + delta(l) sqrt(2 kappa_t) A_in
              + i g0 sum_{m-n+p=l} A_m A_n^* A_p .

This module finds roots of that flow: the homogeneous (flat) branches in
closed form, and patterned states (rolls, bright/dark solitons) by
split-step relaxation followed by Newton refinement on A_{-l} = A_l.
`find_steady_state` runs one loop: relax one chunk, refine, classify and
gate on stability; it returns the first root of the requested kind that
is stable, so the relaxation horizon is a cap rather than the cost of
every solve.  The chunks double from RELAX_FIRST up to RELAX_CHUNK, so a
seed that already lies next to its root is handed off after 0.5/kappa.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath

from . import _modal
from .units import ModalParams, default_mode_cutoff

#: Relative Newton residual (|F| / (kappa |A|)) accepted as stationary.
NEWTON_TOL = 1e-12
#: Relative flow norm at which split-step relaxation hands off to Newton.
RELAX_TOL = 1e-7
#: Split-step size of relaxation, in units of 1/kappa.
RELAX_STEP = 5e-2
#: Relaxation time before the first Newton trial, in units of 1/kappa;
#: the wait then doubles (0.5, 1, 2, 4, 8) up to RELAX_CHUNK.
RELAX_FIRST = 0.5
#: Relaxation time between two late Newton trials, in units of 1/kappa;
#: at K = 72 a rejected trial costs 10 to 65% of one chunk (a quarter in
#: the median).
RELAX_CHUNK = 16.0
#: Multiple of the energy bound at which a relaxed field counts as runaway;
#: a damped flow never exceeds the bound itself.
RUNAWAY_FACTOR = 10.0
#: Relative modal intensity below which a mode counts as unexcited.
PATTERN_FLOOR = 1e-12


class PatternKind(enum.Enum):
    FLAT = "flat"
    ROLL = "roll"
    BRIGHT_SOLITON = "bright_soliton"
    DARK_SOLITON = "dark_soliton"
    UNCLASSIFIED = "unclassified"


class DivergenceError(RuntimeError):
    """Split-step propagation blew up (non-finite or runaway norm)."""

    def __init__(self, message: str, last_amps: np.ndarray | None = None):
        super().__init__(message)
        self.last_amps = last_amps


class RefinementError(RuntimeError):
    """Newton iteration failed to enter its quadratic convergence basin."""

    def __init__(self, message: str, best_amps: np.ndarray | None = None,
                 best_residual: float = np.inf):
        super().__init__(message)
        self.best_amps = best_amps
        self.best_residual = best_residual


@dataclass(frozen=True)
class FlatStateBranches:
    """Real roots N of the homogeneous steady-state cubic.

    N [kappa^2 + (sigma + g0 N)^2] = 2 kappa_t A_in^2, with the complex
    amplitude recovered as A0 = sqrt(2 kappa_t) A_in / (kappa - i(sigma+g0 N)).
    """

    photon_numbers: tuple[float, ...]        # ascending
    amplitudes: tuple[complex, ...]
    params: ModalParams

    @property
    def lower(self) -> complex:
        return self.amplitudes[0]

    @property
    def upper(self) -> complex:
        return self.amplitudes[-1]

    @property
    def bistable(self) -> bool:
        return len(self.photon_numbers) == 3


@dataclass(frozen=True)
class CombState:
    """A (candidate) stationary modal field; every state
    `find_steady_state` returns has A_{-l} = A_l exactly.  The amplitudes
    are made read-only, so the linearization a state keeps cannot go
    stale."""

    amplitudes: np.ndarray                   # complex, natural order -K..K
    params: ModalParams
    residual_norm: float                     # max|dA/dt| / (kappa ||A||)
    pattern: PatternKind = PatternKind.UNCLASSIFIED
    roll_order: int | None = None

    def __post_init__(self) -> None:
        self.amplitudes.flags.writeable = False

    @functools.cached_property
    def linearization(self):
        """The flow linearized around this state, a
        `linearization.Linearization`, built at the first read."""
        # linearization imports this module, so it is imported at call time
        from . import linearization
        return linearization._linearize(self)

    @property
    def K(self) -> int:
        return (len(self.amplitudes) - 1) // 2

    @property
    def photon_number(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    @property
    def intensities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def solve_flat_state(params: ModalParams) -> FlatStateBranches:
    """All real nonnegative roots of the homogeneous cubic, ascending."""
    g0, kappa, sigma = params.g0, params.kappa, params.sigma
    drive = 2.0 * params.kappa_t * params.A_in**2
    # g0^2 N^3 + 2 sigma g0 N^2 + (kappa^2 + sigma^2) N - drive = 0
    roots = np.roots([g0**2, 2.0 * sigma * g0, kappa**2 + sigma**2, -drive])
    real = np.sort(roots[np.abs(roots.imag) < 1e-8 * np.abs(roots).max()].real)
    real = real[real >= 0.0]
    amps = tuple(np.sqrt(2.0 * params.kappa_t) * params.A_in
                 / (kappa - 1j * (sigma + g0 * N)) for N in real)
    return FlatStateBranches(tuple(float(N) for N in real), amps, params)


def residual(amps: np.ndarray, params: ModalParams) -> float:
    """Dimensionless flow norm max_l |dA_l/dt| / (|kappa| ||A||)."""
    return _flow_residual(amps, _modal.vector_field(amps, params), params)


def _flow_residual(amps: np.ndarray, F: np.ndarray,
                   params: ModalParams) -> float:
    """`residual` of `amps` from its already evaluated flow F."""
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        return np.inf
    return float(np.max(np.abs(F))) / (abs(params.kappa) * norm)


def field_on_circle(amps: np.ndarray, n_theta: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Angular field A(theta) = sum_l A_l exp(i l theta) on a uniform grid."""
    K = (len(amps) - 1) // 2
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    spec = np.zeros(n_theta, dtype=complex)
    spec[np.arange(-K, K + 1) % n_theta] = amps
    return theta, n_theta * np.fft.ifft(spec)


# ---------------------------------------------------------------------------
# split-step relaxation
# ---------------------------------------------------------------------------

def _fft_size(K: int) -> int:
    """Padded grid large enough that the cubic term is alias-free."""
    n = 1
    while n < 3 * (2 * K + 1):
        n *= 2
    return n


def _runaway_limit(amps: np.ndarray, params: ModalParams) -> float:
    """Norm past which a field relaxed from `amps` counts as diverged.

    A damped flow obeys the energy bound ||A(t)|| <= max(||A(0)||,
    |sqrt(2 kappa_t) A_in| / kappa): the Kerr term conserves the norm and
    the linear part pulls it toward the drive level.  The split-step
    scheme keeps the bound too (its linear half-steps are exact and its
    Kerr step only rotates phases and drops out-of-band power), so only
    an amplifying flow can cross a multiple of it.
    """
    pump = np.sqrt(2.0 * params.kappa_t) * params.A_in
    return RUNAWAY_FACTOR * max(float(np.linalg.norm(amps)),
                                abs(pump) / abs(params.kappa))


def propagate(amps: np.ndarray, params: ModalParams, horizon: float,
              step: float, limit: float) -> tuple[np.ndarray, float]:
    """Relax the modal flow by Strang-split integration.

    `horizon` and `step` are in units of 1/|kappa|.  The linear + drive
    half-step is exact in mode space (the driven mode gets the exact
    affine update); the Kerr step is an exact phase rotation in angle
    space on an alias-free padded grid.  Takes exactly round(horizon/step)
    steps, with no early stop, and returns the final amplitudes and their
    dimensionless residual.  Raises DivergenceError at the first step
    whose field norm exceeds `limit` (the `_runaway_limit` of the field
    the whole relaxation started from) or is not finite.

    The field stays on the padded grid between steps; the linear factor is
    zero outside the 2K+1 modes, which drops the out-of-band power.  The
    grid size is a power of two, so scaling only the forward transform by
    1/n rounds exactly like a scaled inverse transform multiplied by n.
    A step allocates nothing: both transforms write into fixed buffers
    and call numpy's pocketfft gufuncs with the factors that `np.fft`'s
    norm="forward" passes them (1 inverse, 1/n forward), the same kernel
    and rounding without its per-call wrapper; the Kerr phase g0 dt |A|^2
    goes into the imaginary part of a buffer whose real part stays zero,
    the same numbers that the complex product i g0 dt |A|^2 gives.
    """
    K = (len(amps) - 1) // 2
    n = _fft_size(K)
    idx = _modal.mode_numbers(K) % n
    dt = step / abs(params.kappa)

    lam = _modal.linear_rates(params, K)
    half = np.zeros(n, dtype=complex)
    half[idx] = np.exp(lam * dt / 2.0)
    pump = np.sqrt(2.0 * params.kappa_t) * params.A_in
    pump_half = pump * (half[0] - 1.0) / lam[K]
    kerr = params.g0 * dt
    limit2 = limit ** 2

    spec = np.zeros(n, dtype=complex)
    spec[idx] = amps
    field = np.empty(n, dtype=complex)
    intensity = np.empty(n)
    phase = np.zeros(n, dtype=complex)      # 0 + i g0 dt |A|^2
    rotation = np.empty(n, dtype=complex)
    n_steps = max(1, int(round(horizon / step)))

    for i in range(n_steps):
        spec *= half
        spec[0] += pump_half
        _pocketfft_umath.ifft(spec, 1.0, out=field)
        np.abs(field, out=intensity)
        np.square(intensity, out=intensity)
        np.multiply(kerr, intensity, out=phase.imag)
        field *= np.exp(phase, out=rotation)
        _pocketfft_umath.fft(field, 1.0 / n, out=spec)
        spec *= half
        spec[0] += pump_half
        if not np.vdot(spec, spec).real <= limit2:   # also catches inf, nan
            raise DivergenceError(
                f"field norm passed {limit:.6g} at step {i + 1} of "
                f"{n_steps} (dt = {step}/kappa)",
                spec[idx])
    return spec[idx], residual(spec[idx], params)


# ---------------------------------------------------------------------------
# Newton refinement
# ---------------------------------------------------------------------------

def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Rigidly rotate a pattern so that its strongest sidemode pair l0 has
    arg A_{l0} = arg A_{-l0}, then project it onto A_{-l} = A_l exactly."""
    K = (len(a) - 1) // 2
    I = np.abs(a) ** 2
    I0 = np.where(_modal.mode_numbers(K) == 0, 0.0, I)
    if I0.max() > PATTERN_FLOOR * I.max():
        l0 = abs(int(np.argmax(I0)) - K)
        theta0 = -(np.angle(a[K + l0]) - np.angle(a[K - l0])) / (2.0 * l0)
        a = a * np.exp(1j * _modal.mode_numbers(K) * theta0)
    return 0.5 * (a + a[::-1])


def refine(amps: np.ndarray, params: ModalParams) -> tuple[np.ndarray, float]:
    """Polish a near-stationary field by at most 60 full Newton steps.

    The field is rotated and projected onto A_{-l} = A_l (`_symmetrize`),
    and each step solves the symmetric `_modal.reflection_block` for modes
    0..K by LU and mirrors it onto -l, so the root satisfies
    a[::-1] == a exactly.  That block has no neutral mode (rigid rotation
    is antisymmetric), so no least-squares step is needed.
    """
    a = _symmetrize(amps.astype(complex))
    K = (len(a) - 1) // 2
    best, best_res = a, np.inf
    worse_streak = 0
    for _ in range(60):
        F = _modal.vector_field(a, params)
        res = _flow_residual(a, F, params)
        if res < best_res:
            best, best_res, worse_streak = a.copy(), res, 0
        else:
            worse_streak += 1
            if worse_streak >= 3:
                raise RefinementError(
                    "Newton iteration stalled outside its convergence basin",
                    best, best_res)
        if res <= NEWTON_TOL:
            return a, res
        sym = _modal.reflection_block(a, params, 1)
        rhs = -np.concatenate([F[K:].real, F[K:].imag])
        dx = np.linalg.solve(_modal.real_jacobian(*sym), rhs)
        d = dx[:K + 1] + 1j * dx[K + 1:]
        a = a + np.concatenate([d[:0:-1], d])
        if not np.isfinite(a).all():
            raise RefinementError("Newton step produced non-finite amplitudes",
                                  best, best_res)
    raise RefinementError(
        f"Newton did not reach tolerance {NEWTON_TOL:g} in 60 iterations",
        best, best_res)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify(amps: np.ndarray, params: ModalParams) -> tuple[PatternKind, int | None]:
    """Label a stationary field by its excited-mode structure.

    Rolls excite only multiples of a fundamental order L >= 2; solitons
    excite every mode, with bright vs dark decided by whether the angular
    intensity is a localized peak or a localized dip on its pedestal.
    """
    I = np.abs(amps) ** 2
    K = (len(amps) - 1) // 2
    floor = PATTERN_FLOOR * I.max()
    excited = np.flatnonzero(I > floor) - K
    side = np.abs(excited[excited != 0])
    if side.size == 0:
        return PatternKind.FLAT, None
    L = int(side.min())
    if L >= 2 and np.all(side % L == 0):
        return PatternKind.ROLL, L
    if L == 1 and side.size <= 2:
        return PatternKind.ROLL, 1
    _, field = field_on_circle(amps, 1024)
    prof = np.abs(field) ** 2
    med = float(np.median(prof))
    peak = prof.max() - med
    dip = med - prof.min()
    if peak > 3.0 * dip and params.zeta2 > 0:
        return PatternKind.BRIGHT_SOLITON, None
    if dip > 3.0 * peak and params.zeta2 < 0:
        return PatternKind.DARK_SOLITON, None
    return PatternKind.UNCLASSIFIED, None


# ---------------------------------------------------------------------------
# seeds and driver
# ---------------------------------------------------------------------------

def _flat_vector(branch_amp: complex, K: int) -> np.ndarray:
    a = np.zeros(2 * K + 1, dtype=complex)
    a[K] = branch_amp
    return a


def seed_roll(params: ModalParams, K: int, seed: int = 0,
              target_order: int | None = None) -> np.ndarray:
    """Flat lower branch plus deterministic broadband noise (1e-6 relative).

    With `target_order` set, a small coherent modulation at that order is
    added on top of the noise.  Several roll orders inside the instability
    band are stable attractors; which one a run settles on depends on the
    initial condition: the noise `seed` and `target_order` select it.
    """
    branches = solve_flat_state(params)
    a = _flat_vector(branches.lower, K)
    rng = np.random.default_rng(seed)
    scale = max(abs(branches.lower), 1.0)
    a += 1e-6 * scale * (rng.standard_normal(2 * K + 1)
                          + 1j * rng.standard_normal(2 * K + 1))
    if target_order is not None:
        if not 1 <= target_order <= K:
            raise ValueError("target_order must be in 1..K")
        a[K + target_order] += 1e-3 * scale
        a[K - target_order] += 1e-3 * scale
    return a


def _seed_modes(field_at, K: int) -> np.ndarray:
    """Modal amplitudes -K..K of the field `field_at(theta)`, sampled on
    the padded grid theta in [-pi, pi)."""
    n = _fft_size(K)
    theta = np.linspace(-np.pi, np.pi, n, endpoint=False)
    spec = np.fft.fft(field_at(theta)) / n
    # undo the theta offset: grid starts at -pi, not 0
    spec *= np.exp(-1j * np.fft.fftfreq(n, d=1.0 / n) * np.pi)
    return spec[_modal.mode_numbers(K) % n].astype(complex)


def seed_bright_soliton(params: ModalParams, K: int) -> np.ndarray:
    """Analytic sech pulse on the lower flat background (zeta2 > 0)."""
    if params.zeta2 <= 0:
        raise ValueError("bright solitons require anomalous dispersion (zeta2 > 0)")
    kappa, g0 = params.kappa, params.g0
    alpha = -params.sigma / kappa
    if alpha <= 0:
        raise ValueError("bright soliton seed needs red detuning (sigma < 0)")
    branches = solve_flat_state(params)
    F2 = 8.0 * g0 * params.kappa_t * params.A_in**2 / kappa**3
    cos_phi = np.clip(np.sqrt(8.0 * alpha) / (np.pi * np.sqrt(F2)), -1.0, 1.0)
    phi0 = np.arccos(cos_phi)
    width = np.sqrt(alpha * 2.0 * kappa / params.zeta2)
    psi = np.sqrt(2.0 * alpha) * np.exp(1j * phi0)
    return _seed_modes(lambda theta: branches.lower + np.sqrt(kappa / g0)
                       * (psi / np.cosh(width * theta)), K)


def seed_dark_soliton(params: ModalParams, K: int) -> np.ndarray:
    """Localized dip, 0.15 rad wide, on the upper flat branch (zeta2 < 0)."""
    if params.zeta2 >= 0:
        raise ValueError("dark solitons require normal dispersion (zeta2 < 0)")
    branches = solve_flat_state(params)
    upper = branches.upper
    low = branches.lower if branches.bistable else 0.0
    # tanh-kink pair: field passes near zero at theta = 0 and recovers
    return _seed_modes(lambda theta: low + (upper - low)
                       * np.tanh(theta / 0.15) ** 2, K)


def find_steady_state(params: ModalParams, kind: str = "roll",
                      K: int | None = None, seed: int = 0,
                      horizon: float = 3000.0,
                      target_order: int | None = None) -> CombState:
    """Relax from a pattern-appropriate seed, then Newton-polish.

    `kind` selects the seed: "roll", "bright_soliton" or "dark_soliton".
    With kind "flat" the lower flat branch is refined and returned, with
    no relaxation.  Otherwise one loop relaxes a chunk, refines the field
    (`refine`) and classifies the root; the first chunk lasts RELAX_FIRST /
    kappa and each later one as long as all before it, up to RELAX_CHUNK /
    kappa, so the trials run after 0.5, 1, 2, 4 and 8/kappa and then every
    16/kappa.  The
    root is returned once it classifies as `kind` and is stable
    (`linearization.is_stable`), and otherwise relaxation resumes.
    `horizon` (units of 1/kappa) is thus a cap: the field at the horizon,
    or after the first chunk whose residual meets RELAX_TOL, is refined
    exactly as one propagate call over the whole horizon followed by
    `refine`, and returned whatever its kind or stability.  Every step
    checks the field against the energy bound of the seed
    (`_runaway_limit`).  `refine` rotates every field, an asymmetric one
    too, and projects it onto A_{-l} = A_l: such a field is projected, not
    refused.  Returns a classified CombState with A_{-l} = A_l whose
    residual meets NEWTON_TOL, or raises RefinementError / DivergenceError.
    """
    if K is None:
        K = default_mode_cutoff(params, kind)
    if kind == "flat":
        a, res = refine(_flat_vector(solve_flat_state(params).lower, K),
                        params)
        return CombState(a, params, res, *classify(a, params))
    elif kind == "roll":
        a = seed_roll(params, K, seed=seed, target_order=target_order)
    elif kind == "bright_soliton":
        a = seed_bright_soliton(params, K)
    elif kind == "dark_soliton":
        a = seed_dark_soliton(params, K)
    else:
        raise ValueError(f"unknown steady-state kind {kind!r}")
    want = PatternKind(kind)

    # linearization imports this module, so it is imported at call time
    from . import linearization
    limit = _runaway_limit(a, params)
    first = max(1, int(round(RELAX_FIRST / RELAX_STEP)))
    per_chunk = max(1, int(round(RELAX_CHUNK / RELAX_STEP)))
    total = max(1, int(round(horizon / RELAX_STEP)))
    done = 0
    while True:
        m = min(max(first, min(done, per_chunk)), total - done)
        a, res = propagate(a, params, m * RELAX_STEP, RELAX_STEP, limit)
        done += m
        final = done == total or res < RELAX_TOL
        try:
            root, res = refine(a, params)
        except RefinementError:
            if final:
                raise
            continue
        state = CombState(root, params, res, *classify(root, params))
        if final or (state.pattern is want and linearization.is_stable(
                linearization.stability_spectrum(state), params.kappa)):
            return state
