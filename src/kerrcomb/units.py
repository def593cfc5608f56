"""Physical parameter model and SI <-> modal-parameter conversions.

All rates are stored internally as half-linewidths kappa (rad/s); full
linewidths 2*kappa only appear at I/O boundaries.  The detuning sigma is
the pump laser angular frequency minus the pumped-mode resonance.

`ResonatorConfig` is the one schema of a resonator: its fields are the
keys of a scenario's resonator section.  `modal_params` is the one
conversion of it to `ModalParams`, the rates every layer downstream
reads; `g0_from_gamma`, `zeta2_from_beta2` and `kappa_from_Q` are the
named formulas it applies.

This module imports no numpy.  Besides the conversions it holds what a
scenario's validation needs of the numerical layers, the default mode
cutoff and the squeezing objectives, so `kerrcomb validate` loads none
of them; `steady_state` and `squeezing` import both from here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# exact by the 2019 SI definitions: c in m/s, h = 6.62607015e-34 J s
C_LIGHT = 299792458.0
HBAR = 6.62607015e-34 / (2.0 * math.pi)

#: Squeezing objectives `squeezing.optimize_quadrature_angle` accepts.
OBJECTIVES = ("band_integral", "min")


class Topology(enum.Enum):
    ADD_THROUGH = "add-through"
    ADD_DROP = "add-drop"


class ConfigurationError(ValueError):
    """Inconsistent or incomplete resonator description."""


@dataclass(frozen=True)
class ResonatorConfig:
    """Physical description of the resonator, pump and coupling topology.

    Exactly one of (gamma, g0) and one of (zeta2, beta2) must be supplied;
    the other member of each pair is derived.  drop_Q is required for (and
    only allowed in) the add-drop topology.
    """

    pump_wavelength: float          # m
    main_radius: float              # m
    group_index: float
    intrinsic_Q: float
    through_Q: float
    pump_power: float = 0.0         # W
    detuning: float = 0.0           # rad/s, sigma = omega_L - omega_0
    topology: Topology = Topology.ADD_THROUGH
    drop_Q: float | None = None
    gamma: float | None = None      # W^-1 m^-1
    g0: float | None = None         # rad/s per photon
    zeta2: float | None = None      # rad/s
    beta2: float | None = None      # s^2/m

    def __post_init__(self):
        # NaN passes every comparison below, so refuse non-finite numbers first
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.pump_wavelength <= 0 or self.main_radius <= 0:
            raise ConfigurationError("wavelength and radius must be positive")
        if self.intrinsic_Q <= 0 or self.through_Q <= 0:
            raise ConfigurationError("Q factors must be positive")
        if self.topology is Topology.ADD_DROP:
            if self.drop_Q is None or self.drop_Q <= 0:
                raise ConfigurationError("add-drop topology requires a positive drop_Q")
        elif self.drop_Q is not None:
            raise ConfigurationError("drop_Q only applies to the add-drop topology")
        if (self.gamma is None) == (self.g0 is None):
            raise ConfigurationError("supply exactly one of gamma, g0")
        if (self.zeta2 is None) == (self.beta2 is None):
            raise ConfigurationError("supply exactly one of zeta2, beta2")
        if self.pump_power < 0:
            raise ConfigurationError("pump power must be nonnegative")

    @property
    def omega_L(self) -> float:
        """Pump angular frequency (rad/s), vacuum wavelength."""
        return 2.0 * math.pi * C_LIGHT / self.pump_wavelength

    @property
    def fsr(self) -> float:
        """Free spectral range (rad/s)."""
        return C_LIGHT / self.group_index / self.main_radius


@dataclass(frozen=True)
class ModalParams:
    """Everything the modal equations need, in rad/s and sqrt(photon) units."""

    kappa: float
    kappa_t: float
    sigma: float
    zeta2: float
    g0: float
    A_in: float         # sqrt(P / hbar omega_L), photons^(1/2) s^(-1/2)
    rho: float
    omega_L: float      # pump carrier (rad/s), for flux->watts


# conversions -----------------------------------------------------------

def g0_from_gamma(gamma: float, radius: float, n_g: float, omega_L: float) -> float:
    """g0 = gamma * v_g^2 * hbar * omega_L / (2 pi a)."""
    v_g = C_LIGHT / n_g
    return gamma * v_g**2 * HBAR * omega_L / (2.0 * math.pi * radius)


def zeta2_from_beta2(beta2: float, n_g: float, fsr: float) -> float:
    """beta2 = -zeta2 / (v_g * fsr^2), inverted."""
    v_g = C_LIGHT / n_g
    return -beta2 * v_g * fsr**2


def kappa_from_Q(Q: float, omega_L: float) -> float:
    """Half-linewidth from a quality factor (full linewidth = omega/Q)."""
    return omega_L / (2.0 * Q)


def modal_params(config: ResonatorConfig) -> ModalParams:
    """The one conversion of a resonator description to the modal-equation
    parameters, at the config's P and sigma.  kappa sums the half-linewidths
    of every port, rho is the out-coupled port's share of it (the drop
    port in the add-drop topology, else the through port), and g0 and
    zeta2 are taken as given or derived from gamma and beta2."""
    omega_L = config.omega_L
    kappa_t = kappa_from_Q(config.through_Q, omega_L)
    kappa = kappa_t + kappa_from_Q(config.intrinsic_Q, omega_L)
    out = kappa_t
    if config.topology is Topology.ADD_DROP:
        out = kappa_from_Q(config.drop_Q, omega_L)
        kappa += out
    g0 = config.g0
    if g0 is None:
        g0 = g0_from_gamma(config.gamma, config.main_radius,
                           config.group_index, omega_L)
    zeta2 = config.zeta2
    if zeta2 is None:
        zeta2 = zeta2_from_beta2(config.beta2, config.group_index, config.fsr)
    return ModalParams(kappa=kappa, kappa_t=kappa_t, sigma=config.detuning,
                       zeta2=zeta2, g0=g0,
                       A_in=math.sqrt(config.pump_power / (HBAR * omega_L)),
                       rho=out / kappa, omega_L=omega_L)


# operations ------------------------------------------------------------

def min_pump_power(p: ModalParams) -> float:
    """Absolute minimum pump power (W) for comb generation.

    P_min = hbar*omega_L * (2 kappa)^3 / (8 g0 * 2 kappa_t).
    """
    if p.g0 <= 0:
        raise ValueError("g0 must be positive")
    d_tot = 2.0 * p.kappa
    d_ext = 2.0 * p.kappa_t
    return HBAR * p.omega_L * d_tot**3 / (8.0 * p.g0 * d_ext)


def threshold_pump_power(p: ModalParams) -> float:
    """P_th = P_min * [1 + (1 + sigma/kappa)^2], at the detuning p.sigma."""
    return min_pump_power(p) * (1.0 + (1.0 + p.sigma / p.kappa) ** 2)


class NoRollOrderError(ValueError):
    """No modulational-instability roll order exists for these parameters."""


def predicted_roll_order(sigma: float, kappa: float, zeta2: float) -> int:
    """Near-threshold roll order: nearest integer to sqrt(2(sigma+2kappa)/zeta2).

    Ties round away from zero.  A zero radicand gives the L = 0 boundary
    signal; a negative radicand raises NoRollOrderError.
    """
    radicand = 2.0 * (sigma + 2.0 * kappa) / zeta2
    if radicand < 0:
        raise NoRollOrderError(
            "no modulational-instability roll order: 2(sigma+2kappa)/zeta2 < 0")
    x = math.sqrt(radicand)
    return int(math.floor(x + 0.5))


def default_mode_cutoff(params: ModalParams, kind: str) -> int:
    """Truncation order: generous multiple of the expected pattern scale."""
    if kind in ("bright_soliton", "dark_soliton"):
        return 128
    try:
        L = predicted_roll_order(params.sigma, params.kappa, params.zeta2)
    except NoRollOrderError:
        L = 16
    return max(4 * L, 64)
