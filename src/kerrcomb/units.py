"""Physical parameter model and SI <-> modal-parameter conversions.

All rates are stored internally as half-linewidths kappa (rad/s); full
linewidths 2*kappa only appear at I/O boundaries.  The detuning sigma is
the pump laser angular frequency minus the pumped-mode resonance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# exact by the 2019 SI definitions: c in m/s, h = 6.62607015e-34 J s
C_LIGHT = 299792458.0
HBAR = 6.62607015e-34 / (2.0 * math.pi)


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
    pump_power: float               # W
    detuning: float                 # rad/s, sigma = omega_L - omega_0
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
    def group_velocity(self) -> float:
        return C_LIGHT / self.group_index

    @property
    def fsr(self) -> float:
        """Free spectral range (rad/s)."""
        return self.group_velocity / self.main_radius

    def nonlinear_gain(self) -> float:
        """Per-photon Kerr gain g0 (rad/s), derived from gamma if needed."""
        if self.g0 is not None:
            return self.g0
        return g0_from_gamma(self.gamma, self.main_radius, self.group_index,
                             self.omega_L)

    def dispersion_zeta2(self) -> float:
        """Modal second-order dispersion zeta2 (rad/s)."""
        if self.zeta2 is not None:
            return self.zeta2
        return zeta2_from_beta2(self.beta2, self.group_index, self.fsr)


@dataclass(frozen=True)
class LossBudget:
    """Half-linewidths per port plus the out-coupling ratio rho."""

    kappa_t: float
    kappa_i: float
    kappa_d: float
    kappa: float
    rho: float


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


# operations ------------------------------------------------------------

def derive_loss_budget(config: ResonatorConfig) -> LossBudget:
    """Per-port half-linewidths, total loss and squeezing factor rho."""
    omega_L = config.omega_L
    kappa_i = kappa_from_Q(config.intrinsic_Q, omega_L)
    kappa_t = kappa_from_Q(config.through_Q, omega_L)
    if config.topology is Topology.ADD_DROP:
        kappa_d = kappa_from_Q(config.drop_Q, omega_L)
        kappa = kappa_t + kappa_i + kappa_d
        rho = kappa_d / kappa
    else:
        kappa_d = 0.0
        kappa = kappa_t + kappa_i
        rho = kappa_t / kappa
    return LossBudget(kappa_t=kappa_t, kappa_i=kappa_i, kappa_d=kappa_d,
                      kappa=kappa, rho=rho)


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


def modal_params(config: ResonatorConfig) -> ModalParams:
    """The one conversion of a resonator description to the modal-equation
    parameters (loss budget included), at the config's P and sigma."""
    budget = derive_loss_budget(config)
    return ModalParams(kappa=budget.kappa, kappa_t=budget.kappa_t,
                       sigma=config.detuning, zeta2=config.dispersion_zeta2(),
                       g0=config.nonlinear_gain(),
                       A_in=math.sqrt(config.pump_power
                                      / (HBAR * config.omega_L)),
                       rho=budget.rho, omega_L=config.omega_L)
