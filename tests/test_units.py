import dataclasses
import math

import pytest
import scipy.constants
from hypothesis import given, strategies as st

import kerrcomb
from kerrcomb import units
from conftest import caf2_config

TWO_PI = 2.0 * math.pi


class TestConstants:
    def test_exact_si_values(self):
        # the 2019 SI fixes c and h; scipy carries the same exact values
        assert units.C_LIGHT == scipy.constants.c
        assert units.HBAR == scipy.constants.hbar


class TestLossBudget:
    def test_linewidth_and_rho(self):
        budget = units.modal_params(caf2_config())
        assert 2 * budget.kappa / TWO_PI == pytest.approx(0.97e6, rel=5e-3)
        assert budget.rho == pytest.approx(0.8, abs=1e-12)

    def test_fsr(self):
        cfg = caf2_config()
        assert cfg.fsr / TWO_PI == pytest.approx(13.35e9, rel=1e-2)

    def test_add_drop_rho(self):
        cfg = units.ResonatorConfig(
            pump_wavelength=1550e-9, main_radius=2.5e-3, group_index=1.43,
            intrinsic_Q=1e9, through_Q=0.5e9, drop_Q=0.5e9,
            topology=units.Topology.ADD_DROP, pump_power=1e-3,
            detuning=0.0, gamma=0.001, zeta2=1e4)
        budget = units.modal_params(cfg)
        kappa_i, kappa_t, kappa_d = (
            units.kappa_from_Q(Q, cfg.omega_L)
            for Q in (cfg.intrinsic_Q, cfg.through_Q, cfg.drop_Q))
        # rho is the drop-port share of the total loss
        assert budget.kappa_t == kappa_t
        assert budget.rho == pytest.approx(kappa_d / budget.kappa)
        assert budget.kappa == pytest.approx(kappa_i + kappa_t + kappa_d)


class TestNonlinearGain:
    def test_caf2_g0(self):
        g0 = units.modal_params(caf2_config()).g0
        assert g0 / TWO_PI * 1e6 == pytest.approx(57.2, rel=5e-3)


class TestDispersion:
    def test_caf2_zeta2_matches_beta2(self):
        cfg = caf2_config()
        zeta2 = units.zeta2_from_beta2(-12.4e-27, cfg.group_index, cfg.fsr)
        assert zeta2 == pytest.approx(cfg.zeta2, rel=2e-2)


class TestQConversions:
    @given(st.floats(1e6, 1e12))
    def test_kappa_from_q(self, Q):
        omega = TWO_PI * 193e12
        assert units.kappa_from_Q(Q, omega) == omega / (2.0 * Q)


class TestPumpThresholds:
    def test_min_power(self):
        p_min = units.min_pump_power(units.modal_params(caf2_config()))
        assert p_min == pytest.approx(2.06e-3, rel=1e-2)

    def test_threshold_minimized_at_sigma_minus_kappa(self):
        params = units.modal_params(caf2_config())
        p_at = lambda s: units.threshold_pump_power(
            dataclasses.replace(params, sigma=s))
        p_min = units.min_pump_power(params)
        assert p_at(-params.kappa) == pytest.approx(p_min, rel=1e-12)
        for s in (-2.0, -0.5, 0.0, 1.0):
            assert p_at(s * params.kappa) > p_min

    @given(st.floats(1e-6, 1e-1))
    def test_threshold_scale_invariance(self, power):
        # P_th is independent of the configured pump power
        assert units.threshold_pump_power(
            units.modal_params(caf2_config(pump_power=power))) > 0


class TestRollOrder:
    def test_caf2_order(self, vi_c_budget):
        L = units.predicted_roll_order(-vi_c_budget.kappa, vi_c_budget.kappa,
                                       vi_c_budget.zeta2)
        assert L == 18

    def test_zero_radicand(self):
        assert units.predicted_roll_order(-2.0, 1.0, 1.0) == 0

    def test_negative_radicand_raises(self):
        with pytest.raises(units.NoRollOrderError):
            units.predicted_roll_order(-3.0, 1.0, 1.0)

    def test_ties_round_away_from_zero(self):
        # radicand 2(sigma + 2 kappa)/zeta2 = 0.25 -> sqrt = 0.5 -> L = 1
        assert units.predicted_roll_order(-1.875, 1.0, 1.0) == 1


class TestConfigValidation:
    def test_exactly_one_gain_spec(self):
        with pytest.raises(units.ConfigurationError):
            units.ResonatorConfig(
                pump_wavelength=1550e-9, main_radius=2.5e-3, group_index=1.43,
                intrinsic_Q=1e9, through_Q=1e9, pump_power=0.0, detuning=0.0,
                gamma=0.001, g0=1e-4, zeta2=1e4)

    def test_drop_q_requires_add_drop(self):
        with pytest.raises(units.ConfigurationError):
            units.ResonatorConfig(
                pump_wavelength=1550e-9, main_radius=2.5e-3, group_index=1.43,
                intrinsic_Q=1e9, through_Q=1e9, drop_Q=1e9, pump_power=0.0,
                detuning=0.0, gamma=0.001, zeta2=1e4)


def test_package_exports_resolve():
    for name in kerrcomb.__all__:
        assert hasattr(kerrcomb, name), name
