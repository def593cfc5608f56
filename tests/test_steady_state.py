"""Stationary-state solver: flat branches, relaxation, Newton, patterns."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import hbar

from kerrcomb import steady_state as ss
from kerrcomb import units

from conftest import caf2_config, make_flat


def _params(g_over, sigma_over, zeta2_over, rho=0.5):
    branches, _ = make_flat(g_over, sigma_over, zeta2_over, rho=rho)
    return branches.params


class TestFlatBranches:
    def test_zero_pump_gives_vacuum(self):
        params = units.ModalParams(kappa=1.0, kappa_t=0.5, sigma=0.0,
                                   zeta2=0.01, g0=1e-3, A_in=0.0, rho=0.5)
        branches = ss.solve_flat_state(params)
        assert branches.photon_numbers == (0.0,)
        assert branches.lower == 0.0

    def test_very_weak_linear_limit(self, vi_c_budget):
        # N -> 2 kappa_t P / (hbar omega kappa^2) when the Kerr shift is tiny
        cfg = caf2_config(pump_power=1e-9)
        params = units.modal_params(cfg, vi_c_budget)
        branches = ss.solve_flat_state(params)
        expected = (2.0 * vi_c_budget.kappa_t * 1e-9
                    / (hbar * cfg.omega_L * vi_c_budget.kappa**2))
        assert branches.photon_numbers[0] == pytest.approx(expected, rel=1e-6)

    def test_threshold_photon_number(self, vi_c_budget):
        # at P = P_th(sigma = -kappa) the flat state carries N = kappa/g0
        cfg = caf2_config()
        g0 = cfg.nonlinear_gain()
        p_th = units.threshold_pump_power(vi_c_budget, g0, cfg.omega_L,
                                          -vi_c_budget.kappa)
        params = units.modal_params(
            caf2_config(pump_power=p_th, detuning=-vi_c_budget.kappa),
            vi_c_budget)
        branches = ss.solve_flat_state(params)
        n_th = vi_c_budget.kappa / g0
        assert any(math.isclose(N, n_th, rel_tol=1e-6)
                   for N in branches.photon_numbers)

    def test_bistable_window(self):
        # strong red detuning: three branches, ascending, middle accessible
        branches, _ = make_flat(1.2, -2.4, 0.01)
        assert branches.bistable
        N = branches.photon_numbers
        assert N[0] < N[1] < N[2]
        assert abs(branches.middle) ** 2 == pytest.approx(N[1], rel=1e-9)

    def test_middle_raises_when_monostable(self):
        branches, _ = make_flat(0.1, 0.0, 0.01)
        assert not branches.bistable
        with pytest.raises(ValueError):
            branches.middle

    @given(g=st.floats(0.01, 2.0), s=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_roots_satisfy_cubic(self, g, s):
        branches, _ = make_flat(g, s, 0.01)
        p = branches.params
        drive = 2.0 * p.kappa_t * p.A_in**2
        for N, A in zip(branches.photon_numbers, branches.amplitudes):
            lhs = N * (p.kappa**2 + (p.sigma + p.g0 * N) ** 2)
            assert lhs == pytest.approx(drive, rel=1e-7)
            assert abs(A) ** 2 == pytest.approx(N, rel=1e-9)

    def test_flat_root_is_stationary(self):
        branches, name = make_flat(0.5, -1.0, 0.01)
        a = np.zeros(41, dtype=complex)
        a[20] = getattr(branches, name)
        assert ss.residual(a, branches.params) < 1e-12


class TestFieldOnCircle:
    def test_single_cosine(self):
        # A_{+1} = A_{-1} = 1/2 gives A(theta) = cos(theta)
        amps = np.array([0.5, 0.0, 0.5], dtype=complex)
        theta, field = ss.field_on_circle(amps, 256)
        np.testing.assert_allclose(field, np.cos(theta), atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        _, field = ss.field_on_circle(amps, 128)
        assert np.mean(np.abs(field) ** 2) == pytest.approx(
            float(np.sum(np.abs(amps) ** 2)), rel=1e-12)


class TestPropagate:
    def test_linear_relaxation_analytic(self):
        # g0 -> 0, sigma = 0: A0(t) = A_ss (1 - exp(-kappa t)) from vacuum
        params = units.ModalParams(kappa=1.0, kappa_t=0.5, sigma=0.0,
                                   zeta2=0.01, g0=0.0, A_in=2.0, rho=0.5)
        a0 = np.zeros(9, dtype=complex)
        t_end = 3.0
        a, _ = ss.propagate(a0, params, horizon=t_end, step=1e-3,
                            stop_residual=0.0)
        A_ss = math.sqrt(2.0 * params.kappa_t) * params.A_in / params.kappa
        expected = A_ss * (1.0 - math.exp(-t_end))
        assert a[4] == pytest.approx(expected, rel=1e-9)
        assert np.max(np.abs(np.delete(a, 4))) == 0.0

    def test_below_threshold_returns_to_flat(self):
        branches, _ = make_flat(0.3, 0.0, 0.01)
        p = branches.params
        a = np.zeros(33, dtype=complex)
        a[16] = branches.lower
        rng = np.random.default_rng(7)
        a += 1e-3 * abs(branches.lower) * (
            rng.standard_normal(33) + 1j * rng.standard_normal(33))
        out, res = ss.propagate(a, p, horizon=100.0, step=1e-3,
                                stop_residual=1e-10)
        # residual floors at the O(dt^2) splitting bias, not at zero
        assert res < 1e-7
        assert abs(out[16]) ** 2 == pytest.approx(
            branches.photon_numbers[0], rel=1e-6)
        assert np.max(np.abs(np.delete(out, 16))) < 1e-7 * abs(out[16])

    def test_divergence_raises(self):
        # a linearly amplifying flow (negative damping) exercises the guard
        params = units.ModalParams(kappa=-1.0, kappa_t=0.5, sigma=0.0,
                                   zeta2=0.0, g0=1e-3, A_in=1.0, rho=0.5)
        a0 = np.ones(5, dtype=complex)
        with pytest.raises(ss.DivergenceError) as exc:
            ss.propagate(a0, params, horizon=100.0, step=1e-2)
        assert exc.value.last_amps is not None


class TestRefine:
    def test_polishes_perturbed_flat(self):
        branches, _ = make_flat(0.4, -0.5, 0.01)
        a = np.zeros(21, dtype=complex)
        a[10] = branches.lower * (1.0 + 1e-4)
        out, res = ss.refine(a, branches.params)
        assert res <= ss.NEWTON_TOL
        assert out[10] == pytest.approx(branches.lower, rel=1e-10)

    def test_stall_raises_refinement_error(self):
        # start far outside the capture basin of any root
        params = units.ModalParams(kappa=1.0, kappa_t=0.5, sigma=-10.0,
                                   zeta2=0.01, g0=1.0, A_in=100.0, rho=0.5)
        a = np.full(9, 1e6 + 1e6j, dtype=complex)
        with pytest.raises(ss.RefinementError) as exc:
            ss.refine(a, params, max_iter=8)
        assert exc.value.best_residual > 0


class TestPatterns:
    def test_roll20_structure(self, roll20):
        state, _ = roll20
        assert state.pattern is ss.PatternKind.ROLL
        assert state.roll_order == 20
        assert state.residual_norm <= ss.NEWTON_TOL
        # excited modes are exactly the multiples of 20
        I = state.intensities
        excited = np.flatnonzero(I > 1e-12 * I.max()) - state.K
        side = excited[excited != 0]
        assert np.all(side % 20 == 0)

    def test_roll20_has_twenty_maxima(self, roll20):
        state, _ = roll20
        _, field = ss.field_on_circle(state.amplitudes, 4096)
        prof = np.abs(field) ** 2
        peaks = np.flatnonzero((prof > np.roll(prof, 1))
                               & (prof > np.roll(prof, -1)))
        assert len(peaks) == 20

    def test_roll20_truncation_adequate(self, roll20):
        state, _ = roll20
        edge = max(abs(state.amplitudes[0]), abs(state.amplitudes[-1]))
        assert edge < 1e-8 * np.abs(state.amplitudes).max()

    def test_bright_soliton_classification(self, bright_soliton):
        state, _ = bright_soliton
        assert state.pattern is ss.PatternKind.BRIGHT_SOLITON
        assert state.residual_norm <= ss.NEWTON_TOL
        _, field = ss.field_on_circle(state.amplitudes, 2048)
        prof = np.abs(field) ** 2
        assert prof.max() > 3.0 * np.median(prof)

    def test_dark_soliton_classification(self, dark_soliton):
        state, _ = dark_soliton
        assert state.pattern is ss.PatternKind.DARK_SOLITON
        assert state.residual_norm <= ss.NEWTON_TOL
        _, field = ss.field_on_circle(state.amplitudes, 2048)
        prof = np.abs(field) ** 2
        assert prof.min() < 0.33 * np.median(prof)

    def test_flat_kind_short_circuit(self):
        params = _params(0.3, 0.0, 0.01)
        state = ss.find_steady_state(params, kind="flat", K=8)
        assert state.pattern is ss.PatternKind.FLAT
        assert state.roll_order is None

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            ss.find_steady_state(_params(0.3, 0.0, 0.01), kind="cnoidal")


class TestSymmetrization:
    def test_rotated_roll_is_symmetrized(self, roll20):
        state, _ = roll20
        # rigid rotation keeps the state stationary but breaks A_{-l} = A_l
        theta = 0.731
        a_rot = state.amplitudes * np.exp(
            1j * state.mode_numbers * theta)
        rotated = ss.CombState(a_rot, state.params, state.residual_norm,
                               state.pattern, state.roll_order)
        sym = ss.rotate_to_symmetric(rotated)
        a = sym.amplitudes
        assert np.max(np.abs(a[::-1] - a)) < 1e-8 * np.max(np.abs(a))
        assert ss.residual(a, state.params) < 1e-10

    def test_asymmetric_state_raises(self):
        params = _params(0.3, 0.0, 0.01)
        a = np.zeros(9, dtype=complex)
        a[4] = 1.0
        a[5] = 0.3
        a[3] = 0.2  # not related to a[5] by any rigid rotation
        state = ss.CombState(a, params, 0.0)
        with pytest.raises(ValueError):
            ss.rotate_to_symmetric(state)


class TestSeeds:
    def test_target_order_out_of_range(self):
        params = _params(0.5, -1.0, 0.01)
        with pytest.raises(ValueError):
            ss.seed_roll(params, K=16, target_order=17)

    def test_bright_seed_requires_anomalous(self):
        params = _params(0.5, -1.0, -0.01)
        with pytest.raises(ValueError):
            ss.seed_bright_soliton(params, K=16)

    def test_dark_seed_requires_normal(self):
        params = _params(0.5, -1.0, 0.01)
        with pytest.raises(ValueError):
            ss.seed_dark_soliton(params, K=16)

    def test_default_cutoff_scales_with_roll_order(self, vi_c_budget):
        cfg = caf2_config(detuning=-vi_c_budget.kappa)
        params = units.modal_params(cfg, vi_c_budget)
        L = units.predicted_roll_order(params.sigma, params.kappa, params.zeta2)
        assert ss.default_mode_cutoff(params, "roll") == max(4 * L, 64)
        assert ss.default_mode_cutoff(params, "bright_soliton") == 128
