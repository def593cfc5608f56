"""Output squeezing spectra: correlation matrices, angles, analytic limits."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from kerrcomb import cli
from kerrcomb import linearization as lin
from kerrcomb import spontaneous as sp
from kerrcomb import squeezing as sq
from kerrcomb import steady_state as ss
from kerrcomb import units

from conftest import (OMEGA_L, ResolventError, analytic_three_mode_spectra,
                      input_correlation, make_flat, output_correlation,
                      pair_blocks_per_pair, photon_number_difference_spectrum,
                      three_mode_rates)


class TestPhotonNumberDifference:
    def test_reference_values(self):
        grid = np.array([1e-6, 2.0, 1e6])
        s = photon_number_difference_spectrum(0.8, 1.0, grid).values
        assert s[0] == pytest.approx(1.0 - 0.8, abs=1e-9)   # DC: 1 - rho
        assert s[1] == pytest.approx(1.0 - 0.8 / 2.0, rel=1e-12)  # w = 2 kappa
        assert s[2] == pytest.approx(1.0, abs=1e-9)          # shot noise

    def test_perfect_escape_reaches_zero(self):
        s = photon_number_difference_spectrum(1.0, 1.0, np.array([0.0]))
        assert s.values[0] == 0.0

    @given(rho=st.floats(0.01, 1.0), w=st.floats(0.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_bounded_between_floor_and_shot_noise(self, rho, w):
        s = photon_number_difference_spectrum(rho, 1.0, np.array([w]))
        assert 1.0 - rho - 1e-12 <= s.values[0] <= 1.0 + 1e-12

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            photon_number_difference_spectrum(0.0, 1.0, np.array([1.0]))


class TestInputCorrelation:
    def test_single_pair_structure(self):
        C = input_correlation(1)
        np.testing.assert_allclose(C, np.array([[1.0, 1.0j], [-1.0j, 1.0]]))

    @pytest.mark.parametrize("K", [1, 3, 7])
    def test_hermitian_with_eigenvalues_zero_and_two(self, K):
        C = input_correlation(K)
        np.testing.assert_allclose(C, C.conj().T, atol=1e-15)
        eig = np.sort(np.linalg.eigvalsh(C))
        np.testing.assert_allclose(eig[:K], 0.0, atol=1e-12)
        np.testing.assert_allclose(eig[K:], 2.0, atol=1e-12)


class TestOutputCorrelation:
    def _empty_cavity_Jq(self, K, kappa=1.0):
        # vacuum cavity: J_q = -kappa I (no Kerr, no detuning)
        return -kappa * np.eye(2 * K)

    @pytest.mark.parametrize("w", [0.3, 1.0, 2.7, 6.0, 9.5])
    def test_empty_cavity_returns_vacuum(self, w):
        # with rho = 1 the reflected vacuum stays vacuum at all frequencies
        J_q = self._empty_cavity_Jq(2)
        C = output_correlation(J_q, 1.0, 1.0, w)
        np.testing.assert_allclose(C, input_correlation(2), atol=1e-12)

    def test_lossy_empty_cavity_keeps_diagonal_shot_noise(self):
        # escape < 1 mixes in uncorrelated vacuum; diagonal stays at 1
        J_q = self._empty_cavity_Jq(2)
        C = output_correlation(J_q, 0.6, 1.0, 1.3)
        np.testing.assert_allclose(np.diag(C).real, 1.0, atol=1e-12)

    @staticmethod
    def _two_inverse_reference(J_q, rho, kappa, omega):
        # both resolvents inverted separately, as in the defining formula
        n = J_q.shape[0]
        eye = np.eye(n)
        C_in = input_correlation(n // 2)
        G_p = np.linalg.inv(J_q + 1j * omega * eye)
        G_m = np.linalg.inv(J_q - 1j * omega * eye)
        T_p = 2.0 * kappa * rho * G_p + eye
        T_m = 2.0 * kappa * rho * G_m + eye
        return (T_p @ C_in @ T_m.T
                + 4.0 * kappa**2 * rho * (1.0 - rho) * (G_p @ C_in @ G_m.T))

    @pytest.mark.parametrize("n", [2, 8, 40])
    def test_matches_two_inverse_reference(self, n):
        rng = np.random.default_rng(n)
        J_q = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
        for w in (-7.0, -0.4, 0.05, 1.3, 9.0):
            C = output_correlation(J_q, 0.7, 1.5, w)
            ref = self._two_inverse_reference(J_q, 0.7, 1.5, w)
            np.testing.assert_allclose(C, ref, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(ref)))

    def test_complex_jacobian_rejected(self):
        with pytest.raises(ValueError, match="real"):
            output_correlation(-np.eye(4) + 0.1j * np.eye(4), 0.5, 1.0, 1.0)

    def test_singular_resolvent_raises(self):
        J_q = np.zeros((2, 2))
        with pytest.raises(ResolventError):
            output_correlation(J_q, 0.5, 1.0, 0.0)


def _pair_entries(C, l):
    """(c11, c22, c12 + c21) of pair l from a full C_out."""
    K, i = C.shape[0] // 2, l - 1
    return np.array([C[i, i], C[K + i, K + i], C[i, K + i] + C[K + i, i]])


def _block_entries(blocks):
    return np.stack([blocks.c11, blocks.c22, blocks.c12_plus_c21], axis=1)


def _hamiltonian_Jq(seed, m, kappa, margin):
    """Random real 2m x 2m J_q = -kappa I + Omega S with S symmetric.

    Uniform loss plus a quadratic Hamiltonian, the form
    build_quadrature_jacobian gives, scaled so that its slowest mode decays
    at margin * kappa.  S(w) = S(-w) needs that form; a generic real J_q
    breaks the symmetry.
    """
    rng = np.random.default_rng(seed)
    n = 2 * m
    zero, eye = np.zeros((m, m)), np.eye(m)
    S = rng.standard_normal((n, n))
    H = np.block([[zero, eye], [-eye, zero]]) @ (S + S.T)
    top = float(np.max(np.linalg.eigvals(H).real))
    assume(top > 1e-6 * np.max(np.abs(H)))
    return -kappa * np.eye(n) + (1.0 - margin) * kappa / top * H


def _band_objective(blocks, phi, objective):
    """`objective` of S_phi over the band 0.1 <= |omega|/kappa <= 10,
    evaluated through `quadrature_spectrum`: the oracle of the closed-form
    angle solve."""
    spec = sq.quadrature_spectrum(blocks, phi)
    w = np.abs(spec.x)
    sel = (w >= 0.1) & (w <= 10.0) & np.isfinite(spec.values)
    values = spec.values[sel]
    if objective == "min":
        return float(values.min())
    order = np.argsort(w[sel])
    return float(np.trapezoid(values[order], w[sel][order]))


def _rotated_normal_Jq(slowest, kappa=1.0, seed=0):
    """Real 8x8 J_q = kappa Q B Q^T: B normal with eigenvalue `slowest`
    (units of kappa) and seven others at Re <= -0.5 kappa, Q orthogonal."""
    B = block_diag(slowest, [[-1.0, 2.0], [-2.0, -1.0]],
                   [[-0.5, 1.0], [-1.0, -0.5]], -2.0, -3.0, -1.5)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((8, 8)))
    return kappa * (Q @ B @ Q.T)


def _assert_same_blocks(got, want):
    """Equal bytes in every entry; NaN where `want` has NaN."""
    for name in ("omega_over_kappa", "c11", "c22", "c12_plus_c21"):
        assert np.array_equal(getattr(got, name), getattr(want, name),
                              equal_nan=True), name


class TestPairSpectralBlocks:
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 20),
           rho=st.floats(1e-3, 1.0), kappa=st.floats(0.1, 10.0),
           margin=st.floats(0.05, 0.95), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_oracle(self, seed, m, rho, kappa, margin, data):
        J_q = _hamiltonian_Jq(seed, m, kappa, margin)
        l = data.draw(st.integers(1, m), label="l")
        ws = np.array(data.draw(st.lists(st.floats(1e-3, 20.0), min_size=1,
                                         max_size=4), label="omegas"))
        grid = np.concatenate([ws, -ws])
        blocks = sq.pair_spectral_blocks(lin.eigen_form(J_q, kappa), rho,
                                         grid, l)
        got = _block_entries(blocks)
        for k, w in enumerate(grid):
            ref = _pair_entries(
                output_correlation(J_q, rho, kappa, w * kappa), l)
            np.testing.assert_allclose(got[k], ref, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(ref)))
        diag = got[:, :2]
        assert np.all(diag.real >= 0.0)
        assert np.all(np.abs(diag.imag) <= 1e-12 * np.abs(diag))
        half = len(ws)
        np.testing.assert_allclose(got[half:], got[:half], rtol=1e-10,
                                   atol=1e-10 * np.max(np.abs(got)))
        # C_out = (1 - rho) C_in + rho C_out(rho = 1): S_phi >= 1 - rho
        for phi in (0.0, 0.7, 1.9):
            s = sq.quadrature_spectrum(blocks, phi).values
            assert np.all(s >= 1.0 - rho - 1e-9 * np.max(np.abs(got)))

    @pytest.mark.parametrize("exact", [True, False])
    def test_neutral_frequency_is_nan(self, exact):
        if exact:
            # a zero column: J_q e_j = 0 holds exactly
            rng = np.random.default_rng(0)
            J_q = rng.standard_normal((8, 8)) - 3.0 * np.eye(8)
            J_q[:, 5] = 0.0
        else:
            # zero eigenvalue up to rounding; the dense inverse does not
            # raise here and returns huge finite numbers
            J_q = _rotated_normal_Jq(0.0)
        # 0.0 is the middle point; its neighbours sit 3/128 away
        grid = np.linspace(-3.0, 3.0, 257)
        mid = 128
        assert grid[mid] == 0.0
        got = _block_entries(
            sq.pair_spectral_blocks(lin.eigen_form(J_q, 1.0), 0.6, grid, 2))
        assert np.all(np.isnan(got[mid]))
        others = np.delete(got, mid, axis=0)
        assert np.all(np.isfinite(others))
        for k in (0, mid - 1, mid + 1, len(grid) - 1):
            ref = _pair_entries(
                output_correlation(J_q, 0.6, 1.0, grid[k]), 2)
            np.testing.assert_allclose(got[k], ref, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(ref)))

    def test_slow_stable_mode_is_not_neutral(self):
        kappa = 2.0
        J_q = _rotated_normal_Jq(-1e-3, kappa)
        blocks = sq.pair_spectral_blocks(lin.eigen_form(J_q, kappa), 0.6,
                                         sq.default_omega_grid(), 1)
        assert np.all(np.isfinite(_block_entries(blocks)))

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 20),
           rho=st.floats(1e-3, 1.0), kappa=st.floats(0.1, 10.0),
           margin=st.floats(0.05, 0.95), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_state_weights_match_per_pair_weights(self, seed, m, rho, kappa,
                                                  margin, data):
        J_q = _hamiltonian_Jq(seed, m, kappa, margin)
        l = data.draw(st.integers(1, m), label="l")
        eigen = lin.eigen_form(J_q, kappa)
        grid = sq.default_omega_grid(64)
        _assert_same_blocks(
            sq.pair_spectral_blocks(eigen, rho, grid, l),
            pair_blocks_per_pair(eigen.lam, eigen.V, rho, kappa, grid, l))

    def test_state_weights_match_per_pair_weights_with_neutral_mode(self):
        # a zero eigenvalue: one double pole, and NaN at w = 0
        eigen = lin.eigen_form(_rotated_normal_Jq(0.0, 2.0), 2.0)
        assert len(eigen.double[0]) == 1
        grid = np.linspace(-3.0, 3.0, 257)
        for l in (1, 2, 3, 4):
            _assert_same_blocks(
                sq.pair_spectral_blocks(eigen, 0.6, grid, l),
                pair_blocks_per_pair(eigen.lam, eigen.V, 0.6, 2.0, grid, l))

    def test_state_weights_match_per_pair_weights_on_reference_states(
            self, roll20, three_mode, bright_soliton, dark_soliton):
        grid = sq.default_omega_grid(128)
        for state, _ in (roll20, three_mode, bright_soliton, dark_soliton):
            eigen = lin.build_quadrature_jacobian(state).eigen
            p = state.params
            assert len(eigen.double[0]) >= 1      # the translation mode
            for l in sorted({1, 5, state.K // 2, state.K}):
                _assert_same_blocks(
                    sq.pair_spectral_blocks(eigen, p.rho, grid, l),
                    pair_blocks_per_pair(eigen.lam, eigen.V, p.rho, p.kappa,
                                         grid, l))

    def test_complex_jacobian_rejected(self):
        with pytest.raises(ValueError, match="real"):
            lin.eigen_form(-np.eye(4) + 0.1j * np.eye(4), 1.0)

    @pytest.mark.parametrize("rate", [-1.0, 0.0])
    def test_jordan_block_rejected(self, rate):
        # a defective J_q has no eigenvector basis: V is singular to
        # rounding, and its pole sums would be noise
        J_q = np.diag([rate, rate, -2.0, -3.0])
        J_q[0, 1] = 1.0
        with pytest.raises(ValueError,
                           match=r"K = 2 .*cond_2\(V\) = .* exceeds 10000"):
            lin.eigen_form(J_q, 1.0)


class TestQuadratureSpectrum:
    @pytest.fixture
    def flat_blocks(self):
        branches, A0 = make_flat(0.5, -1.2, 0.015)
        K = 4
        a = np.zeros(2 * K + 1, dtype=complex)
        a[K] = A0
        state = ss.CombState(a, branches.params,
                             ss.residual(a, branches.params))
        jac = lin.build_quadrature_jacobian(state)
        grid = sq.default_omega_grid(256)
        return sq.pair_spectral_blocks(jac.eigen, branches.params.rho,
                                       grid, 1)

    def test_phi_zero_is_c11(self, flat_blocks):
        spec = sq.quadrature_spectrum(flat_blocks, 0.0)
        np.testing.assert_allclose(spec.values, flat_blocks.c11.real,
                                   atol=1e-14)

    def test_pi_periodicity(self, flat_blocks):
        s0 = sq.quadrature_spectrum(flat_blocks, 0.37).values
        s1 = sq.quadrature_spectrum(flat_blocks, 0.37 + math.pi).values
        np.testing.assert_allclose(s0, s1, atol=1e-12)

    def test_high_frequency_shot_noise(self, flat_blocks):
        # far outside the cavity line the output is plain vacuum
        grid = np.array([200.0, 500.0])
        branches, A0 = make_flat(0.5, -1.2, 0.015)
        K = 4
        a = np.zeros(2 * K + 1, dtype=complex)
        a[K] = A0
        state = ss.CombState(a, branches.params,
                             ss.residual(a, branches.params))
        jac = lin.build_quadrature_jacobian(state)
        blocks = sq.pair_spectral_blocks(jac.eigen, branches.params.rho,
                                         grid, 1)
        for phi in (0.0, 0.6, 1.2):
            s = sq.quadrature_spectrum(blocks, phi).values
            assert np.all(np.abs(s - 1.0) < 1e-2)

    def test_pair_index_bounds(self, flat_blocks):
        branches, _ = make_flat(0.5, -1.2, 0.015)
        with pytest.raises(ValueError):
            sq.pair_spectral_blocks(lin.eigen_form(np.eye(8), 1.0), 0.5,
                                    np.array([1.0]), 5)


class TestAnalyticThreeMode:
    def test_amplitude_floor_and_limits(self):
        grid = np.array([1e-8, 2.0, 1e8])
        S_a, S_p = analytic_three_mode_spectra(1.0, 0.3, 0.8, grid)
        assert S_a.values[0] == pytest.approx(0.2, abs=1e-9)
        assert S_a.values[1] == pytest.approx(1.0 - 0.8 / 2.0, rel=1e-12)
        assert S_a.values[2] == pytest.approx(1.0, abs=1e-9)

    def test_phase_diverges_at_dc(self):
        grid = np.array([0.0, 1e-4])
        _, S_p = analytic_three_mode_spectra(1.0, 0.3, 0.8, grid)
        assert S_p.values[0] == np.inf
        assert S_p.values[1] > 1e6

    def test_golden_value_at_two_kappa_a(self):
        # rho = 1/2, kappa_p = kappa_a/3, w = 2 kappa_a:
        # S_a = 1 - (1/2)(4/8) = 3/4,
        # S_p = 1 + (1/2)(1)(1 + 4/(9*8))^2 = 1 + (1/2)(19/18)^2
        grid = np.array([2.0])
        S_a, S_p = analytic_three_mode_spectra(1.0, 1.0 / 3.0, 0.5, grid)
        assert S_a.values[0] == pytest.approx(0.75, rel=1e-12)
        assert S_p.values[0] == pytest.approx(1.0 + 0.5 * (19.0 / 18.0) ** 2,
                                              rel=1e-12)

    @given(w=st.floats(1e-3, 100.0), rho=st.floats(0.01, 1.0),
           ka=st.floats(0.1, 5.0), kp=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_amplitude_squeezed_phase_antisqueezed(self, w, rho, ka, kp):
        grid = np.array([w])
        S_a, S_p = analytic_three_mode_spectra(ka, kp, rho, grid)
        assert S_a.values[0] <= 1.0 + 1e-12
        assert S_p.values[0] >= 1.0 - 1e-12

    def test_matrix_matches_analytic_near_threshold(self, three_mode):
        # the full matrix machinery reduced to the three-mode comb must
        # reproduce the closed-form amplitude spectrum
        state, _ = three_mode
        kappa_a, kappa_p = three_mode_rates(state)
        p = state.params
        grid = sq.default_omega_grid(512, 6.0)
        jac = lin.build_quadrature_jacobian(state)
        L = state.roll_order
        blocks = sq.pair_spectral_blocks(jac.eigen, p.rho, grid, L)
        S_mat = sq.quadrature_spectrum(blocks, 0.0).values
        S_a, _ = analytic_three_mode_spectra(
            kappa_a, kappa_p, p.rho, grid, kappa=p.kappa)
        np.testing.assert_allclose(S_mat, S_a.values, atol=5e-3)


class TestFlatStateAgreesWithSpontaneous:
    """The two halves of the paper on one flat state: below threshold the
    pair resolvent reproduces the closed-form sideband spectrum,
    (C11 + C22)/2 - 1 = 2 S_l(omega), S_l from `spontaneous_spectrum`."""

    # g < kappa keeps every m_l = kappa^2 + xi_l^2 - g^2 > 0, and
    # |sigma| < sqrt(3) kappa keeps the flat cubic single-rooted, so the
    # state is the lower branch that `spontaneous_spectrum` reads
    @given(g=st.floats(0.05, 0.95), sigma=st.floats(-1.5, 1.5),
           zeta2=st.floats(0.002, 0.05), rho=st.floats(0.05, 1.0),
           l=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_pair_blocks_are_twice_the_sideband_spectrum(self, g, sigma,
                                                         zeta2, rho, l):
        branches, A0 = make_flat(g, sigma, zeta2, rho=rho)
        assert A0 == branches.lower
        p = branches.params
        K = 8
        a = np.zeros(2 * K + 1, dtype=complex)
        a[K] = A0
        state = ss.CombState(a, p, ss.residual(a, p), ss.PatternKind.FLAT)
        grid = sq.default_omega_grid(128)
        try:
            jac = lin.build_quadrature_jacobian(state)
        except ValueError as exc:
            # pair l' decays at -kappa +/- sqrt(g^2 - xi_l'^2), and at
            # xi_l'^2 = g^2 its two rates merge with one eigenvector: J_q
            # is defective, and the pole sums refuse it, only there
            g_abs = p.g0 * abs(A0) ** 2
            xi = p.sigma - 0.5 * p.zeta2 * np.arange(1, K + 1) ** 2 + 2 * g_abs
            assert "cond_2(V)" in str(exc)
            assert np.min(np.abs(xi**2 - g_abs**2)) <= 1e-6 * p.kappa**2
            return
        blocks = sq.pair_spectral_blocks(jac.eigen, p.rho, grid, l)
        excess = (blocks.c11 + blocks.c22).real / 2.0 - 1.0
        S_l = sp.spontaneous_spectrum(l, branches, grid).values
        assert np.max(np.abs(excess - 2.0 * S_l)) <= 1e-10 * np.max(S_l)


class TestAngleOptimization:
    @pytest.mark.parametrize("objective", sq.OBJECTIVES)
    @pytest.mark.parametrize("half_width",
                             [math.pi / 8, math.pi / 4, math.pi / 2],
                             ids=["pi/8", "pi/4", "pi/2"])
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6),
           rho=st.floats(1e-3, 1.0), kappa=st.floats(0.1, 10.0),
           margin=st.floats(0.05, 0.95), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_closed_form_beats_dense_angle_grid(self, objective, half_width,
                                                seed, m, rho, kappa, margin,
                                                data):
        J_q = _hamiltonian_Jq(seed, m, kappa, margin)
        l = data.draw(st.integers(1, m), label="l")
        blocks = sq.pair_spectral_blocks(lin.eigen_form(J_q, kappa), rho,
                                         sq.default_omega_grid(128), l)
        delta, obj, degenerate = sq.solve_quadrature_angle(
            blocks, half_width, objective)
        assert type(degenerate) is bool
        assert abs(delta) <= half_width
        assert obj == pytest.approx(_band_objective(blocks, delta, objective),
                                    rel=1e-12, abs=1e-12)
        scan = min(_band_objective(blocks, phi, objective)
                   for phi in np.linspace(-half_width, half_width, 2001))
        assert obj <= scan + 1e-12 * abs(scan)

    def test_local_optimality_certificate(self, three_mode):
        state, _ = three_mode
        opt = sq.optimize_quadrature_angle(
            state, state.roll_order, omega_grid=sq.default_omega_grid(256))
        eps = 5e-3
        jac = lin.build_quadrature_jacobian(state)
        p = state.params
        blocks = sq.pair_spectral_blocks(
            jac.eigen, p.rho, sq.default_omega_grid(256), state.roll_order)
        f0 = _band_objective(blocks, opt.delta_Phi, "band_integral")
        for d in (-eps, eps):
            assert _band_objective(blocks, opt.delta_Phi + d,
                                   "band_integral") >= f0

    def test_near_threshold_angle_is_amplitude_quadrature(self, three_mode):
        # in the pair frame the squeezed quadrature sits at delta-Phi ~ 0
        state, _ = three_mode
        opt = sq.optimize_quadrature_angle(
            state, state.roll_order, omega_grid=sq.default_omega_grid(256))
        assert abs(opt.delta_Phi) < 0.05
        assert not opt.degenerate
        floor = 1.0 - state.params.rho
        assert float(np.nanmin(opt.spectrum.values)) == pytest.approx(
            floor, abs=5e-3)

    def test_degenerate_angle_flagged(self):
        # zero Kerr: the spectrum is angle-independent, flag must be set
        params = units.ModalParams(kappa=1.0, kappa_t=0.5, sigma=0.0,
                                   zeta2=0.02, g0=0.0, A_in=1.0, rho=0.5,
                                   omega_L=OMEGA_L)
        a = np.zeros(7, dtype=complex)
        a[3] = math.sqrt(2.0 * params.kappa_t) * params.A_in / params.kappa
        state = ss.CombState(a, params, ss.residual(a, params))
        opt = sq.optimize_quadrature_angle(
            state, 1, omega_grid=sq.default_omega_grid(128))
        assert opt.degenerate is True
        assert opt.delta_Phi == 0.0

    @pytest.mark.parametrize("objective", sq.OBJECTIVES)
    def test_grid_outside_the_band_rejected(self, objective):
        grid = np.array([20.0, 30.0])
        blocks = sq.PairSpectralBlocks(grid, np.full(2, 0.5 + 0j),
                                       np.full(2, 2.0 + 0j), np.zeros(2))
        with pytest.raises(ValueError,
                           match=r"0\.1 <= \|omega\|/kappa <= 10.* 20 to 30"):
            sq.solve_quadrature_angle(blocks, math.pi / 4, objective)

    @pytest.mark.parametrize("objective", sq.OBJECTIVES)
    def test_band_of_neutral_frequencies_rejected(self, objective):
        grid = np.array([-1.0, 0.5, 50.0])
        nan = complex(np.nan, np.nan)
        blocks = sq.PairSpectralBlocks(grid, np.array([nan, nan, 0.5]),
                                       np.array([nan, nan, 2.0]),
                                       np.array([nan, nan, 0.0]))
        with pytest.raises(ValueError, match=r"finite spectrum.* -1 to 50"):
            sq.solve_quadrature_angle(blocks, math.pi / 4, objective)

    def test_invalid_objective(self, three_mode):
        state, _ = three_mode
        with pytest.raises(ValueError):
            sq.optimize_quadrature_angle(state, 1, objective="deepest")



def _quadrature_run(tmp_path, **over):
    # the quadrature product as the CLI writes it: a weak-pump flat
    # state at K = 6 is cheap to solve and reaches the pair products
    raw = {"schema": 1, "name": "quadrature-csv", "mode": "above_threshold",
           "resonator": {"pump_wavelength": 1550e-9, "main_radius": 2.5e-3,
                         "group_index": 1.43, "intrinsic_Q": 1e9,
                         "through_Q": 0.25e9, "pump_power": 1e-6,
                         "detuning": 0.0, "gamma": 0.001,
                         "zeta2": 2.0 * math.pi * 2.9e3},
           "state": {"kind": "flat", "K": 6},
           "outputs": ["quadrature_spectrum"]}
    raw.update(over)
    assert cli.run_scenario(raw, tmp_path) == 0
    (record,) = json.loads((tmp_path / "report.json").read_text())["products"]
    return (tmp_path / record["file"]).read_text(), record


class TestCsv:
    def test_spectrum_csv_digits(self, tmp_path, monkeypatch):
        series = sq.SpectrumSeries(np.array([0.5]), np.array([1.0 / 3.0]))
        blocks = sq.PairSpectralBlocks(series.x, series.values,
                                       series.values, np.zeros(1))
        opt = sq.AngleOptimum(Phi_l=0.0, delta_Phi=0.1, objective=0.0,
                              spectrum=series, degenerate=False,
                              blocks=blocks)
        monkeypatch.setattr(sq, "optimize_quadrature_angle",
                            lambda state, l, **angle: opt)
        text, _ = _quadrature_run(tmp_path, pairs=[1])
        assert "3.333333333333e-01" in text
        comment, header = text.splitlines()[:2]
        assert comment == "# pair l=1, phi=0.100000 rad (pair frame)"
        assert header == "omega_over_kappa,S"

    def test_optimum_report_fields(self, three_mode, tmp_path, monkeypatch):
        # the three-mode roll stands in for the solved state; pairs
        # default to its roll order
        state, _ = three_mode
        monkeypatch.setattr(ss, "find_steady_state",
                            lambda params, seed, **kw: state)
        optimize = sq.optimize_quadrature_angle
        monkeypatch.setattr(sq, "optimize_quadrature_angle",
                            lambda state, l, **angle: optimize(
                                state, l,
                                omega_grid=sq.default_omega_grid(128),
                                **angle))
        _, rep = _quadrature_run(tmp_path)
        assert set(rep) - {"file", "sha256", "seconds", "product"} == {
            "l", "Phi_l", "delta_Phi", "objective", "flags"}
        assert rep["flags"] == {"degenerate": False}
        assert rep["l"] == state.roll_order
