"""Acceptance gate: one test per criterion, with pinned tolerances.

Each test is a single pass/fail line under `pytest -v`.  Expensive solver
states come from the session fixtures in conftest.py, which also record
their wall-clock solve time so runtime budgets can be asserted.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from kerrcomb import _modal
from kerrcomb import hamiltonian_audit as ha
from kerrcomb import linearization as lin
from kerrcomb import spontaneous as sp
from kerrcomb import squeezing as sq
from kerrcomb import steady_state as ss
from kerrcomb import units

from conftest import (analytic_three_mode_spectra, build_RS, caf2_config,
                      commutator_mode_count, flux_parseval_oracle,
                      input_correlation, make_flat,
                      number_difference_commutators, output_correlation,
                      photon_number_difference_spectrum, three_mode_rates)

BAND = (0.1, 10.0)


def _min_in_band(values, grid):
    sel = (np.abs(grid) >= BAND[0]) & (np.abs(grid) <= BAND[1])
    return float(np.nanmin(np.asarray(values)[sel]))


def test_01_threshold_power_value_and_runtime(vi_c_budget):
    params = units.modal_params(caf2_config(detuning=-vi_c_budget.kappa))
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        p_th = units.threshold_pump_power(params)
        best = min(best, time.perf_counter() - t0)
    assert p_th == pytest.approx(2.06e-3, rel=1e-2)
    assert best < 1e-3


def test_02_roll_order_prediction_and_realized_pattern(roll20, vi_c_budget):
    L = units.predicted_roll_order(-vi_c_budget.kappa, vi_c_budget.kappa,
                                   vi_c_budget.zeta2)
    assert L == 18
    state, seconds = roll20
    assert state.pattern is ss.PatternKind.ROLL
    assert state.roll_order == 20
    assert seconds < 60.0


def test_03_envelope_peak_positions():
    ls = np.arange(-100, 101)
    high_blue, _ = make_flat(0.1, 5.0, 0.01, rho=0.5)
    assert sp.envelope_peaks(high_blue) == (-32, 32)
    half_blue, _ = make_flat(0.1, 0.5, 0.01, rho=0.5)
    assert sp.envelope_peaks(half_blue) == (-12, 12)
    red, _ = make_flat(0.1, -5.0, 0.01, rho=0.5)
    assert sp.envelope_peaks(red) == (0,)
    kind, _, _ = sp.lineshape_peaks(ls, red)
    assert set(kind) == {sp.LineShapeKind.DOUBLE_PEAKED.value}


def test_04_lineshape_classification_and_peak_positions():
    flat, A0 = make_flat(0.1, 0.5, 0.01, rho=0.5)
    p = flat.params
    g = p.g0 * abs(A0) ** 2
    ls = np.array([1, -1, 25, -25, 50, -50])
    kinds, _, peak_frequencies = sp.lineshape_peaks(ls, flat)
    assert kinds.tolist() == [sp.LineShapeKind.SINGLE_PEAKED.value] * 2 + [
        sp.LineShapeKind.DOUBLE_PEAKED.value] * 4
    positions = {}
    for l, w in zip(ls[2:].tolist(), peak_frequencies[2:]):
        xi = p.sigma - p.zeta2 * l**2 / 2.0 + 2.0 * g
        w_m = math.sqrt(xi**2 - p.kappa**2 - g**2)
        assert w == pytest.approx(w_m, abs=1e-10)
        positions[abs(l)] = w_m
        # the closed-form position must coincide with a fine-grid argmax
        grid = np.linspace(0.0, 2.0 * w_m / p.kappa, 20001)
        s = sp.spontaneous_spectrum(l, flat, grid)
        dw = grid[1] - grid[0]
        assert grid[np.argmax(s.values)] == pytest.approx(
            w_m / p.kappa, abs=2 * dw)
    assert positions[50] > positions[25]


def test_05_parseval_oracle_randomized_weak_regime():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    for _ in range(20):
        g = float(rng.uniform(0.02, 0.6))
        sigma = float(rng.uniform(-1.5, 1.5))
        zeta2 = float(rng.uniform(0.004, 0.02))
        rho = float(rng.uniform(0.3, 0.9))
        l = int(rng.integers(0, 41))
        flat, _ = make_flat(g, sigma, zeta2, rho=rho)
        R, _, regime = sp.sidemode_flux(l, flat)
        assert regime == "weak"
        assert flux_parseval_oracle(l, flat) == pytest.approx(
            R, rel=1e-3)
    assert time.perf_counter() - t0 < 10.0


def test_06_photon_number_difference_spectrum(three_mode):
    # the number difference of pair L is C11 of the state's own pair
    # blocks, the series the number_difference product writes; on a
    # three-mode comb it is the closed form 1 - rho 4k^2/(w^2 + 4k^2)
    state, _ = three_mode
    p = state.params
    grid = sq.default_omega_grid(512)
    opt = sq.optimize_quadrature_angle(state, state.roll_order,
                                       omega_grid=grid)
    s = sq.quadrature_spectrum(opt.blocks, 0.0).values
    expected = photon_number_difference_spectrum(p.rho, p.kappa, grid).values
    np.testing.assert_allclose(s, expected, rtol=0.0, atol=1e-13)


def test_07_matrix_analytic_equivalence_and_power_sweep(three_mode,
                                                        vi_c_budget):
    t0 = time.perf_counter()
    state, fixture_seconds = three_mode
    p = state.params
    L = state.roll_order
    grid = sq.default_omega_grid(512)
    # the deepest-point objective keeps the angle pinned to the amplitude
    # quadrature; the band integral trades the low-frequency dip away
    opt = sq.optimize_quadrature_angle(state, L, omega_grid=grid,
                                       objective="min")
    kappa_a, kappa_p = three_mode_rates(state)
    S_a, _ = analytic_three_mode_spectra(kappa_a, kappa_p, p.rho, grid,
                                         kappa=p.kappa)
    sel = np.abs(grid) <= 6.0
    dev = np.max(np.abs(opt.spectrum.values[sel] - S_a.values[sel]))
    assert dev <= 5e-3

    # squeezing must persist through the sweep: min S < 1 - 0.8 rho + 0.15
    bound = 1.0 - 0.8 * p.rho + 0.15
    assert _min_in_band(opt.spectrum.values, grid) < bound
    p_th = units.threshold_pump_power(
        units.modal_params(caf2_config(detuning=-vi_c_budget.kappa)))
    # seed selects among coexisting roll attractors; 2.5 P_th needs seed 1
    for mult, seed in ((1.1, 0), (1.5, 0), (2.0, 0), (2.5, 1), (3.0, 0)):
        params = units.modal_params(
            caf2_config(pump_power=mult * p_th, detuning=-vi_c_budget.kappa))
        roll = ss.find_steady_state(params, kind="roll", seed=seed)
        o = sq.optimize_quadrature_angle(
            roll, roll.roll_order, omega_grid=grid,
            half_width=math.pi / 2, objective="min")
        assert _min_in_band(o.spectrum.values, grid) < bound
    assert fixture_seconds + time.perf_counter() - t0 < 300.0


def test_08_flat_state_pair_block_reduction():
    flat, A0 = make_flat(0.35, -0.9, 0.012, rho=0.6)
    p = flat.params
    g = p.g0 * abs(A0) ** 2
    K = 10
    a = np.zeros(2 * K + 1, dtype=complex)
    a[K] = A0
    state = ss.CombState(a, p, ss.residual(a, p))
    assert state.residual_norm <= lin.RESIDUAL_GATE
    R, S = build_RS(a, p)
    scale = abs(p.kappa)
    for l in range(-K, K + 1):
        xi = p.sigma - p.zeta2 * l**2 / 2.0 + 2.0 * g
        # R is diagonal with -kappa + i xi_l; S couples only l <-> -l
        assert R[K + l, K + l] == pytest.approx(-p.kappa + 1j * xi,
                                                abs=1e-12 * scale)
        row_R = R[K + l].copy()
        row_R[K + l] = 0.0
        assert np.max(np.abs(row_R)) <= 1e-15 * scale
        row_S = S[K + l].copy()
        assert row_S[K - l] == pytest.approx(1j * p.g0 * A0**2,
                                             abs=1e-12 * scale)
        row_S[K - l] = 0.0
        assert np.max(np.abs(row_S)) <= 1e-15 * scale
        # the pair-block determinant is the fluorescence denominator:
        # S_l(w) |det(i w I - M)|^2 = 4 rho kappa^2 g^2
        M = np.array([[-p.kappa + 1j * xi, 1j * p.g0 * A0**2],
                      [-1j * p.g0 * A0.conjugate() ** 2, -p.kappa - 1j * xi]])
        for w in (0.0, 0.5 * p.kappa, 2.0 * p.kappa):
            det = np.linalg.det(1j * w * np.eye(2) - M)
            s_l = sp.spontaneous_spectrum(
                l, flat, np.array([w / p.kappa])).values[0]
            assert s_l * abs(det) ** 2 == pytest.approx(
                4.0 * p.rho * p.kappa**2 * g**2, rel=1e-10)


def test_09_jacobian_finite_difference_oracle(roll20, bright_soliton,
                                              dark_soliton):
    flat, A0 = make_flat(0.4, -0.8, 0.015)
    a_flat = np.zeros(17, dtype=complex)
    a_flat[8] = A0
    fields = [(a_flat, flat.params)]
    for state, _ in (roll20, bright_soliton, dark_soliton):
        fields.append((state.amplitudes, state.params))
    rng = np.random.default_rng(5)
    for a, params in fields:
        R, S = build_RS(a, params)
        scale = float(np.max(np.abs(a)))
        eps = 1e-6 * scale
        for _ in range(10):
            d = rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
            d /= np.linalg.norm(d)
            fd = (_modal.vector_field(a + eps * d, params)
                  - _modal.vector_field(a - eps * d, params)) / (2.0 * eps)
            predicted = R @ d + S @ d.conj()
            err = np.linalg.norm(fd - predicted) / np.linalg.norm(predicted)
            assert err < 1e-6


def test_10_all_converged_states_are_stable(roll20, three_mode,
                                            bright_soliton, dark_soliton):
    for state, _ in (roll20, three_mode, bright_soliton, dark_soliton):
        assert state.residual_norm <= ss.NEWTON_TOL
        top = float(lin.stability_spectrum(state)[0].real)
        assert top <= 1e-6 * state.params.kappa


def test_11_hamiltonian_audit_counts():
    for K in range(0, 7):
        mset = ha.enumerate_monomials(K)
        assert mset.ordered_count == ha.expected_total(K)
    assert ha.expected_total(1) == 19
    assert ha.expected_total(2) == 85
    for K in range(0, 5):
        for l in range(-K, K + 1):
            assert commutator_mode_count(K, l) == 3 * K**2 + 3 * K - l**2 + 1
    # flags report whether [n_{+l} - n_{-l}, H_part] vanishes
    for K in range(1, 6):
        for l in range(1, K + 1):
            flags = number_difference_commutators(K, l)
            assert flags["spm"] is True
            assert flags["cpm"] is True
    assert number_difference_commutators(2, 1)["fwm"] is False
    assert number_difference_commutators(1, 1)["fwm"] is True


@pytest.mark.parametrize("kind", ["bright", "dark"])
def test_12_soliton_pair_squeezing_and_hierarchy(kind, request):
    t0 = time.perf_counter()
    state, fixture_seconds = request.getfixturevalue(f"{kind}_soliton")
    p = state.params
    grid = sq.default_omega_grid(512)
    opt = sq.optimize_quadrature_angle(state, 1, omega_grid=grid,
                                       half_width=math.pi / 2,
                                       objective="min")
    floor = 1.0 - 0.5 * p.rho
    assert _min_in_band(opt.spectrum.values, grid) < floor
    jac = lin.build_quadrature_jacobian(state)
    mins = []
    for l in (1, 5, 10, 20):
        blocks = sq.pair_spectral_blocks(jac.eigen, p.rho, grid, l)
        s = sq.quadrature_spectrum(blocks, opt.delta_Phi).values
        mins.append(_min_in_band(s, grid))
    # non-decreasing with a 5e-3 slack for the near-shot-noise tail
    for lo, hi in zip(mins, mins[1:]):
        assert lo <= hi + 5e-3
    assert fixture_seconds + time.perf_counter() - t0 < 600.0


def test_13_input_correlation_structure():
    for K in range(1, 7):
        C = input_correlation(K)
        eye = np.eye(K)
        expected = np.block([[eye, 1j * eye], [-1j * eye, eye]])
        np.testing.assert_array_equal(C, expected)
    # frequency independence: an empty lossless cavity reflects vacuum
    # unchanged at every analysis frequency
    J_q = -np.eye(6)
    for w in (0.05, 0.3, 1.0, 4.0, 9.0):
        C_out = output_correlation(J_q, 1.0, 1.0, w)
        np.testing.assert_allclose(C_out, input_correlation(3), atol=1e-12)
