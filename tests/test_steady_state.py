"""Stationary-state solver: flat branches, relaxation, Newton, patterns."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import hbar

from kerrcomb import _modal
from kerrcomb import linearization as lin
from kerrcomb import squeezing as sq
from kerrcomb import steady_state as ss
from kerrcomb import units

from conftest import (OMEGA_L, TWO_PI, caf2_config, make_flat,
                      propagate_allocating)


def _params(g_over, sigma_over, zeta2_over, rho=0.5):
    branches, _ = make_flat(g_over, sigma_over, zeta2_over, rho=rho)
    return branches.params


class TestFlatBranches:
    def test_zero_pump_gives_vacuum(self):
        params = units.ModalParams(kappa=1.0, kappa_t=0.5, sigma=0.0,
                                   zeta2=0.01, g0=1e-3, A_in=0.0, rho=0.5,
                                   omega_L=OMEGA_L)
        branches = ss.solve_flat_state(params)
        assert branches.photon_numbers == (0.0,)
        assert branches.lower == 0.0

    def test_very_weak_linear_limit(self, vi_c_budget):
        # N -> 2 kappa_t P / (hbar omega kappa^2) when the Kerr shift is tiny
        cfg = caf2_config(pump_power=1e-9)
        params = units.modal_params(cfg)
        branches = ss.solve_flat_state(params)
        expected = (2.0 * vi_c_budget.kappa_t * 1e-9
                    / (hbar * cfg.omega_L * vi_c_budget.kappa**2))
        assert branches.photon_numbers[0] == pytest.approx(expected, rel=1e-6)

    def test_threshold_photon_number(self, vi_c_budget):
        # at P = P_th(sigma = -kappa) the flat state carries N = kappa/g0
        p_th = units.threshold_pump_power(
            units.modal_params(caf2_config(detuning=-vi_c_budget.kappa)))
        params = units.modal_params(
            caf2_config(pump_power=p_th, detuning=-vi_c_budget.kappa))
        branches = ss.solve_flat_state(params)
        n_th = vi_c_budget.kappa / params.g0
        assert any(math.isclose(N, n_th, rel_tol=1e-6)
                   for N in branches.photon_numbers)

    def test_bistable_window(self):
        # strong red detuning: three branches, ascending, middle accessible
        branches, _ = make_flat(1.2, -2.4, 0.01)
        assert branches.bistable
        N = branches.photon_numbers
        assert N[0] < N[1] < N[2]
        assert abs(branches.amplitudes[1]) ** 2 == pytest.approx(N[1],
                                                                rel=1e-9)

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
        branches, A0 = make_flat(0.5, -1.0, 0.01)
        a = np.zeros(41, dtype=complex)
        a[20] = A0
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
                                   zeta2=0.01, g0=0.0, A_in=2.0, rho=0.5,
                                   omega_L=OMEGA_L)
        a0 = np.zeros(9, dtype=complex)
        t_end = 3.0
        a, _ = ss.propagate(a0, params, horizon=t_end, step=1e-3,
                            limit=ss._runaway_limit(a0, params))
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
                                limit=ss._runaway_limit(a, p))
        # residual floors at the O(dt^2) splitting bias, not at zero
        assert res < 1e-7
        assert abs(out[16]) ** 2 == pytest.approx(
            branches.photon_numbers[0], rel=1e-6)
        assert np.max(np.abs(np.delete(out, 16))) < 1e-7 * abs(out[16])

    def test_divergence_raises(self):
        # a linearly amplifying flow (negative damping) exercises the guard
        params = units.ModalParams(kappa=-1.0, kappa_t=0.5, sigma=0.0,
                                   zeta2=0.0, g0=1e-3, A_in=1.0, rho=0.5,
                                   omega_L=OMEGA_L)
        a0 = np.ones(5, dtype=complex)
        with pytest.raises(ss.DivergenceError) as exc:
            ss.propagate(a0, params, horizon=100.0, step=1e-2,
                         limit=ss._runaway_limit(a0, params))
        assert exc.value.last_amps is not None


def _propagation_outcome(run, *args):
    """(DivergenceError message or None, amplitudes, residual or None)."""
    try:
        amps, res = run(*args)
    except ss.DivergenceError as exc:
        return str(exc), exc.last_amps, None
    return None, amps, res


class TestBufferedPropagate:
    # the buffered loop must round like the allocating one at every step,
    # in a damped flow and in an amplifying one (negative kappa) that
    # passes the runaway limit at the same step
    @given(K=st.integers(1, 24), step=st.floats(1e-3, 5e-2),
           steps=st.integers(1, 300), kappa=st.floats(0.2, 3.0),
           amplifying=st.booleans(), sigma=st.floats(-3.0, 3.0),
           zeta2=st.floats(-0.1, 0.1), g0=st.floats(0.0, 2.0),
           A_in=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
    @example(K=4, step=5e-2, steps=300, kappa=1.0, amplifying=True,
             sigma=0.0, zeta2=0.0, g0=1e-3, A_in=1.0, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_matches_allocating_loop(self, K, step, steps, kappa, amplifying,
                                     sigma, zeta2, g0, A_in, seed):
        params = units.ModalParams(
            kappa=-kappa if amplifying else kappa, kappa_t=0.5 * kappa,
            sigma=sigma * kappa, zeta2=zeta2 * kappa, g0=g0 * kappa,
            A_in=A_in, rho=0.5, omega_L=OMEGA_L)
        rng = np.random.default_rng(seed)
        n = 2 * K + 1
        a0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        args = a0, params, steps * step, step, ss._runaway_limit(a0, params)
        error, amps, res = _propagation_outcome(ss.propagate, *args)
        want_error, want_amps, want_res = _propagation_outcome(
            propagate_allocating, *args)
        assert error == want_error          # the same step, if any
        assert res == want_res
        assert np.array_equal(amps, want_amps)


class TestRefine:
    def test_polishes_perturbed_flat(self):
        branches, _ = make_flat(0.4, -0.5, 0.01)
        a = np.zeros(21, dtype=complex)
        a[10] = branches.lower * (1.0 + 1e-4)
        out, res = ss.refine(a, branches.params)
        assert res <= ss.NEWTON_TOL
        assert out[10] == pytest.approx(branches.lower, rel=1e-10)

    def test_stall_raises_refinement_error(self):
        # start so far outside the capture basin of any root that 60
        # Newton steps, each shrinking the field by about 2/3, end outside it
        params = units.ModalParams(kappa=1.0, kappa_t=0.5, sigma=-10.0,
                                   zeta2=0.01, g0=1.0, A_in=100.0, rho=0.5,
                                   omega_L=OMEGA_L)
        a = np.full(9, 1e12 + 1e12j, dtype=complex)
        with pytest.raises(ss.RefinementError) as exc:
            ss.refine(a, params)
        assert exc.value.best_residual > 0

    def test_stall_allows_three_non_improving_steps(self, monkeypatch):
        # the small roll's field after 64/kappa of relaxation lies outside
        # Newton's basin: its own flow is the best, and three steps fail
        # to improve on it
        params, K = _params(1.2, -1.0, 0.05), 16
        seed = ss.seed_roll(params, K)
        a, _ = ss.propagate(seed, params, 64.0, ss.RELAX_STEP,
                            ss._runaway_limit(seed, params))
        fields, residuals = [], []
        vector_field = _modal.vector_field

        def logged(amps, params):
            F = vector_field(amps, params)
            fields.append(amps.copy())
            residuals.append(ss._flow_residual(amps, F, params))
            return F

        monkeypatch.setattr(_modal, "vector_field", logged)
        with pytest.raises(ss.RefinementError) as exc:
            ss.refine(a, params)
        # one flow evaluation per field: the start, then one per step
        assert len(fields) == 4
        assert not any(np.array_equal(f, g)
                       for i, f in enumerate(fields) for g in fields[:i])
        assert min(residuals[1:]) >= residuals[0] == exc.value.best_residual

    def test_residual_is_sign_free_for_negative_kappa(self):
        # with kappa < 0 the field's residual must still be the positive
        # norm residual() reports, so the input is not taken as a root
        params = units.ModalParams(kappa=-1.0, kappa_t=0.5, sigma=0.0,
                                   zeta2=0.0, g0=1e-3, A_in=1.0, rho=0.5,
                                   omega_L=OMEGA_L)
        out, res = ss.refine(np.ones(5), params)
        assert res == ss.residual(out, params)
        assert res <= ss.NEWTON_TOL


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

    def test_roll26_at_two_and_a_half_threshold(self, vi_c_budget,
                                               solver_calls):
        # roll_power_sweep's 2.5 P_th point at seed 0: the roll settles late
        # (handoff at 2000/kappa), and Newton from its symmetric projection
        # reaches a stable roll 26
        p_th = units.threshold_pump_power(
            units.modal_params(caf2_config(detuning=-vi_c_budget.kappa)))
        params = units.modal_params(caf2_config(
            pump_power=2.5 * p_th, detuning=-vi_c_budget.kappa))
        state = ss.find_steady_state(params, kind="roll", seed=0)
        assert (state.pattern, state.roll_order) == (ss.PatternKind.ROLL, 26)
        assert solver_calls["relaxed"] == pytest.approx(2000.0, rel=1e-12)
        eig = lin.stability_spectrum(state)
        assert lin.is_stable(eig, params.kappa)

    def test_flat_kind_short_circuit(self):
        params = _params(0.3, 0.0, 0.01)
        state = ss.find_steady_state(params, kind="flat", K=8)
        assert state.pattern is ss.PatternKind.FLAT
        assert state.roll_order is None

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            ss.find_steady_state(_params(0.3, 0.0, 0.01), kind="cnoidal")


@pytest.fixture
def solver_calls(monkeypatch):
    """Log the relaxation time of each propagate call and the pattern each
    refine call converges to (None when it raises)."""
    log = {"relaxed": 0.0, "trials": []}
    propagate, refine = ss.propagate, ss.refine

    def counted_propagate(amps, params, horizon, step, limit):
        log["relaxed"] += horizon
        return propagate(amps, params, horizon, step, limit)

    def counted_refine(amps, params):
        try:
            a, res = refine(amps, params)
        except ss.RefinementError:
            log["trials"].append(None)
            raise
        log["trials"].append(ss.classify(a, params)[0])
        return a, res

    monkeypatch.setattr(ss, "propagate", counted_propagate)
    monkeypatch.setattr(ss, "refine", counted_refine)
    return log


class TestHandoff:
    """Chunked relaxation with a Newton trial after every chunk."""

    @staticmethod
    def _small_roll():
        # roll(7) at K = 16: early Newton trials reach the flat root, and
        # the first trial to reach the roll is the one at t = 80/kappa
        return _params(1.2, -1.0, 0.05), 16

    @pytest.mark.parametrize("horizon, trials", [(8.0, 5), (40.0, 8)])
    def test_no_handoff_is_propagate_then_refine(self, solver_calls, horizon,
                                                 trials):
        # trials after 0.5, 1, 2, 4 and 8/kappa, then every 16/kappa and at
        # the horizon: each converges to the flat root and is rejected
        params, K = self._small_roll()
        state = ss.find_steady_state(params, kind="roll", K=K, horizon=horizon)
        assert solver_calls["trials"] == [ss.PatternKind.FLAT] * trials
        seed = ss.seed_roll(params, K)
        relaxed, _ = ss.propagate(seed, params, horizon, ss.RELAX_STEP,
                                  ss._runaway_limit(seed, params))
        a, res = ss.refine(relaxed, params)
        np.testing.assert_array_equal(state.amplitudes, a)
        assert state.residual_norm == res
        assert state.pattern is ss.PatternKind.FLAT

    def test_small_roll_matches_full_horizon(self, solver_calls):
        params, K = self._small_roll()
        horizon = 200.0
        state = ss.find_steady_state(params, kind="roll", K=K, horizon=horizon)
        assert solver_calls["relaxed"] < horizon
        seed = ss.seed_roll(params, K)
        relaxed, _ = ss.propagate(seed, params, horizon, ss.RELAX_STEP,
                                  ss._runaway_limit(seed, params))
        full, _ = ss.refine(relaxed, params)
        assert (state.pattern, state.roll_order) == ss.classify(full, params)
        assert state.pattern is ss.PatternKind.ROLL
        I_full = np.abs(full) ** 2
        np.testing.assert_allclose(state.intensities, I_full, rtol=0.0,
                                   atol=1e-9 * I_full.max())

    def test_trial_after_every_chunk(self, solver_calls, monkeypatch):
        # no trial of this solve is accepted (the roll 7 is reached at 80),
        # and refining the field at the horizon fails, which is raised
        params, K = self._small_roll()
        times = []
        refine = ss.refine

        def timed_refine(amps, params):
            times.append(solver_calls["relaxed"])
            return refine(amps, params)

        monkeypatch.setattr(ss, "refine", timed_refine)
        with pytest.raises(ss.RefinementError):
            ss.find_steady_state(params, kind="roll", K=K,
                                 horizon=4.5 * ss.RELAX_CHUNK)
        np.testing.assert_allclose(
            times, [0.5, 1, 2, 4, 8, 16, 32, 48, 64, 72], rtol=1e-12)

    def test_unstable_trial_root_is_rejected(self, monkeypatch):
        # at a 2/kappa cadence a trial converges to an unstable roll 9
        # before the roll 7 has formed; only the stable roll 7 is accepted
        monkeypatch.setattr(ss, "RELAX_CHUNK", 2.0)
        gated = []
        spectrum = lin.stability_spectrum

        def logged_spectrum(state):
            eig = spectrum(state)
            gated.append((state.roll_order,
                          lin.is_stable(eig, state.params.kappa)))
            return eig

        monkeypatch.setattr(lin, "stability_spectrum", logged_spectrum)
        params, K = self._small_roll()
        state = ss.find_steady_state(params, kind="roll", K=K, horizon=200.0)
        assert (9, False) in gated
        assert gated[-1] == (7, True)
        assert (state.pattern, state.roll_order) == (ss.PatternKind.ROLL, 7)

    def test_one_linearization_per_state(self, monkeypatch):
        # the stability gate, the stability product and every pair read
        # one linearization of each state: one build of the antisymmetric
        # reflection block (`refine` builds only symmetric ones), one
        # eigendecomposition of J_q (order 2K) and one symmetric-block
        # eigensolve (2K + 2)
        monkeypatch.setattr(ss, "RELAX_CHUNK", 2.0)
        monkeypatch.setattr(lin, "_last", None)
        built, factored, solved = [], [], []
        build, eig, eigvals = (_modal.reflection_block, np.linalg.eig,
                               np.linalg.eigvals)

        def counted(amps, params, sign):
            if sign < 0:
                built.append(amps.tobytes())
            return build(amps, params, sign)

        monkeypatch.setattr(_modal, "reflection_block", counted)
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: factored.append(a.shape) or eig(a))
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: solved.append(a.shape) or eigvals(a))
        params, K = self._small_roll()
        state = ss.find_steady_state(params, kind="roll", K=K, horizon=200.0)
        assert state.roll_order == 7
        lin.stability_spectrum(state)
        for l in (7, 14):
            sq.optimize_quadrature_angle(state, l,
                                         omega_grid=sq.default_omega_grid(64))
        # every gated trial root (roll 9 rejected, roll 7 accepted) once
        assert len(built) == len(set(built)) >= 2
        assert built[-1] == state.amplitudes.tobytes()
        assert factored == [(2 * K, 2 * K)] * len(built)
        assert solved == [(2 * K + 2, 2 * K + 2)] * len(built)

    @pytest.mark.parametrize("kind, pump, zeta2, sigma", [
        ("bright_soliton", 4e-3, TWO_PI * 2.9e3, -2.0),
        ("dark_soliton", 5.3e-3, -TWO_PI * 2.9e3, -2.5)])
    def test_solitons_hand_off_early(self, solver_calls, vi_c_budget, kind,
                                     pump, zeta2, sigma):
        cfg = caf2_config(pump_power=pump, zeta2=zeta2,
                          detuning=sigma * vi_c_budget.kappa)
        state = ss.find_steady_state(units.modal_params(cfg),
                                     kind=kind, horizon=500.0)
        assert state.pattern is ss.PatternKind(kind)
        assert solver_calls["relaxed"] == 0.5

    def test_roll_rejects_flat_trial(self, solver_calls, vi_c_budget):
        p_th = units.threshold_pump_power(
            units.modal_params(caf2_config(detuning=-vi_c_budget.kappa)))
        cfg = caf2_config(pump_power=1.1 * p_th, detuning=-vi_c_budget.kappa)
        state = ss.find_steady_state(units.modal_params(cfg), kind="roll")
        assert state.pattern is ss.PatternKind.ROLL
        assert ss.PatternKind.FLAT in solver_calls["trials"][:-1]
        assert solver_calls["trials"][-1] is ss.PatternKind.ROLL

    def test_runaway_caught_before_horizon(self, solver_calls, monkeypatch):
        # in 2/kappa chunks the amplifying flow grows like e^t (~7x per
        # chunk) until Kerr spreading out of the K = 2 band saturates it
        # near 70x its seed norm; a limit re-based on each chunk start
        # would follow it up and never fire
        monkeypatch.setattr(ss, "RELAX_CHUNK", 2.0)
        params = units.ModalParams(kappa=-1.0, kappa_t=0.5, sigma=0.0,
                                   zeta2=0.0, g0=1e-3, A_in=1.0, rho=0.5,
                                   omega_L=OMEGA_L)
        seed = np.ones(5, dtype=complex)
        with pytest.raises(ss.DivergenceError) as exc:
            ss.find_steady_state(params, K=2, horizon=3000.0, initial=seed)
        assert solver_calls["relaxed"] <= 2.0 * ss.RELAX_CHUNK
        assert np.isfinite(exc.value.last_amps).all()
        # the seed's bound (10 sqrt(5)) is checked after every split step,
        # each growing the field about e^RELAX_STEP, not once per chunk
        bound = ss._runaway_limit(seed, params)
        assert bound == pytest.approx(10.0 * math.sqrt(5.0))
        assert (bound < np.linalg.norm(exc.value.last_amps)
                <= math.exp(ss.RELAX_STEP) * bound)


class TestSymmetrization:
    def test_rotated_roll_is_symmetrized(self, roll20):
        state, _ = roll20
        # rigid rotation keeps the state stationary but breaks A_{-l} = A_l;
        # refine rotates it back and stays in the symmetric subspace
        theta = 0.731
        a_rot = state.amplitudes * np.exp(1j * state.mode_numbers * theta)
        a, res = ss.refine(a_rot, state.params)
        assert np.array_equal(a[::-1], a)
        assert res <= ss.NEWTON_TOL
        np.testing.assert_allclose(
            a, state.amplitudes, rtol=0.0,
            atol=1e-12 * np.max(np.abs(state.amplitudes)))

    def test_asymmetric_field_is_projected(self):
        params = _params(0.3, 0.0, 0.01)
        a = np.zeros(9, dtype=complex)
        a[4] = 1.0
        a[5] = 0.3
        a[3] = 0.2  # not related to a[5] by any rigid rotation
        try:
            out, res = ss.refine(a, params)
        except ss.RefinementError:
            return
        assert np.array_equal(out[::-1], out)
        assert res <= ss.NEWTON_TOL


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
        params = units.modal_params(cfg)
        L = units.predicted_roll_order(params.sigma, params.kappa, params.zeta2)
        assert ss.default_mode_cutoff(params, "roll") == max(4 * L, 64)
        assert ss.default_mode_cutoff(params, "bright_soliton") == 128
