"""Linearized fluctuation flow: block Jacobians, stability, pair frames."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from kerrcomb import _modal
from kerrcomb import linearization as lin
from kerrcomb import steady_state as ss
from kerrcomb import units

from conftest import (OMEGA_L, build_RS, full_stability_spectrum, make_flat,
                      reflection_blocks, three_mode_rates)


def _flat_state(g_over, sigma_over, zeta2_over, K=6, rho=0.5):
    branches, A0 = make_flat(g_over, sigma_over, zeta2_over, rho=rho)
    a = np.zeros(2 * K + 1, dtype=complex)
    a[K] = A0
    return ss.CombState(a, branches.params,
                        ss.residual(a, branches.params), ss.PatternKind.FLAT)


def _undefined_pairs(state):
    """Pairs l = 1..K with either mode at or below PATTERN_FLOOR of the peak
    intensity: the pairs that carry no meaningful phase."""
    I = np.abs(state.amplitudes) ** 2
    low = I <= ss.PATTERN_FLOOR * I.max()
    K = state.K
    return low[K + 1:] | low[:K][::-1]


def _block_spectrum(R, S):
    """Reference: eigenvalues of the complex block [[R, S], [S*, R*]] acting
    on (da, da*), the form in which the linearized flow is usually written."""
    return np.linalg.eigvals(np.block([[R, S], [S.conj(), R.conj()]]))


def _assert_same_spectrum(got, want, rtol=1e-10):
    """Eigenvalues matched one-to-one agree within rtol max|lambda|."""
    assert got.shape == want.shape
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    scale = float(np.max(np.abs(want)))
    assert float(cost[rows, cols].max()) <= rtol * scale


def _random_state(seed, K=5):
    """A non-stationary field with the residual gate bypassed (for FD checks
    of the Jacobian itself, which is defined for any field)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    params = units.ModalParams(kappa=1.0, kappa_t=0.5, sigma=-0.7,
                               zeta2=0.013, g0=0.05, A_in=1.3, rho=0.5,
                               omega_L=OMEGA_L)
    return a, params


def _assert_finite_difference(a, params, d, R, S, modes):
    """The central difference of the flow along d is R d + S d* on `modes`,
    a slice of l = -K..K that indexes both rows and columns of (R, S)."""
    d = d / np.linalg.norm(d)
    eps = 1e-6 * float(np.max(np.abs(a)))
    fd = (_modal.vector_field(a + eps * d, params)
          - _modal.vector_field(a - eps * d, params)) / (2.0 * eps)
    predicted = R @ d[modes] + S @ d[modes].conj()
    err = np.linalg.norm(fd[modes] - predicted) / np.linalg.norm(predicted)
    assert err < 1e-6


class TestModalJacobian:
    def test_zero_kerr_is_diagonal(self):
        params = units.ModalParams(kappa=1.0, kappa_t=0.5, sigma=0.4,
                                   zeta2=0.02, g0=0.0, A_in=1.0, rho=0.5,
                                   omega_L=OMEGA_L)
        a = np.zeros(9, dtype=complex)
        a[4] = math.sqrt(2.0 * params.kappa_t) * params.A_in / (
            params.kappa - 1j * params.sigma)
        R, S = build_RS(a, params)
        l = np.arange(-4, 5)
        expected = -params.kappa + 1j * (params.sigma - params.zeta2 * l**2 / 2)
        np.testing.assert_allclose(np.diag(R), expected, atol=1e-15)
        assert np.max(np.abs(R - np.diag(np.diag(R)))) == 0.0
        assert np.max(np.abs(S)) == 0.0

    def test_S_is_symmetric(self, roll20):
        state, _ = roll20
        _, S = build_RS(state.amplitudes, state.params)
        np.testing.assert_allclose(S, S.T, atol=1e-18)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_finite_difference_oracle(self, seed):
        # dF = R da + S da* for the full nonlinear vector field
        a, params = _random_state(seed)
        rng = np.random.default_rng(seed + 1)
        d = rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
        _assert_finite_difference(a, params, d, *build_RS(a, params),
                                  slice(None))

    def test_residual_gate_refuses_sloppy_state(self, monkeypatch):
        # the gate, not the symmetry check after it, refuses the state
        a, params = _random_state(3)
        state = ss.CombState(a, params, ss.residual(a, params))
        assert state.residual_norm > lin.RESIDUAL_GATE
        monkeypatch.setattr(lin, "_last", None)
        for entry in (lin.build_quadrature_jacobian, lin.stability_spectrum):
            with pytest.raises(ValueError, match="exceeds the linearization "
                                                 "gate"):
                entry(state)
        assert lin._last is None

    def test_gauge_invariance_of_spectrum(self, roll20):
        # rigid rotation by theta is the unitary U = diag(e^{i l theta}); it
        # maps R -> U R U^H and S -> U S U, so the spectrum must not move
        state, _ = roll20
        u = np.exp(1j * state.mode_numbers * 0.42)
        rotated = ss.CombState(state.amplitudes * u, state.params,
                               state.residual_norm, state.pattern,
                               state.roll_order)
        R0, S0 = build_RS(state.amplitudes, state.params)
        R1, S1 = build_RS(rotated.amplitudes, rotated.params)
        scale = 1e-13 * max(np.abs(R0).max(), np.abs(S0).max())
        np.testing.assert_allclose(R1, u[:, None] * R0 * u.conj(), rtol=0.0,
                                   atol=scale)
        np.testing.assert_allclose(S1, u[:, None] * S0 * u, rtol=0.0,
                                   atol=scale)
        # the rotated field is not symmetric, so its spectrum comes from the
        # full-space oracle; the neutral translation eigenvalue is left out:
        # its rounding error, about eps ||J|| cond, exceeds the 1e-8 bound
        e0, e1 = (np.sort(np.delete(e, np.argmin(np.abs(e))).real)
                  for e in (lin.stability_spectrum(state),
                            full_stability_spectrum(R1, S1)))
        np.testing.assert_allclose(e0, e1, atol=1e-8)


def _assert_fold_bitwise(a, params):
    """Both `_modal.reflection_block`s are the fold of the full (R, S)
    oracle, bit for bit."""
    want = reflection_blocks(*build_RS(a, params))
    for sign, (R_w, S_w) in zip((1, -1), want):
        R_b, S_b = _modal.reflection_block(a, params, sign)
        for got, ref in ((R_b, R_w), (S_b, S_w)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


class TestReflectionBlock:
    def test_fold_of_full_matrices_on_reference_states(self, roll20,
                                                       three_mode,
                                                       bright_soliton,
                                                       dark_soliton):
        for state, _ in (roll20, three_mode, bright_soliton, dark_soliton):
            _assert_fold_bitwise(state.amplitudes, state.params)

    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 40),
           g=st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_fold_of_full_matrices_on_random_fields(self, seed, K, g):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
        params = units.ModalParams(kappa=1.0, kappa_t=0.5,
                                   sigma=rng.uniform(-5.0, 5.0),
                                   zeta2=rng.uniform(-0.1, 0.1), g0=g,
                                   A_in=1.0, rho=0.5, omega_L=OMEGA_L)
        _assert_fold_bitwise(b + b[::-1], params)

    @pytest.mark.parametrize("sign", [1, -1])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_finite_difference_oracle(self, sign, seed):
        # on a symmetric field, a perturbation with d_{-l} = sign d_l keeps
        # its symmetry, and dF on rows l >= 0 (sign 1) or l >= 1 (sign -1)
        # is R_b d + S_b d* over the same columns
        a, params = _random_state(seed)
        a = a + a[::-1]
        K = (len(a) - 1) // 2
        rng = np.random.default_rng(seed + 1)
        d = rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
        _assert_finite_difference(
            a, params, d + sign * d[::-1],
            *_modal.reflection_block(a, params, sign),
            slice(K if sign > 0 else K + 1, None))


class TestFlatPairReduction:
    def test_two_by_two_blocks(self):
        # around the flat state each +/-l pair decouples; the quadrature
        # Jacobian must be block-diagonal with the analytic 2x2 blocks
        state = _flat_state(0.4, -0.8, 0.015, K=6)
        blk = lin.build_quadrature_jacobian(state)
        p = state.params
        A0 = state.amplitudes[state.K]
        g = p.g0 * abs(A0) ** 2
        # undefined pair frames default to Phi_l = 0, so the analytic block
        # carries the pump phase:  c = i g0 A0*^2
        c = 1j * p.g0 * A0.conjugate() ** 2
        K = state.K
        for i, l in enumerate(range(1, K + 1)):
            xi = p.sigma - p.zeta2 * l**2 / 2.0 + 2.0 * g
            sub = np.array([[blk.J_q[i, i], blk.J_q[i, K + i]],
                            [blk.J_q[K + i, i], blk.J_q[K + i, K + i]]])
            assert sub[0, 0] == pytest.approx(-p.kappa + c.real, abs=1e-12)
            assert sub[1, 1] == pytest.approx(-p.kappa - c.real, abs=1e-12)
            assert sub[0, 1] == pytest.approx(-xi - c.imag, abs=1e-12)
            assert sub[1, 0] == pytest.approx(xi - c.imag, abs=1e-12)
        # off-block entries vanish
        mask = np.ones_like(blk.J_q, dtype=bool)
        for i in range(K):
            for r, c in ((i, i), (i, K + i), (K + i, i), (K + i, K + i)):
                mask[r, c] = False
        assert np.max(np.abs(blk.J_q[mask])) < 1e-14

    def test_pair_eigenvalues_match_lineshape_roots(self):
        # eigenvalues of each 2x2 block are -kappa +/- sqrt(g^2 - xi^2)
        state = _flat_state(0.3, 0.5, 0.01, K=4)
        blk = lin.build_quadrature_jacobian(state)
        p = state.params
        g = p.g0 * abs(state.amplitudes[state.K]) ** 2
        K = state.K
        for i, l in enumerate(range(1, K + 1)):
            xi = p.sigma - p.zeta2 * l**2 / 2.0 + 2.0 * g
            sub = np.array([[blk.J_q[i, i], blk.J_q[i, K + i]],
                            [blk.J_q[K + i, i], blk.J_q[K + i, K + i]]])
            eig = np.linalg.eigvals(sub.astype(complex))
            root = complex(np.emath.sqrt(g**2 - xi**2))
            expected = np.array([-p.kappa + root, -p.kappa - root])
            eig = eig[np.lexsort((eig.real, eig.imag))]
            expected = expected[np.lexsort((expected.real, expected.imag))]
            np.testing.assert_allclose(eig, expected, atol=1e-10)


class TestLinearizationMemo:
    def test_key_is_amplitudes_and_params(self, monkeypatch):
        # the last state's linearization is returned again only while the
        # amplitudes (dtype, shape, bytes) and params are the same
        # one build of the antisymmetric reflection block per linearization
        built = []
        build = _modal.reflection_block

        def counted(amps, params, sign):
            if sign < 0:
                built.append(amps)
            return build(amps, params, sign)

        monkeypatch.setattr(_modal, "reflection_block", counted)
        monkeypatch.setattr(lin, "_last", None)

        def fresh(state):
            lin._last = None
            return lin.build_quadrature_jacobian(state)

        state = _flat_state(0.4, -0.8, 0.015)
        first = lin.build_quadrature_jacobian(state)
        eig = lin.stability_spectrum(state)
        copy = dataclasses.replace(state, amplitudes=state.amplitudes.copy())
        assert lin.build_quadrature_jacobian(copy) is first
        assert lin.stability_spectrum(copy) is eig
        assert len(built) == 1
        with pytest.raises(ValueError):
            first.J_q[0, 0] = 0.0

        p = state.params
        other = dataclasses.replace(
            state, params=dataclasses.replace(p, g0=1.5 * p.g0))
        jac = lin.build_quadrature_jacobian(other)
        assert len(built) == 2 and built[-1] is other.amplitudes
        assert not np.array_equal(jac.J_q, first.J_q)
        np.testing.assert_array_equal(jac.J_q, fresh(other).J_q)

        lin.build_quadrature_jacobian(copy)
        n = len(built)
        a = copy.amplitudes
        a *= 1.01                               # in place: same object
        jac = lin.build_quadrature_jacobian(copy)
        assert len(built) == n + 1
        assert not np.array_equal(jac.J_q, first.J_q)
        np.testing.assert_array_equal(jac.J_q, fresh(copy).J_q)


class TestQuadratureJacobian:
    def test_requires_symmetric_state(self, roll20):
        state, _ = roll20
        a_rot = state.amplitudes * np.exp(1j * state.mode_numbers * 0.3)
        rotated = ss.CombState(a_rot, state.params, state.residual_norm,
                               state.pattern, state.roll_order)
        with pytest.raises(ValueError):
            lin.build_quadrature_jacobian(rotated)

    def test_difference_coordinates_close(self, three_mode):
        # J_q must reproduce the modal flow restricted to D_l = da_l - da_{-l}
        state, _ = three_mode
        J_q, phis, *_ = lin.build_quadrature_jacobian(state)
        R, S = build_RS(state.amplitudes, state.params)
        K = state.K
        rng = np.random.default_rng(11)
        D = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        # map pair quadratures -> full modal perturbation (antisymmetric)
        da = np.zeros(2 * K + 1, dtype=complex)
        Dm = D * np.exp(1j * phis)         # undo the pair pre-rotation
        da[K + 1:] = Dm / 2.0
        da[:K] = (-Dm / 2.0)[::-1]
        dF = R @ da + S @ da.conj()
        # pull the difference components back into the rotated pair frame
        dD = (dF[K + 1:] - dF[:K][::-1]) * np.exp(-1j * phis)
        x = np.concatenate([D.real, D.imag])
        out = J_q @ x
        np.testing.assert_allclose(out[:K] + 1j * out[K:], dD, atol=1e-10)

    def test_pair_phase_rotation_invariance(self, three_mode):
        # the half-sum phase (arg A_l + arg A_{-l})/2 is invariant under
        # rigid rotation (the +/-l contributions cancel), modulo pi from
        # branch wrapping of the individual angles
        state, _ = three_mode
        theta = 0.1
        a_rot = state.amplitudes * np.exp(1j * state.mode_numbers * theta)
        rotated = ss.CombState(a_rot, state.params, state.residual_norm,
                               state.pattern, state.roll_order)
        undefined = _undefined_pairs(state)
        assert np.array_equal(_undefined_pairs(rotated), undefined)
        for u, p0, p1 in zip(undefined, lin.pair_phases(state),
                             lin.pair_phases(rotated)):
            if u:
                continue
            d = math.remainder(p1 - p0, math.pi)
            assert d == pytest.approx(0.0, abs=1e-9)

    def test_undefined_pairs_flagged(self):
        state = _flat_state(0.2, 0.0, 0.01, K=3)
        assert _undefined_pairs(state).all()
        assert np.all(lin.pair_phases(state) == 0.0)


class TestThreeModeRates:
    def test_rejects_non_roll(self, bright_soliton):
        state, _ = bright_soliton
        with pytest.raises(ValueError):
            three_mode_rates(state)

    def test_rejects_harmonic_content(self, roll20):
        # the broadband Roll(20) carries harmonics at +/-40, +/-60, ...
        state, _ = roll20
        with pytest.raises(ValueError):
            three_mode_rates(state)

    def test_near_threshold_rates(self, three_mode):
        state, _ = three_mode
        kappa_a, kappa_p = three_mode_rates(state)
        p = state.params
        # just above threshold the amplitude decay rate locks to kappa and
        # the phase rate collapses toward zero (free-running comb phase)
        assert kappa_a == pytest.approx(p.kappa, rel=1e-9)
        assert abs(kappa_p) < 0.1 * p.kappa


class TestMirrorSymmetry:
    # uniform loss plus a quadratic Hamiltonian: each reflection block is
    # -kappa I plus a Hamiltonian matrix, so its spectrum is mirrored
    # about Re lambda = -kappa, lambda <-> -2 kappa - conj(lambda), and its
    # trace is -n kappa, n its order
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 8),
           kappa=st.floats(0.1, 10.0), sigma=st.floats(-5.0, 5.0),
           zeta2=st.floats(-0.1, 0.1), g=st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_spectrum_mirrors_about_minus_kappa(self, seed, K, kappa, sigma,
                                                zeta2, g):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
        a = (b + b[::-1]) / np.max(np.abs(b + b[::-1]))
        params = units.ModalParams(kappa=kappa, kappa_t=0.5 * kappa,
                                   sigma=sigma * kappa, zeta2=zeta2 * kappa,
                                   g0=g * kappa, A_in=1.0, rho=0.5,
                                   omega_L=OMEGA_L)
        # any symmetric field, stationary or not: the residual gate is
        # passed by hand, as the flow's matrices are defined for every field
        state = ss.CombState(a, params, 0.0)
        sym = _modal.real_jacobian(*_modal.reflection_block(a, params, 1))
        jac = lin.build_quadrature_jacobian(state)
        for M, eig in ((sym, np.linalg.eigvals(sym)),
                       (jac.J_q, jac.eigen.lam)):
            assert np.trace(M) == pytest.approx(-len(M) * kappa, rel=1e-12)
            _assert_same_spectrum(eig, -2.0 * kappa - eig.conj())


def _near_jordan_Jq(delta, n, seed=0):
    """Real n x n J_q, orthogonally rotated, with eigenvalues -1 and
    -1 - delta sharing nearly one eigenvector: cond_2(V) ~ 2 / delta."""
    J = np.diag(np.linspace(-1.5, -3.0, n))
    J[0, 0], J[1, 1], J[0, 1] = -1.0, -1.0 - delta, 1.0
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return Q @ J @ Q.T


class TestEigenForm:
    @pytest.mark.parametrize("n", [4, 8])
    def test_accepts_exactly_where_cond_does(self, n):
        # bisect delta to the two closest J_q whose eigenvectors have
        # cond_2(V) on either side of COND_MAX; there the cheap bound
        # ||V||_F ||V^-1||_F exceeds it, so the SVD decides
        def cond(delta):
            return np.linalg.cond(np.linalg.eig(_near_jordan_Jq(delta, n))[1])

        above, below = 1e-4, 4e-4          # cond about 2e4 and 5e3
        assert cond(above) > lin.COND_MAX >= cond(below)
        for _ in range(60):
            mid = math.sqrt(above * below)
            if cond(mid) > lin.COND_MAX:
                above = mid
            else:
                below = mid
        assert cond(above) / cond(below) - 1.0 < 1e-6
        accepted = {}
        for delta in (below, above):
            J_q = _near_jordan_Jq(delta, n)
            V = np.linalg.eig(J_q)[1]
            bound = np.linalg.norm(V) * np.linalg.norm(np.linalg.inv(V))
            assert bound > lin.COND_MAX
            try:
                lin.eigen_form(J_q, 1.0)
                accepted[delta] = True
            except ValueError as exc:
                assert re.search(rf"K = {n // 2} .*cond_2\(V\) = .* exceeds "
                                 r"10000", str(exc))
                accepted[delta] = False
            assert accepted[delta] == (np.linalg.cond(V) <= lin.COND_MAX)
        assert accepted == {below: True, above: False}

    def test_no_svd_on_reference_states(self, monkeypatch, roll20,
                                        three_mode, bright_soliton,
                                        dark_soliton):
        calls = []

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)

        for name in ("svd", "cond"):
            spy(name, getattr(np.linalg, name))
        for state, _ in (roll20, three_mode, bright_soliton, dark_soliton):
            lin._last = None
            lin.build_quadrature_jacobian(state)
        lin._last = None
        assert calls == []

    def test_holds_three_square_arrays(self, bright_soliton):
        # J_q, V and the pole weights E; P is not kept
        def arrays(x):
            if isinstance(x, np.ndarray):
                yield x
            elif isinstance(x, tuple):
                for item in x:
                    yield from arrays(item)

        state, _ = bright_soliton
        n = 2 * state.K
        held = list(arrays(lin.build_quadrature_jacobian(state)))
        assert sum(x.shape == (n, n) for x in held) == 3
        assert all(x.ndim == 1 for x in held if x.shape != (n, n))


class TestStability:
    def test_all_reference_states_stable(self, roll20, three_mode,
                                         bright_soliton, dark_soliton):
        for state, _ in (roll20, three_mode, bright_soliton, dark_soliton):
            eig = lin.stability_spectrum(state)
            assert lin.is_stable(eig, state.params.kappa)

    def test_matches_block_oracle(self, roll20, three_mode, bright_soliton,
                                  dark_soliton):
        # the reflection blocks and the Schur form of J_q give the spectrum
        # of the complex block [[R, S], [S*, R*]]
        for state, _ in (roll20, three_mode, bright_soliton, dark_soliton):
            eig = lin.stability_spectrum(state)
            want = _block_spectrum(*build_RS(state.amplitudes, state.params))
            assert np.all(np.diff(eig.real) <= 0.0)
            _assert_same_spectrum(eig, want, rtol=1e-13)
            kappa = state.params.kappa
            assert lin.is_stable(eig, kappa) == lin.is_stable(want, kappa)

    def test_reflection_blocks_split_the_spectrum(self, roll20, three_mode,
                                                  bright_soliton,
                                                  dark_soliton):
        # on a symmetric state the symmetric and antisymmetric blocks
        # together carry every eigenvalue of the full linearized flow
        for state, _ in (roll20, three_mode, bright_soliton, dark_soliton):
            eig = lin.stability_spectrum(state)
            want = full_stability_spectrum(*build_RS(state.amplitudes,
                                                    state.params))
            _assert_same_spectrum(eig, want, rtol=1e-13)
            kappa = state.params.kappa
            assert lin.is_stable(eig, kappa) == lin.is_stable(want, kappa)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_block_oracle_on_random_fields(self, seed):
        # the Jacobian is defined for any field, stationary or not; on one
        # with a[::-1] == a the two blocks share out its eigenvalues
        a, params = _random_state(seed)
        a = a + a[::-1]
        eig = np.concatenate([np.linalg.eigvals(_modal.real_jacobian(
            *_modal.reflection_block(a, params, sign))) for sign in (1, -1)])
        _assert_same_spectrum(eig, _block_spectrum(*build_RS(a, params)))

    def test_flat_above_threshold_unstable(self):
        # g > kappa with xi band crossing zero: flat state is MI-unstable
        branches, A0 = make_flat(1.5, -3.0, 0.02)
        a = np.zeros(81, dtype=complex)
        a[40] = A0
        state = ss.CombState(a, branches.params,
                             ss.residual(a, branches.params))
        eig = lin.stability_spectrum(state)
        assert not lin.is_stable(eig, branches.params.kappa)
