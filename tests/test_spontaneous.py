import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import hbar

from kerrcomb import cli, io
from kerrcomb import spontaneous as sp
from kerrcomb import steady_state as ss
from kerrcomb import units
from conftest import (OMEGA_L, SCENARIOS, caf2_config, flux_parseval_oracle,
                      make_flat, per_mode_envelope_csv, per_mode_flux_csv,
                      python_mode_row, reference_csv)

# Synthetic parameter set used in the source material's lineshape figures:
# sigma = kappa/2, rho = 0.5, g = 0.1 kappa, zeta2 = kappa/100.
FIG_LINESHAPE = dict(g_over_kappa=0.1, sigma_over_kappa=0.5,
                     zeta2_over_kappa=0.01, rho=0.5)


@pytest.fixture(scope="module")
def flat_ls():
    branches, A0 = make_flat(**FIG_LINESHAPE)
    assert A0 == branches.lower
    return branches


def lineshape(l: int, flat) -> tuple:
    """(kind, peak value, w_m in rad/s) of sidemode l."""
    kind, peak, w_m = sp.lineshape_peaks(np.array([l]), flat)
    return sp.LineShapeKind(kind[0]), peak[0], w_m[0]


def lineshape_grid(l: int, flat) -> np.ndarray:
    """The omega/kappa grid of the spectrum product for sidemode l."""
    w_m = lineshape(l, flat)[2]
    window = max(sp.OMEGA_WINDOW, w_m / flat.params.kappa + 10.0)
    return sp.default_omega_grid(sp.OMEGA_POINTS, window)


def run_map(flat, l_max: int, outputs: list, out, monkeypatch) -> dict:
    """The report of the CLI's below-threshold products `outputs` over
    l = -l_max..l_max, written into `out`, with `flat` as the flat state."""
    monkeypatch.setattr(ss, "solve_flat_state", lambda params: flat)
    raw = json.loads((SCENARIOS / "below_threshold_caf2.json").read_text())
    raw.update(outputs=outputs, l_max=int(l_max))
    cli.run_scenario(raw, out)
    return json.loads((out / "report.json").read_text())


class TestSpectrum:
    def test_zero_pump_gives_zero(self):
        params = units.ModalParams(kappa=1.0, kappa_t=0.5, sigma=0.3,
                                   zeta2=0.01, g0=1e-3, A_in=0.0, rho=0.5,
                                   omega_L=OMEGA_L)
        from kerrcomb.steady_state import solve_flat_state
        flat = solve_flat_state(params)
        s = sp.spontaneous_spectrum(3, flat, np.linspace(-5, 5, 11))
        assert np.all(s.values == 0.0)

    def test_reference_peak_value(self, flat_ls):
        s = sp.spontaneous_spectrum(1, flat_ls, np.array([0.0]))
        assert s.values[0] == pytest.approx(0.02 / 1.473025**2, rel=1e-10)

    def test_double_peak_position(self, flat_ls):
        assert lineshape(25, flat_ls)[2] == pytest.approx(2.2069, rel=1e-4)

    @given(l=st.integers(-60, 60), w=st.floats(-15.0, 15.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, l, w, flat_ls):
        grid = np.array([w, -w])
        s_p = sp.spontaneous_spectrum(l, flat_ls, grid)
        s_m = sp.spontaneous_spectrum(-l, flat_ls, grid)
        assert s_p.values[0] == pytest.approx(s_p.values[1], rel=1e-12)
        assert s_p.values[0] == pytest.approx(s_m.values[0], rel=1e-12)
        assert np.all(s_p.values >= 0.0)

    def test_threshold_divergence_error(self):
        # g = kappa and xi_l = 0 requires 2g + sigma = zeta2 l^2 / 2:
        # engineered directly at l = 20 with zeta2 = 0.01 kappa
        branches2, _ = make_flat(1.0, -2.0 + 0.01 * 200, 0.01, rho=0.5)
        with pytest.raises(sp.NearThresholdError):
            sp.spontaneous_spectrum(20, branches2, sp.default_omega_grid())


class TestLineshapeClassification:
    @pytest.mark.parametrize("l,kind", [
        (1, sp.LineShapeKind.SINGLE_PEAKED),
        (-1, sp.LineShapeKind.SINGLE_PEAKED),
        (25, sp.LineShapeKind.DOUBLE_PEAKED),
        (-25, sp.LineShapeKind.DOUBLE_PEAKED),
        (50, sp.LineShapeKind.DOUBLE_PEAKED),
    ])
    def test_reference_modes(self, flat_ls, l, kind):
        assert lineshape(l, flat_ls)[0] is kind

    def test_separation_grows_with_l(self, flat_ls):
        assert lineshape(50, flat_ls)[2] > lineshape(25, flat_ls)[2]

    def test_classification_matches_grid_argmax(self, flat_ls):
        kappa = flat_ls.params.kappa
        for l in range(0, 101, 10):
            kind, _, w_m = lineshape(l, flat_ls)
            w_max = w_m / kappa + 10.0
            grid = np.linspace(-w_max, w_max, 40001)
            s = sp.spontaneous_spectrum(l, flat_ls, grid)
            w_star = abs(grid[np.argmax(s.values)])
            dw = grid[1] - grid[0]
            if kind is sp.LineShapeKind.SINGLE_PEAKED:
                assert w_m == 0.0 and w_star <= dw
            else:
                assert w_star == pytest.approx(w_m / kappa, abs=2 * dw)

    def test_envelope_touches_peaks(self, flat_ls):
        for l in range(-60, 61):
            env = lineshape(l, flat_ls)[1]
            s = sp.spontaneous_spectrum(l, flat_ls, lineshape_grid(l, flat_ls))
            assert env >= s.values.max() - 1e-12


def envelope_argmax(flat, l_max=100):
    """|l| of the largest envelope value, peak spectral density per mode."""
    ls = np.arange(-l_max, l_max + 1)
    return abs(ls[np.argmax(sp.lineshape_peaks(ls, flat)[1])])


class TestEnvelope:
    def test_two_maxima_blue_detuned(self):
        branches, _ = make_flat(0.1, 5.0, 0.01, rho=0.5)
        assert sp.envelope_peaks(branches) == (-32, 32)
        assert envelope_argmax(branches) == 32

    def test_two_maxima_half_kappa(self, flat_ls):
        assert sp.envelope_peaks(flat_ls) == (-12, 12)
        assert envelope_argmax(flat_ls) == 12

    def test_single_maximum_red_detuned(self):
        branches, _ = make_flat(0.1, -5.0, 0.01, rho=0.5)
        assert sp.envelope_peaks(branches) == (0,)
        kind, _, _ = sp.lineshape_peaks(np.arange(-100, 101), branches)
        assert set(kind) == {sp.LineShapeKind.DOUBLE_PEAKED.value}

    def test_zero_dispersion_names_zeta2(self):
        # a flat envelope has no peak modes
        branches, _ = make_flat(0.1, 0.5, 0.0, rho=0.5)
        with pytest.raises(ZeroDivisionError, match="zeta2 = 0"):
            sp.envelope_peaks(branches)


class TestFluxes:
    def test_parseval_weak(self, flat_ls):
        for l in (0, 1, 5, 12, 25, 40):
            R, _, regime = sp.sidemode_flux(l, flat_ls)
            assert regime == "weak"
            assert flux_parseval_oracle(l, flat_ls) == pytest.approx(
                R, rel=1e-3)

    def test_boundary_raises(self):
        # g^2 = kappa^2 + xi^2 at l = 0: g = sqrt(1 + xi^2), xi = sigma + 2g
        # choose sigma = -2g so xi = 0 and g = kappa exactly; the cubic has
        # a double root there, limiting the root accuracy to ~sqrt(eps)
        g = 1.0
        branches, _ = make_flat(g, -2.0 * g, 0.01, rho=0.5)
        with pytest.raises(sp.NearThresholdError):
            sp.sidemode_flux(0, branches)

    def test_singular_point_raises_everywhere(self):
        # g = kappa, sigma = -2 kappa, l = 0 puts m_0 = kappa^2 + xi_0^2 - g^2
        # on 0; the double root leaves m_0 ~ 5e-8 kappa^2 in floating point
        branches, _ = make_flat(1.0, -2.0, 0.01, rho=0.5)
        with pytest.raises(sp.NearThresholdError):
            sp.spontaneous_spectrum(0, branches, np.array([0.0, 1.0]))
        with pytest.raises(sp.NearThresholdError):
            next(sp.mode_spectra([0], branches))
        with pytest.raises(sp.NearThresholdError):
            sp.lineshape_peaks(np.arange(-2, 3), branches)
        with pytest.raises(sp.NearThresholdError):
            sp.sidemode_flux(0, branches)

    def test_strong_regime_tag(self):
        # g = 1.2 kappa on the lower (only) branch at sigma = 0 with
        # xi_22 = 2g - zeta2 22^2/2 = -0.02 kappa: g^2 > kappa^2 + xi^2
        branches, A0 = make_flat(1.2, 0.0, 0.01, rho=0.5)
        assert A0 == branches.lower
        R, _, regime = sp.sidemode_flux(22, branches)
        assert regime == "strong"
        assert R > 0

    def test_very_weak_matches_weak_limit(self, vi_c_budget):
        cfg = caf2_config(pump_power=1e-6)
        params = units.modal_params(cfg)
        from kerrcomb.steady_state import solve_flat_state
        flat = solve_flat_state(params)
        g = flat.params.g0 * abs(flat.lower) ** 2
        assert g < 1e-2 * vi_c_budget.kappa
        for l in (0, 5, 15):
            R_weak, _, _ = sp.sidemode_flux(l, flat)
            R_vw, _ = sp.very_weak_flux(l, params)
            assert R_vw == pytest.approx(R_weak, rel=1e-2)

    def test_rmax_magnitude_caf2(self):
        _, R_max5 = sp.very_weak_flux(
            0, units.modal_params(caf2_config(pump_power=5e-6)))
        assert 1.0 < R_max5 < 100.0  # ~10 photons/s at 5 uW
        _, R_max1 = sp.very_weak_flux(
            0, units.modal_params(caf2_config(pump_power=1e-6)))
        assert R_max5 == pytest.approx(25.0 * R_max1, rel=1e-12)

    def test_very_weak_resonant_is_rmax(self):
        params = units.modal_params(caf2_config(pump_power=1e-6))
        R, R_max = sp.very_weak_flux(0, params)
        assert R == pytest.approx(R_max, rel=1e-12)


class TestTotalPower:
    def test_resonant_closed_form_vs_sum(self, vi_c_budget):
        params = units.modal_params(caf2_config(pump_power=1e-6))
        closed, discrete = sp.total_spontaneous_power(params)
        assert closed == pytest.approx(discrete, rel=2e-2)
        _, R_max = sp.very_weak_flux(0, params)
        expected = (hbar * params.omega_L * R_max * math.pi
                    * math.sqrt(vi_c_budget.kappa / params.zeta2))
        assert closed == pytest.approx(expected, rel=1e-12)

    def test_sqrt_scaling_in_dispersion(self):
        p1, _ = sp.total_spontaneous_power(
            units.modal_params(caf2_config(pump_power=1e-6)))
        cfg4 = caf2_config(pump_power=1e-6, zeta2=4 * caf2_config().zeta2)
        p4, _ = sp.total_spontaneous_power(units.modal_params(cfg4))
        assert p4 == pytest.approx(p1 / 2.0, rel=1e-12)

    def test_detuned_tracks_discrete_sum(self, vi_c_budget):
        # pytest.approx is vacuous at the 1e-18 W scale (its default
        # absolute tolerance dwarfs the values), so compare ratios
        cfg = caf2_config(pump_power=1e-6)
        for s in (-3.0, -1.0, -0.5, 0.5, 1.0, 3.0):
            closed, discrete = sp.total_spontaneous_power(units.modal_params(
                dataclasses.replace(cfg, detuning=s * vi_c_budget.kappa)))
            assert discrete > 0.0
            assert abs(closed / discrete - 1.0) < 2e-3

    def test_detuned_sign_asymmetry(self, vi_c_budget):
        # with anomalous dispersion, red detuning pushes every mode off
        # resonance while blue detuning lets the dispersion curve cross it
        cfg = caf2_config(pump_power=1e-6)
        blue, _ = sp.total_spontaneous_power(units.modal_params(
            dataclasses.replace(cfg, detuning=2.0 * vi_c_budget.kappa)))
        red, _ = sp.total_spontaneous_power(units.modal_params(
            dataclasses.replace(cfg, detuning=-2.0 * vi_c_budget.kappa)))
        assert blue > 2.0 * red

    def test_zero_dispersion_raises(self):
        cfg = units.ResonatorConfig(
            pump_wavelength=1550e-9, main_radius=2.5e-3, group_index=1.43,
            intrinsic_Q=1e9, through_Q=0.25e9, pump_power=1e-6,
            detuning=0.0, gamma=0.001, zeta2=0.0)
        with pytest.raises(ZeroDivisionError):
            sp.total_spontaneous_power(units.modal_params(cfg))


class TestAddDrop:
    def test_below_threshold_scales_with_rho(self):
        # an add-drop ring with Q_i = Q_d = 2e9 loses what an add-through
        # ring loses at Q_i = 1e9; only the out-coupled share rho differs
        from kerrcomb.steady_state import solve_flat_state
        cfg = caf2_config(pump_power=1e-6, detuning=1e6)
        through = units.modal_params(cfg)
        drop = units.modal_params(dataclasses.replace(
            cfg, topology=units.Topology.ADD_DROP, intrinsic_Q=2e9,
            drop_Q=2e9))
        assert abs(drop.kappa - through.kappa) <= math.ulp(through.kappa)
        assert dataclasses.replace(drop, kappa=through.kappa,
                                   rho=through.rho) == through
        assert drop.rho == pytest.approx(0.1, rel=1e-12)
        grid = sp.default_omega_grid()
        for l in (0, 12, 25):
            s_t, s_d = (sp.spontaneous_spectrum(l, solve_flat_state(p), grid)
                        .values / p.rho for p in (through, drop))
            np.testing.assert_allclose(s_d, s_t, rtol=1e-12, atol=0.0)
        power_t = np.array(sp.total_spontaneous_power(through)) / through.rho
        power_d = np.array(sp.total_spontaneous_power(drop)) / drop.rho
        np.testing.assert_allclose(power_d, power_t, rtol=1e-12, atol=0.0)


class TestCsv:
    def test_spectrum_csv_digits(self, flat_ls):
        s = sp.spontaneous_spectrum(1, flat_ls, np.array([0.0, 1.0]))
        text = io.csv_text("omega/kappa,S", [s.x, s.values]).decode()
        lines = text.strip().split("\n")
        assert lines[0] == "omega/kappa,S"
        mantissa = lines[1].split(",")[1].split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) >= 12
        assert lines[1:] == ["%.12e,%.12e" % r for r in zip(s.x, s.values)]

    # st.floats draws +-0, +-inf, nan and subnormals as well; the double
    # nearest a 14-digit decimal ending in 5 sits on a rounding tie of the
    # 13-digit mantissa, and 9.9999999999995e+k rounds up into e+(k+1)
    @given(st.lists(st.one_of(
        st.floats(width=64, allow_subnormal=True),
        st.builds(lambda m, k: float(f"{m}5e{k}"),
                  st.integers(10**12, 10**13 - 1), st.integers(-292, 259)),
        st.builds(lambda d, k: float(f"9.999999999999{d}e{k}"),
                  st.integers(0, 9), st.integers(-300, 299))), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_real_column_matches_reference(self, values):
        column = np.array(values, dtype=float)
        assert io.csv_text("x", [column]) == reference_csv("x", [column])

    def test_real_column_edge_cases(self):
        powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
        near_ties = [float(f"{m}5e{k}") for k in range(-292, 260, 3)
                     for m in (1234567890123, 4999999999999, 9999999999999)]
        carries = [float(f"9.99999999999{d}e{k}") for k in range(-300, 300)
                   for d in (49, 5, 51)]
        ties = [0.5, 1.25, 2.5e-1, 1234567890123.5, 2.0**-40, 0.0, 5e-324]
        x = np.concatenate([powers, np.nextafter(powers, 0.0),
                            np.nextafter(powers, np.inf), near_ties,
                            carries, ties, [np.inf, np.nan]])
        x = np.concatenate([x, -x])
        assert io.csv_text("x", [x]) == reference_csv("x", [x])

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_mixed_columns_match_reference(self, n):
        rng = np.random.default_rng(n)
        objects = np.empty(n, dtype=object)
        objects[:] = [None, 1.5, "a", (1, 2), 3][:n]
        columns = [np.arange(n) - 2, rng.normal(size=n) * 1e-5,
                   np.arange(n, dtype=np.uint8), [7.25, -0.0, 1e300, 3, 4][:n],
                   rng.normal(size=n).astype(np.float32),
                   ["weak", "strong", "\u00e9", "x", "y"][:n], objects]
        for comment in (None, "pair l=1"):
            assert (io.csv_text("a,b,c,d,e,f,g", columns, comment)
                    == reference_csv("a,b,c,d,e,f,g", columns, comment))

    def test_unformattable_cells_raise(self):
        with pytest.raises(TypeError):
            io.csv_text("z", [np.array([1.0 + 2.0j])])
        with pytest.raises(ValueError):
            io.csv_text("s", [["a\0b"]])

    @pytest.mark.parametrize("header, columns", [
        ("a,b", [np.arange(3.0)]),                  # a field with no column
        ("a", [np.arange(3.0), np.arange(3.0)]),    # a column with no field
        ("a,b", [np.arange(3.0), "abc"]),           # a 0-d text column
        ("a", [np.float64(1.5)]),                   # a 0-d real column
        ("a,b", [np.arange(3.0), np.arange(2)]),    # columns of two lengths
        ("a", []),
    ])
    def test_malformed_input_raises_naming_the_header(self, header, columns):
        with pytest.raises(ValueError, match=f"header '{header}'"):
            io.csv_text(header, columns)

    def test_first_columns_match_reference(self):
        a = np.linspace(-20.0, 20.0, 2048)
        b = a.copy()
        b[1000] = np.nextafter(b[1000], np.inf)     # one ulp apart
        zero = np.zeros(3)
        exact = np.arange(-8.0, 8.0) / 64.0         # the same in float32
        # the float32 view holds signalling-NaN bit patterns
        firsts = [a, b, a, zero, -zero, zero, exact, exact.astype(np.float32),
                  a, a.view(np.uint32), a.view(np.int64), a.view(np.float32),
                  a]
        for x in firsts:
            y = np.arange(len(x)) * 1e-3
            assert io.csv_text("x,y", [x, y]) == reference_csv("x,y", [x, y])

    def test_envelope_csv_matches_envelope_and_kinds(self, tmp_path,
                                                      monkeypatch):
        # a blue-detuned map mixes single- and double-peaked modes
        branches, _ = make_flat(0.1, 5.0, 0.01, rho=0.5)
        ls = np.arange(-40, 41)
        shapes = [python_mode_row(l, branches) for l in ls.tolist()]
        run_map(branches, 40, ["envelope"], tmp_path, monkeypatch)
        rows = [r.split(",") for r in
                (tmp_path / "envelope.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == ls.tolist()
        assert [r[1] for r in rows] == [f"{s[0]:.12e}" for s in shapes]
        kinds = [s[1] for s in shapes]
        assert [r[2] for r in rows] == kinds
        assert len(set(kinds)) == 2

    def test_flux_table(self, flat_ls, tmp_path, monkeypatch):
        run_map(flat_ls, 3, ["flux_table"], tmp_path, monkeypatch)
        text = (tmp_path / "flux_table.csv").read_text()
        assert text.splitlines()[0] == "l,R_out,P_out_watts,regime"
        assert len(text.splitlines()) == 8


class TestArrayForms:
    """The envelope and flux-table products evaluate the closed forms over
    the whole l array; each row must equal one mode's Python-float
    arithmetic (`python_mode_row`)."""

    @pytest.mark.parametrize("g, sigma, ls", [
        (0.1, 0.5, np.arange(-60, 61)),      # the lineshape figures' map
        (0.1, 5.0, np.arange(-40, 41)),      # single- and double-peaked
        (1.2, 0.0, np.arange(-30, 31)),      # strong rows at |l| 19..24
        (0.0, 0.5, np.arange(-12, 13)),      # no pump, xi_10 = g = 0
    ])
    def test_rows_match_per_mode_forms(self, g, sigma, ls, tmp_path,
                                       monkeypatch):
        branches, _ = make_flat(g, sigma, 0.01, rho=0.5)
        report = run_map(branches, ls[-1], ["envelope", "flux_table"],
                         tmp_path, monkeypatch)
        assert report["errors"] == []
        assert ((tmp_path / "envelope.csv").read_bytes()
                == per_mode_envelope_csv(ls, branches))
        assert ((tmp_path / "flux_table.csv").read_bytes()
                == per_mode_flux_csv(ls, branches))
        kind, peak, _ = sp.lineshape_peaks(ls, branches)
        R, P, regime = sp.sidemode_flux(ls, branches)
        kinds = kind.tolist()
        rows = list(zip(peak.tolist(), kinds, R.tolist(), P.tolist(),
                        regime.tolist()))
        assert rows == [python_mode_row(int(l), branches) for l in ls]
        if g > 1.0:
            assert rows[22 - ls[0]][4] == "strong"
        else:
            assert set(regime.tolist()) == {"weak"}
        if sigma == 5.0:
            assert set(kinds) == {"single_peaked", "double_peaked"}

    def test_squares_as_python_squares_a_float(self):
        # numpy squares an array as x*x, Python a float by libm's pow; the
        # two differ in the last bit for about 1e-3 of doubles
        x = np.random.default_rng(0).uniform(-20.0, 20.0, 20000)
        python = np.array([v**2 for v in x.tolist()])
        assert np.array_equal(sp._square(x), python)
        assert sp._square(x[0]) == python[0]

    def test_scalar_results_are_scalars(self, flat_ls):
        R, P, regime = sp.sidemode_flux(3, flat_ls)
        assert np.ndim(R) == np.ndim(P) == np.ndim(regime) == 0
        assert (float(R), str(regime)) == (python_mode_row(3, flat_ls)[2], "weak")

    @pytest.mark.parametrize("ls, l_bad", [(np.arange(-2, 3), 0),
                                           (np.arange(-12, 13), -10)])
    def test_singular_mode_names_the_first(self, ls, l_bad, tmp_path,
                                           monkeypatch):
        # g = kappa, sigma = -2 kappa puts m_0 on 0 (see
        # TestFluxes.test_singular_point_raises_everywhere); for the second
        # case zeta2 moves the zero to |l| = 10, so l = -10 comes first
        branches, _ = make_flat(1.0, -2.0, 0.01, rho=0.5)
        if l_bad:
            branches, _ = make_flat(1.2, 0.0, 0.01, rho=0.5)
            p = branches.params
            g = p.g0 * abs(branches.lower) ** 2
            zeta2 = 2.0 * (p.sigma + 2.0 * g - math.sqrt(g**2 - p.kappa**2)) / 100
            branches = dataclasses.replace(
                branches, params=dataclasses.replace(p, zeta2=zeta2))
        for product, oracle in (("envelope", per_mode_envelope_csv),
                                ("flux_table", per_mode_flux_csv)):
            (array_form,) = run_map(branches, ls[-1], [product],
                                    tmp_path / product, monkeypatch)["errors"]
            with pytest.raises(sp.NearThresholdError) as per_mode:
                oracle(ls, branches)
            assert array_form == {"type": "NearThresholdError",
                                  "message": str(per_mode.value)}
            assert array_form["message"].startswith(f"mode l={l_bad} sits on")
