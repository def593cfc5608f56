"""Scenario runner end-to-end: validation, products, determinism, reports."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from kerrcomb import _blas, cli, linearization, spontaneous, squeezing
from kerrcomb import steady_state as ss

SCENARIOS = Path(__file__).resolve().parents[1] / "scripts" / "scenarios"

#: sha256 of every product of the closed-form shipped scenarios at seed 0;
#: a change that alters any of these bytes changes a published result.
PRODUCT_SHA256 = {
    "below_threshold_caf2": {
        "envelope.csv": "871a53f5115dd2989c3b78372d079f88"
                        "eddb434f964e4460b125ec48a2bc2868",
        "flux_table.csv": "796698d9b6fe11ca3f42aa0d73c94e3a"
                          "a5e6a9385e26f1676fc2a2b59dae16f5",
        "spectrum_l1.csv": "d31e7713b4c893dabb338f39f56cda81"
                           "bc7f26ed5eeac55dc0faa75c34dc6194",
        "spectrum_l12.csv": "2c1bc06e46f3932d4c4dae9f725b0381"
                            "490fd9f0cedb3d53e4d8aff960ab91c3",
        "spectrum_l25.csv": "7d7e04be2443345c19ad2d354d2624b1"
                            "74b1e0ad2c81c6d87df4dcaa60d76ec2",
        "total_power.csv": "a03d995ce9ed0f3962adb3756cd6274a"
                           "c6da6b508a5780a075a8f0806272107c",
    },
    "pump_power_sweep": {
        "sweep_00/flux_table.csv": "5c4deb3488c0240357e4806327893b42"
                                   "f15a46a3104977cfe372a40c372587dc",
        "sweep_01/flux_table.csv": "ffb0def0836e18f81ac5bbc2a2d6a070"
                                   "c22778a10a53d761694a36cbc0af1cee",
        "sweep_02/flux_table.csv": "36886919285edce3fd755eebb8588458"
                                   "1133708920c72bf58cbd8f08e9e03730",
    },
    "hamiltonian_audit": {
        "audit_monomials.txt": "8dab1fc93f5f9d076e13ab13ed96d37a"
                               "86b96698bda875938f90da3396784ba8",
    },
}

RESONATOR = {
    "pump_wavelength": 1550e-9,
    "main_radius": 2.5e-3,
    "group_index": 1.43,
    "intrinsic_Q": 1e9,
    "through_Q": 0.25e9,
    "pump_power": 1e-6,
    "detuning": 0.0,
    "gamma": 0.001,
    "zeta2": 2.0 * 3.14159265358979 * 2.9e3,
}


def below_scenario(**over):
    raw = {
        "schema": 1,
        "name": "below-demo",
        "mode": "below_threshold",
        "resonator": dict(RESONATOR),
        "outputs": ["spectrum", "envelope", "flux_table"],
        "modes": [1, 25],
        "l_max": 60,
    }
    raw.update(over)
    return raw


def flat_above_scenario(**over):
    # weak pump: the "steady state" is the flat solution, cheap to solve,
    # but still exercises the full above-threshold product pipeline
    raw = {
        "schema": 1,
        "name": "flat-above-demo",
        "mode": "above_threshold",
        "resonator": dict(RESONATOR),
        "state": {"kind": "flat", "K": 6},
        "outputs": ["stability", "quadrature_spectrum"],
        "pairs": [1],
    }
    raw.update(over)
    return raw


def roll_above_scenario(**over):
    # a stable order-2 roll at K = 6 (zeta2 about kappa/2, sigma = -kappa,
    # 1.5 P_th), solved in about 0.1 s: pairs 2, 4 and 6 carry a mean
    # field; the target order keeps it the root found when a test fixes
    # the stability spectrum
    resonator = {key: value for key, value in RESONATOR.items()
                 if key not in ("pump_power", "detuning")}
    resonator.update(zeta2=1.5e6, detuning_over_kappa=-1.0,
                     pump_power_over_threshold=1.5)
    raw = flat_above_scenario(
        name="roll-above-demo", resonator=resonator,
        state={"kind": "roll", "K": 6, "target_order": 2}, pairs=[2],
        outputs=["stability", "quadrature_spectrum", "number_difference"])
    raw.update(over)
    return raw


def write_scenario(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        path = write_scenario(tmp_path, below_scenario())
        assert cli.main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_syntax_error_reports_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "schema": 1,\n  "mode": oops\n}\n')
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:3:11" in err

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["validate", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path, capsys):
        path = write_scenario(tmp_path, below_scenario(schema=2))
        assert cli.main(["validate", str(path)]) == 1
        assert "'schema'" in capsys.readouterr().err

    def test_unknown_mode(self, tmp_path, capsys):
        path = write_scenario(tmp_path, below_scenario(mode="sideways"))
        assert cli.main(["validate", str(path)]) == 1
        assert "'mode'" in capsys.readouterr().err

    def test_product_mode_mismatch(self, tmp_path, capsys):
        raw = below_scenario(outputs=["quadrature_spectrum"])
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 1
        assert "not valid in mode" in capsys.readouterr().err

    def test_unknown_resonator_key_fails_at_run(self, tmp_path):
        raw = below_scenario()
        raw["resonator"]["finesse"] = 1e4
        out = tmp_path / "out"
        assert cli.run_scenario(raw, out) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["errors"]
        assert "finesse" in report["errors"][0]["message"]

    def test_unknown_state_key_rejected(self, tmp_path, capsys):
        raw = flat_above_scenario()
        raw["state"]["horizn"] = 500
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 1
        assert "horizn" in capsys.readouterr().err

    def test_missing_resonator_key_recorded(self, tmp_path):
        raw = below_scenario()
        del raw["resonator"]["pump_wavelength"]
        out = tmp_path / "out"
        assert cli.run_scenario(raw, out) == 1
        (error,) = json.loads((out / "report.json").read_text())["errors"]
        assert error["type"] == "ScenarioError"
        assert "pump_wavelength" in error["message"]

    def test_audit_sweep_rejected(self, tmp_path, capsys):
        raw = {"schema": 1, "mode": "hamiltonian_audit", "outputs": ["audit"],
               "sweep": {"path": "audit_K", "values": [1, 2]}}
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 1
        assert "'sweep'" in capsys.readouterr().err

    @pytest.mark.parametrize("rel, abs_", [
        ("pump_power_over_threshold", "pump_power"),
        ("detuning_over_kappa", "detuning")])
    def test_relative_and_absolute_key_conflict(self, tmp_path, rel, abs_):
        raw = below_scenario(outputs=["flux_table"], l_max=2)
        raw["resonator"].pop(abs_)
        raw["resonator"][rel] = 0.5
        raw["sweep"] = {"path": abs_, "values": [1e-6, 2e-6]}
        out = tmp_path / "out"
        assert cli.run_scenario(raw, out) == 1
        report = json.loads((out / "report.json").read_text())
        for sub in report["sub_runs"]:
            assert sub["errors"][0]["type"] == "ScenarioError"
            assert rel in sub["errors"][0]["message"]
            assert abs_ in sub["errors"][0]["message"]

    @pytest.mark.parametrize("key, value", [
        ("finesse", 1e4),                       # unknown
        ("pump_wavelength", None),              # required, removed
        ("pump_power_over_threshold", 0.5),     # clashes with pump_power
        ("topology", "ring"), ("topology", ["add-drop"])])
    def test_resonator_rejected_at_validate(self, tmp_path, capsys, key,
                                            value):
        raw = below_scenario()
        raw["resonator"][key] = value
        if value is None:
            del raw["resonator"][key]
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 1
        assert key in capsys.readouterr().err

    def test_resonator_value_type_rejected_at_validate(self, tmp_path,
                                                       capsys):
        raw = below_scenario()
        raw["resonator"]["intrinsic_Q"] = "1e9"
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 1
        assert "field 'resonator'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("pump_power", True), ("intrinsic_Q", True), ("gamma", True),
        ("detuning_over_kappa", False)])
    def test_resonator_boolean_rejected_at_validate(self, tmp_path, capsys,
                                                    key, value):
        # JSON true/false are not numbers, although Python's bool is an int
        raw = below_scenario()
        raw["resonator"].pop("detuning")
        raw["resonator"][key] = value
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "field 'resonator'" in err and key in err

    @pytest.mark.parametrize("key", ["pump_power", "detuning"])
    def test_sweep_boolean_rejected_at_validate(self, tmp_path, capsys,
                                                key):
        raw = below_scenario()
        raw["sweep"] = {"path": key, "values": [1e-6, True]}
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 1
        assert "field 'resonator'" in capsys.readouterr().err

    def test_resonator_null_is_not_given(self, tmp_path, capsys):
        raw = below_scenario()
        raw["resonator"].update(gamma=None, g0=5.0, drop_Q=None)
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("over", [
        {"detuning": None, "detuning_over_kappa": 0.5},
        {"pump_power": None, "pump_power_over_threshold": 0.5},
        {"topology": None}])
    def test_resonator_null_next_to_twin_is_not_given(self, tmp_path,
                                                      capsys, over):
        raw = below_scenario()
        raw["resonator"].update(over)
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 0

    def test_resonator_null_equals_omitted(self):
        for key in ("pump_power", "detuning"):
            omitted = {k: v for k, v in RESONATOR.items() if k != key}
            assert (cli.build_config({**RESONATOR, key: None})
                    == cli.build_config(omitted))

    def test_resonator_null_required_key_is_missing(self):
        with pytest.raises(cli.ScenarioError,
                           match=r"missing required keys \['pump_wavelength'\]"):
            cli.build_config({**RESONATOR, "pump_wavelength": None})

    def test_sweep_point_rejected_at_validate(self, tmp_path, capsys):
        # each sweep value is resolved: the absolute key clashes with the
        # relative one only once the sweep substitutes it
        raw = below_scenario()
        raw["resonator"].pop("detuning")
        raw["resonator"]["detuning_over_kappa"] = 0.5
        raw["sweep"] = {"path": "detuning", "values": [0.0]}
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 1
        assert "detuning_over_kappa" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("modes", ["a"]), ("modes", [1.5]), ("modes", [True]), ("pairs", 1),
        ("l_max", "5"), ("l_max", -1), ("audit_K", "3"),
        ("sweep", {"path": "pump_power", "values": 5}),
        ("audit_K", 9), ("audit_K", -1), ("pairs", [0]), ("pairs", [7]),
        ("modes", [1, 1]), ("pairs", [1, 1]),
        ("seed", "abc"), ("seed", 1.5), ("seed", -1), ("seed", True),
        ("name", 5), ("ouputs", ["stability"]),
        ("sweep", {"path": "pump_power", "values": []}),
        ("state", {"kind": "roll", "target_order": 500}),
        ("state", {"kind": "roll", "K": 6, "target_order": 7}),
        ("state", {"kind": "bright_soliton", "target_order": 3}),
        ("outputs", ["stability", "stability"]), ("outputs", [["stability"]]),
        ("modes", []), ("pairs", [])])
    def test_field_types_rejected(self, tmp_path, capsys, key, value):
        # the flat scenario's state has K = 6, which bounds the pairs; a
        # roll's target order is bounded by K, or else by the default mode
        # cutoff, and other kinds take none
        path = write_scenario(tmp_path, flat_above_scenario(**{key: value}))
        assert cli.main(["validate", str(path)]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("pump_power", math.nan), ("pump_power", math.inf),
        ("detuning", -math.inf), ("through_Q", math.inf),
        ("detuning_over_kappa", math.nan),
        ("pump_power_over_threshold", math.nan), ("sweep", math.nan)])
    def test_non_finite_resonator_rejected(self, tmp_path, capsys, key,
                                           value):
        # json reads NaN and Infinity, and NaN passes every comparison
        raw = below_scenario()
        if key == "sweep":
            raw["sweep"] = {"path": "pump_power", "values": [1e-6, value]}
        else:
            # a relative key replaces its absolute twin
            raw["resonator"].pop(key.split("_over_")[0], None)
            raw["resonator"][key] = value
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 1
        assert "field 'resonator'" in capsys.readouterr().err

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        text = json.dumps(below_scenario(name="caf\u00e9"), ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))
        assert cli.main(["validate", str(path)]) == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("make", [below_scenario, flat_above_scenario])
    def test_negative_seed_flag_rejected(self, tmp_path, capsys, make):
        # refused before anything runs, whether or not the mode uses the seed
        path = write_scenario(tmp_path, make())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", str(path), "--out", str(out), "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed: expected an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("state", "kind", "breather"), ("state", "K", "6"),
        ("state", "K", 0), ("state", "target_order", 2.0),
        ("state", "horizon", -1.0), ("state", "step", "1e-2"),
        ("state", "horizon", True),
        ("angle", "half_width", "x"), ("angle", "half_width", 0.0),
        ("angle", "objective", "deepest"), ("angle", "band", 0.5)])
    def test_state_and_angle_values_rejected(self, tmp_path, capsys, section,
                                             key, value):
        raw = flat_above_scenario(angle={"objective": "min"})
        raw[section][key] = value
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"field '{section}'" in err and key in err

    @pytest.mark.parametrize("pairs, status", [([200], 1), ([72], 0)])
    def test_pairs_checked_against_default_cutoff(self, tmp_path, capsys,
                                                  pairs, status):
        # roll_squeezing gives no state K: its roll cutoff resolves to 72
        raw = json.loads((SCENARIOS / "roll_squeezing.json").read_text())
        raw["pairs"] = pairs
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == status
        if status:
            assert "K = 72" in capsys.readouterr().err

    def test_cutoff_error_rejected_at_validate(self, tmp_path, capsys):
        # zeta2 = 0 makes the predicted roll order divide by zero
        raw = json.loads((SCENARIOS / "roll_squeezing.json").read_text())
        raw["resonator"]["zeta2"] = 0.0
        path = write_scenario(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 1
        assert "field 'resonator'" in capsys.readouterr().err

    def test_angle_must_be_an_object(self, tmp_path, capsys):
        path = write_scenario(tmp_path, flat_above_scenario(angle=[1.0]))
        assert cli.main(["validate", str(path)]) == 1
        assert "field 'angle'" in capsys.readouterr().err


class TestBelowThresholdRun:
    def test_products_and_report(self, tmp_path):
        path = write_scenario(tmp_path, below_scenario())
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        files = {p["file"] for p in report["products"]}
        assert files == {"spectrum_l1.csv", "spectrum_l25.csv",
                         "envelope.csv", "flux_table.csv"}
        for p in report["products"]:
            data = (out / p["file"]).read_bytes()
            assert p["sha256"] == hashlib.sha256(data).hexdigest()
            assert p["seconds"] >= 0.0
        assert report["derived"]["rho"] == pytest.approx(0.8, rel=1e-12)
        assert report["errors"] == []

    def test_csv_has_twelve_sig_digits(self, tmp_path):
        path = write_scenario(tmp_path, below_scenario(outputs=["spectrum"],
                                                       modes=[1]))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        body = (out / "spectrum_l1.csv").read_text().splitlines()
        first = next(line for line in body if not line.startswith(("#", "omega")))
        for cell in first.split(","):
            mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) >= 12

    def test_empty_outputs_still_succeeds(self, tmp_path):
        path = write_scenario(tmp_path, below_scenario(outputs=[]))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["products"] == []

    def test_determinism_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, below_scenario())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(path), "--out", str(out1), "--seed", "7"]) == 0
        assert cli.main(["run", str(path), "--out", str(out2), "--seed", "7"]) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        for p1, p2 in zip(r1["products"], r2["products"]):
            assert p1["sha256"] == p2["sha256"]
            assert (out1 / p1["file"]).read_bytes() == (out2 / p2["file"]).read_bytes()

    def test_classifies_each_mode_once(self, tmp_path, monkeypatch):
        calls = []
        classify = spontaneous.classify_lineshape
        monkeypatch.setattr(spontaneous, "classify_lineshape",
                            lambda *a: calls.append(a[0]) or classify(*a))
        raw = below_scenario(outputs=["spectrum", "envelope"])
        assert cli.run_scenario(raw, tmp_path) == 0
        assert sorted(calls) == sorted([1, 25] + list(range(-60, 61)))

    def test_relative_pump_and_detuning(self, tmp_path):
        raw = below_scenario(outputs=["spectrum"], modes=[1])
        raw["resonator"].pop("pump_power")
        raw["resonator"].pop("detuning")
        raw["resonator"]["detuning_over_kappa"] = -1.0
        raw["resonator"]["pump_power_over_threshold"] = 0.5
        path = write_scenario(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        derived = report["derived"]
        assert derived["P_th_watts"] == pytest.approx(
            derived["P_min_watts"], rel=1e-9)


class TestAboveThresholdRun:
    def test_flat_state_pipeline(self, tmp_path):
        path = write_scenario(tmp_path, flat_above_scenario())
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        files = {p["file"] for p in report["products"]}
        assert files == {"stability.csv", "quadrature_l1.csv"}
        assert report["state"]["pattern"] == "flat"
        stab = next(p for p in report["products"] if p["product"] == "stability")
        assert stab["stable"] is True
        quad = next(p for p in report["products"]
                    if p["product"] == "quadrature_spectrum")
        assert "delta_Phi" in quad and "flags" in quad

    def test_number_difference_needs_a_mean_field(self, tmp_path):
        # a flat state's pair has no mean field, so its photon-number
        # difference has no linear fluctuation to report; the products
        # written before it keep their records and the state its report
        raw = flat_above_scenario(outputs=["stability", "quadrature_spectrum",
                                           "number_difference"])
        out = tmp_path / "out"
        assert cli.run_scenario(raw, out) == 1
        report = json.loads((out / "report.json").read_text())
        (error,) = report["errors"]
        assert error["type"] == "ValueError"
        assert "pair l=1 has no mean field" in error["message"]
        assert not (out / "number_difference_l1.csv").exists()
        files = [p["file"] for p in report["products"]]
        assert files == ["stability.csv", "quadrature_l1.csv"]
        for p in report["products"]:
            data = (out / p["file"]).read_bytes()
            assert p["sha256"] == hashlib.sha256(data).hexdigest()
        assert report["state"]["pattern"] == "flat"

    def test_product_bytes(self, tmp_path, monkeypatch):
        # the formats no shipped-scenario hash pins: eigenvalues and pair
        # blocks are fixed, so no byte depends on BLAS or LAPACK; the
        # number difference is C11 of the same blocks
        kappa = cli.build_config(RESONATOR).kappa
        monkeypatch.setattr(linearization, "stability_spectrum",
                            lambda state:
                            kappa * np.array([-0.5 + 2.0j, -1.0 - 0.25j]))
        grid = np.array([-2.0, -0.5, 0.25, 1.0])
        monkeypatch.setattr(squeezing, "pair_spectral_blocks",
                            lambda T, Q, rho, kappa, omega_grid, l:
                            squeezing.PairSpectralBlocks(
                                grid, np.array([0.5, 0.75, 0.5, 0.625]),
                                np.array([1.5, 1.25, 2.0, 1.125]),
                                np.array([0.25, -0.5, 0.125, 0.375])))
        out = tmp_path / "out"
        assert cli.run_scenario(roll_above_scenario(), out) == 0
        assert (out / "quadrature_l2.csv").read_text() == (
            "# pair l=2, phi=-0.092674 rad (pair frame)\n"
            "omega_over_kappa,S\n"
            "-2.000000000000e+00,4.855278396516e-01\n"
            "-5.000000000000e-01,8.003540870290e-01\n"
            "2.500000000000e-01,5.013278263586e-01\n"
            "1.000000000000e+00,5.947278529445e-01\n")
        assert (out / "stability.csv").read_text() == (
            "re_over_kappa,im_over_kappa\n"
            "-5.000000000000e-01,2.000000000000e+00\n"
            "-1.000000000000e+00,-2.500000000000e-01\n")
        assert (out / "number_difference_l2.csv").read_text() == (
            "omega/kappa,S\n"
            "-2.000000000000e+00,5.000000000000e-01\n"
            "-5.000000000000e-01,7.500000000000e-01\n"
            "2.500000000000e-01,5.000000000000e-01\n"
            "1.000000000000e+00,6.250000000000e-01\n")

    def test_one_schur_form_per_state(self, tmp_path, monkeypatch):
        # every pair of the state reuses one factorization of its J_q
        calls = []
        schur = scipy.linalg.schur
        monkeypatch.setattr(scipy.linalg, "schur",
                            lambda *a: calls.append(a[0].shape) or schur(*a))
        monkeypatch.setattr(linearization, "_last", None)
        raw = flat_above_scenario(outputs=["quadrature_spectrum"],
                                  pairs=[1, 2, 3])
        assert cli.run_scenario(raw, tmp_path) == 0
        assert calls == [(12, 12)]

    def test_stability_shares_the_schur_form(self, tmp_path, monkeypatch):
        # stability reads the antisymmetric eigenvalues off the Schur form
        # of J_q that the pairs reuse, and never solves the full 26 x 26
        # flow; its symmetric block has order 2K + 2 = 14
        factored, solved = [], []
        schur, eigvals = scipy.linalg.schur, np.linalg.eigvals
        monkeypatch.setattr(scipy.linalg, "schur",
                            lambda *a: factored.append(a[0].shape)
                            or schur(*a))
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: solved.append(a.shape) or eigvals(a))
        monkeypatch.setattr(linearization, "_last", None)
        raw = flat_above_scenario(outputs=["stability",
                                           "quadrature_spectrum"],
                                  pairs=[1, 2, 3])
        assert cli.run_scenario(raw, tmp_path) == 0
        assert factored == [(12, 12)]
        assert solved == [(14, 14)]

    def test_pairs_default_to_pair_one(self, tmp_path):
        raw = flat_above_scenario(outputs=["quadrature_spectrum"])
        del raw["pairs"]
        out = tmp_path / "out"
        assert cli.run_scenario(raw, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert [p["file"] for p in report["products"]] == ["quadrature_l1.csv"]

    def test_pairs_default_to_roll_order(self, tmp_path, monkeypatch):
        # the flat state relabelled as an order-2 roll: stationary and
        # symmetric, so the pair pipeline runs at flat-state cost
        solve = ss.find_steady_state
        monkeypatch.setattr(ss, "find_steady_state",
                            lambda *a, **k: dataclasses.replace(
                                solve(*a, **k), pattern=ss.PatternKind.ROLL,
                                roll_order=2))
        raw = flat_above_scenario(outputs=["quadrature_spectrum"])
        del raw["pairs"]
        out = tmp_path / "out"
        assert cli.run_scenario(raw, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert [p["file"] for p in report["products"]] == ["quadrature_l2.csv"]

    def test_sweep_aggregates_sub_runs(self, tmp_path):
        raw = flat_above_scenario(outputs=["stability"])
        raw["sweep"] = {"path": "pump_power", "values": [1e-6, 2e-6]}
        path = write_scenario(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [s["dir"] for s in report["sub_runs"]] == ["sweep_00", "sweep_01"]
        for sub in report["sub_runs"]:
            assert (out / sub["dir"] / "stability.csv").exists()
            assert sub["errors"] == []


class TestAuditRun:
    def test_audit_products(self, tmp_path):
        raw = {"schema": 1, "name": "audit-demo", "mode": "hamiltonian_audit",
               "outputs": ["audit"], "audit_K": 2}
        path = write_scenario(tmp_path, raw)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        rec = report["products"][0]
        assert rec["ordered_count"] == 85
        assert rec["expected"] == 85
        assert (out / "audit_monomials.txt").exists()


class TestShippedScenarios:
    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_loads(self, path):
        cli.load_scenario(path)

    @pytest.mark.parametrize("name", ["below_threshold_caf2",
                                      "pump_power_sweep", "hamiltonian_audit"])
    def test_runs_clean(self, tmp_path, name):
        scenario = cli.load_scenario(SCENARIOS / f"{name}.json")
        assert cli.run_scenario(scenario, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for run in report.get("sub_runs", [report]):
            assert run["errors"] == []
        digests = {p.relative_to(tmp_path).as_posix():
                   hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.rglob("*")
                   if p.is_file() and p.name != "report.json"}
        assert digests == PRODUCT_SHA256[name]

    @pytest.mark.parametrize("name, pattern, order", [
        ("bright_soliton_squeezing", "bright_soliton", None),
        ("dark_soliton_squeezing", "dark_soliton", None),
        ("roll_squeezing", "roll", 20)])
    def test_above_threshold_runs_clean(self, tmp_path, name, pattern, order):
        # no pinned hashes: eigenvalue and Schur-form rounding, and so the
        # last digits of these products, follow the BLAS build and the
        # CPU's kernels; no longer the thread count (TestBlasScope)
        scenario = cli.load_scenario(SCENARIOS / f"{name}.json")
        assert cli.run_scenario(scenario, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["errors"] == []
        state = report["state"]
        assert (state["pattern"], state["roll_order"]) == (pattern, order)
        [stability] = [p for p in report["products"]
                       if p["product"] == "stability"]
        assert stability["stable"] is True
        for l in scenario["pairs"]:
            assert (tmp_path / f"quadrature_l{l}.csv").is_file()
            assert (tmp_path / f"number_difference_l{l}.csv").is_file() is (
                "number_difference" in scenario["outputs"])

    def test_total_power_closed_form_matches_sum(self, tmp_path):
        scenario = cli.load_scenario(SCENARIOS / "below_threshold_caf2.json")
        assert "total_power" in scenario["outputs"]
        scenario["outputs"] = ["total_power"]
        assert cli.run_scenario(scenario, tmp_path) == 0
        header, row = (tmp_path / "total_power.csv").read_text().splitlines()
        assert header == "closed_form_watts,discrete_sum_watts"
        closed, discrete = map(float, row.split(","))
        assert closed == pytest.approx(discrete, rel=2e-3)


def blas_counts() -> dict[str, int]:
    """Thread count of every loaded OpenBLAS, by path."""
    return {path: get() for path, (get, _) in _blas.pools().items()}


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS (numpy's and scipy's) at two threads, whatever
    the environment asked for, and back to its own count afterwards."""
    pools = _blas.pools()
    if not pools:
        pytest.skip("no OpenBLAS with thread-count symbols is loaded")
    before = blas_counts()
    for _, set_ in pools.values():
        set_(2)
    yield blas_counts()
    for path, (_, set_) in pools.items():
        set_(before[path])


class TestBlasScope:
    def test_products_do_not_follow_the_thread_count(self, tmp_path):
        # fresh interpreters at one and two threads, so numpy's and scipy's
        # OpenBLAS load inside the run, as from the console script; at
        # K = 64 the threaded factorizations round differently, so unpinned
        # the products differ. Each child lists the thread counts of every
        # loaded OpenBLAS around each Newton refinement and Schur form; it
        # installs those spies once the run's BLAS scope is open, since
        # importing the layers loads numpy
        raw = roll_above_scenario(
            state={"kind": "roll", "K": 64, "target_order": 2})
        path = write_scenario(tmp_path, raw)
        code = (
            "import json, sys\n"
            "from kerrcomb import _blas, cli\n"
            "seen, run_products = [], cli.run_products\n"
            "def counts():\n"
            "    return [get() for get, _ in _blas.pools().values()]\n"
            "def counted(fn):\n"
            "    def spy(*args):\n"
            "        seen.append(counts())\n"
            "        result = fn(*args)\n"
            "        seen.append(counts())\n"
            "        return result\n"
            "    return spy\n"
            "def run(*args):\n"
            "    from kerrcomb import linearization as lin\n"
            "    from kerrcomb import steady_state as ss\n"
            "    lin.schur_form = counted(lin.schur_form)\n"
            "    ss.refine = counted(ss.refine)\n"
            "    return run_products(*args)\n"
            "cli.run_products = run\n"
            "status = cli.main(sys.argv[1:])\n"
            "print(json.dumps(seen))\n"
            "sys.exit(status)\n")
        hashes = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(cli.__file__).parents[1])}
            seen = json.loads(subprocess.run(
                [sys.executable, "-c", code, "run", str(path),
                 "--out", str(out)], env=env, check=True, timeout=300,
                capture_output=True, text=True).stdout)
            assert seen and all(set(counts) == {1} for counts in seen)
            report = json.loads((out / "report.json").read_text())
            assert report["errors"] == []
            hashes.append({p["file"]: p["sha256"]
                           for p in report["products"]})
        assert len(hashes[0]) == 3
        assert hashes[0] == hashes[1]

    def test_run_factors_on_one_thread_and_restores(self, tmp_path,
                                                    monkeypatch,
                                                    two_blas_threads):
        seen = []
        schur = scipy.linalg.schur
        monkeypatch.setattr(scipy.linalg, "schur",
                            lambda *a: seen.append(blas_counts())
                            or schur(*a))
        monkeypatch.setattr(linearization, "_last", None)
        assert cli.run_scenario(roll_above_scenario(), tmp_path) == 0
        assert seen and all(set(c.values()) == {1} for c in seen)
        assert blas_counts() == two_blas_threads

    def test_failed_run_restores(self, tmp_path, two_blas_threads):
        # the flat state's pair has no mean field: exit 1 inside the scope
        raw = flat_above_scenario(outputs=["number_difference"])
        assert cli.run_scenario(raw, tmp_path) == 1
        assert blas_counts() == two_blas_threads

    def test_schur_form_outside_a_run_touches_nothing(self, two_blas_threads):
        linearization.schur_form(-np.eye(4))
        _blas.pin()     # what schur_form calls when scipy.linalg loads
        assert blas_counts() == two_blas_threads

    def test_no_openblas_found(self, tmp_path, monkeypatch):
        runs = {}
        for found in ("all", "none"):
            if found == "none":
                monkeypatch.setattr(_blas, "pools", dict)
            monkeypatch.setattr(linearization, "_last", None)
            out = tmp_path / found
            assert cli.run_scenario(roll_above_scenario(), out) == 0
            report = json.loads((out / "report.json").read_text())
            runs[found] = [(p["file"], p["sha256"])
                           for p in report["products"]]
        assert runs["none"] == runs["all"]


class TestReportCommand:
    def test_round_trip(self, tmp_path, capsys):
        path = write_scenario(tmp_path, below_scenario(outputs=[]))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads((out / "report.json").read_text())

    def test_missing_report(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path)]) == 1
        assert "no report.json" in capsys.readouterr().err

    def test_truncated_report(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text('{"scenario": {"name"')
        assert cli.main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "report.json" in err and len(err.splitlines()) == 1


def test_benchmark_entry_points_resolve(tmp_path, monkeypatch):
    # the benchmark calls these names outside its tracer; tier-1 never runs
    # the workload that reaches default_omega_grid
    assert len(squeezing.default_omega_grid(128)) == 128
    for module, name in ((squeezing, "optimize_quadrature_angle"),
                         (linearization, "build_quadrature_jacobian"),
                         (cli, "load_scenario"), (cli, "run_scenario"),
                         (ss, "refine"), (ss, "residual"), (ss, "classify")):
        assert callable(getattr(module, name, None)), name
    # the tracer reads propagate's relaxation length by these names; a
    # rename would zero its steady_state.relax_steps silently
    assert {"horizon", "step"} <= set(
        inspect.signature(ss.propagate).parameters)
    # the benchmark wraps the per-pair call through the module attribute,
    # adds its grid as a keyword when no positional one was given, and
    # rebuilds J_q from the state it saw for its dense oracle; both pair
    # products share that one call per pair
    calls = []
    optimize = squeezing.optimize_quadrature_angle

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return optimize(*args, **kwargs)

    monkeypatch.setattr(squeezing, "optimize_quadrature_angle", spy)
    angle = {"half_width": 0.5, "objective": "min"}
    raw = roll_above_scenario(
        outputs=["quadrature_spectrum", "number_difference"], pairs=[2, 4],
        angle=angle)
    assert cli.run_scenario(raw, tmp_path) == 0
    assert [(len(a), a[1], k) for a, k in calls] == [(2, 2, angle),
                                                     (2, 4, angle)]
    state = calls[0][0][0]
    assert isinstance(state, ss.CombState)
    J_q = linearization.build_quadrature_jacobian(state).J_q
    assert J_q.shape == (12, 12) and J_q.dtype == np.float64


def test_numpy_and_scipy_load_only_to_compute(tmp_path):
    # the import, validate and report load neither numpy nor scipy; the
    # first run loads numpy, and the first above-threshold linearization
    # scipy.linalg and nothing more of scipy. A fresh interpreter, since
    # conftest imports both here
    below = write_scenario(tmp_path, below_scenario(), "below.json")
    audit = write_scenario(tmp_path, {"schema": 1, "mode": "hamiltonian_audit",
                                      "outputs": ["audit"], "audit_K": 2},
                           "audit.json")
    roll = write_scenario(tmp_path, roll_above_scenario(outputs=["stability"]),
                          "roll.json")
    (tmp_path / "written").mkdir()
    (tmp_path / "written" / "report.json").write_text('{"products": []}')
    checked = [["validate", str(path)]
               for path in sorted(SCENARIOS.glob("*.json"))]
    checked.append(["report", str(tmp_path / "written")])
    closed_form = []
    for path in (below, audit):
        out = str(tmp_path / path.stem)
        closed_form += [["run", str(path), "--out", out], ["report", out]]
    above = [["run", str(roll), "--out", str(tmp_path / "roll")]]
    code = (
        "import contextlib, io, json, sys\n"
        "import kerrcomb\n"
        "from kerrcomb import cli\n"
        "loaded = []\n"
        "for stage in json.loads(sys.argv[1]):\n"
        "    for argv in stage:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            if cli.main(argv) != 0:\n"
        "                sys.exit(f'{argv} failed')\n"
        "    loaded.append([m for m in sys.modules\n"
        "                   if m.partition('.')[0] in ('numpy', 'scipy')])\n"
        "exported = {n: getattr(kerrcomb, n) for n in kerrcomb.__all__}\n"
        "print(json.dumps([loaded, [\n"
        "    name for name, obj in exported.items()\n"
        "    if getattr(sys.modules[obj.__module__], name) is not obj]]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code,
         json.dumps([[], checked, closed_form, above])],
        env=env, check=True, capture_output=True, text=True).stdout
    (imported, after_checks, after_closed_form, after_schur), stray = (
        json.loads(out))
    assert imported == after_checks == []
    assert "numpy" in after_closed_form
    assert not [m for m in after_closed_form
                if m.partition(".")[0] == "scipy"]
    assert "scipy.linalg" in after_schur
    assert not {"scipy.constants", "scipy.integrate"} & set(after_schur)
    assert stray == []
