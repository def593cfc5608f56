"""Scenario runner: parse a JSON scenario, compute, write products + report.

Scenario schema (version 1), JSON with the following top-level keys:

    schema      int, must be 1
    name        str
    mode        "below_threshold" | "above_threshold" | "hamiltonian_audit"
    resonator   (below and above threshold) section whose keys are
                ResonatorConfig's fields, those with no default
                required; detuning may be given as "detuning"
                (rad/s) or "detuning_over_kappa"; pump power as
                "pump_power" (W) or "pump_power_over_threshold" (one of
                each pair, never both); a null value counts as not given
    state       (above threshold) {"kind": "roll" | "bright_soliton" |
                "dark_soliton" | "flat", "K", "horizon", "target_order"};
                K and target_order ints >= 1, horizon a positive number
                (units of 1/kappa) that caps the split-step relaxation,
                which hands off to Newton at the first stable root of
                the requested kind; target_order (roll only) is <= K, as
                pairs are; unset keys take find_steady_state's defaults
    angle       (above threshold) {"half_width": positive number (rad,
                default pi/4), "objective": "band_integral" | "min"
                (default "band_integral")}: the window and objective of
                the quadrature angle, which is solved in closed form;
                rho scales the spectra exactly, C_out(rho) = C_in +
                rho (C_out(1) - C_in), so it does not move the angle
    outputs     list of distinct products: spectrum, envelope, flux_table,
                total_power (below threshold); quadrature_spectrum,
                number_difference, stability (above threshold); audit
    modes       (below threshold) one or more distinct sidemode indices
                l (ints) for per-mode spectra (default [1])
    pairs       (above threshold) one or more distinct pair indices
                (ints >= 1, <= state.K or else the default mode cutoff)
                for quadrature_spectrum and number_difference, one CSV
                each per pair; number_difference needs a mean field in
                the pair (default: the realized roll order for a roll
                state, [1] otherwise)
    l_max       (below threshold) envelope/flux-table half-range,
                int >= 0 (default 100)
    audit_K     (hamiltonian audit) truncation, int in 0..6 (default 3)
    seed        integer >= 0 (default 0)
    sweep       (below and above threshold) optional {"path": "<resonator
                key>", "values": [...]} with at least one value, each
                resolved at validate

Any other top-level key, one tagged with other modes only among them,
is rejected with its name and the scenario's mode.

Every product is one file plus a metadata record in report.json; all
output frequencies are in units of kappa, powers in watts.  Runs are
deterministic for a given scenario + seed.  `run_products` is the one
product table: its branches name each file, header, comment and report
field, and yield the arrays of the numerical layers as `io.csv_text`
formats them.  `_run_point` is the one recording site: it hashes and
times each yielded file, records it, and hands it to the run's writer
thread (`_writer`), which creates every file, products and reports
alike, while the next product is computed; every file is complete when
`run_scenario` returns, and a failed write is raised from it.  A
product's `seconds` times computing, formatting and hashing it, not the
state solve and not the write.

`validate` and `report` load no numpy: validation reads only `units` and
`hamiltonian_audit`, and numpy, the one runtime dependency, `io` and the
numerical layers load at the first run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import sys
import time
from collections.abc import Iterator
from pathlib import Path

from . import _blas, hamiltonian_audit, units

SCHEMA_VERSION = 1

#: The top-level keys each mode reads, besides the ones every mode reads.
MODE_KEYS = {
    "below_threshold": {"resonator", "modes", "l_max", "sweep"},
    "above_threshold": {"resonator", "state", "angle", "pairs", "sweep"},
    "hamiltonian_audit": {"audit_K"},
}
COMMON_KEYS = {"schema", "name", "mode", "outputs", "seed"}
MODES = tuple(MODE_KEYS)
PRODUCTS_BY_MODE = {
    "below_threshold": {"spectrum", "envelope", "flux_table",
                        "total_power"},
    "above_threshold": {"quadrature_spectrum", "number_difference",
                        "stability"},
    "hamiltonian_audit": {"audit"},
}
STATE_KEYS = {"kind", "K", "horizon", "target_order"}
STATE_KINDS = ("flat", "roll", "bright_soliton", "dark_soliton")
ANGLE_KEYS = {"half_width", "objective"}


class ScenarioError(ValueError):
    """Scenario file is unreadable, malformed, or self-inconsistent."""


def load_scenario(path: str | Path) -> dict:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc
    validate_scenario(raw)
    return raw


def validate_scenario(raw: dict) -> None:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f"field 'schema': expected {SCHEMA_VERSION}, "
                            f"got {raw.get('schema')!r}")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ScenarioError(f"field 'mode': expected one of {MODES}, got {mode!r}")
    unread = sorted(set(raw) - COMMON_KEYS - MODE_KEYS[mode])
    if unread:
        raise ScenarioError(
            f"top-level keys {unread}: mode {mode!r} does not read them "
            f"(it reads {sorted(COMMON_KEYS | MODE_KEYS[mode])})")
    if "name" in raw and not isinstance(raw["name"], str):
        raise ScenarioError("field 'name': expected a string, "
                            f"got {raw['name']!r}")
    if "seed" in raw and not (_is_int(raw["seed"]) and raw["seed"] >= 0):
        raise ScenarioError("field 'seed': expected an integer >= 0, "
                            f"got {raw['seed']!r}")
    outputs = raw.get("outputs", [])
    if not isinstance(outputs, list):
        raise ScenarioError("field 'outputs': expected a list")
    allowed = PRODUCTS_BY_MODE[mode]
    for product in outputs:
        if not isinstance(product, str) or product not in allowed:
            raise ScenarioError(
                f"field 'outputs': product {product!r} is not valid in mode "
                f"{mode!r} (allowed: {sorted(allowed)})")
    if len(set(outputs)) < len(outputs):
        raise ScenarioError("field 'outputs': a product is repeated")
    state = raw.get("state", {})
    if not isinstance(state, dict) or set(state) - STATE_KEYS:
        raise ScenarioError(f"field 'state': expected an object with keys "
                            f"among {sorted(STATE_KEYS)}, got {state!r}")
    if "kind" in state and state["kind"] not in STATE_KINDS:
        raise ScenarioError(f"field 'state': 'kind' must be one of "
                            f"{STATE_KINDS}, got {state['kind']!r}")
    for key in ("K", "target_order"):
        if key in state and not (_is_int(state[key]) and state[key] >= 1):
            raise ScenarioError(f"field 'state': {key!r} must be an integer "
                                f">= 1, got {state[key]!r}")
    if "horizon" in state and not _is_positive(state["horizon"]):
        raise ScenarioError("field 'state': 'horizon' must be a positive "
                            f"finite number, got {state['horizon']!r}")
    angle = raw.get("angle", {})
    if not isinstance(angle, dict) or set(angle) - ANGLE_KEYS:
        raise ScenarioError(f"field 'angle': expected an object with keys "
                            f"among {sorted(ANGLE_KEYS)}, got {angle!r}")
    if "half_width" in angle and not _is_positive(angle["half_width"]):
        raise ScenarioError("field 'angle': 'half_width' must be a positive "
                            f"number, got {angle['half_width']!r}")
    if ("objective" in angle
            and angle["objective"] not in units.OBJECTIVES):
        raise ScenarioError(f"field 'angle': 'objective' must be one of "
                            f"{units.OBJECTIVES}, "
                            f"got {angle['objective']!r}")
    for key in ("modes", "pairs"):
        if key in raw and not (isinstance(raw[key], list)
                               and all(map(_is_int, raw[key]))):
            raise ScenarioError(f"field {key!r}: expected a list of integers")
        if key in raw and not raw[key]:
            raise ScenarioError(f"field {key!r}: expected at least one index")
        if key in raw and len(set(raw[key])) < len(raw[key]):
            raise ScenarioError(f"field {key!r}: an index is repeated")
    pairs = raw.get("pairs", [])
    if min(pairs, default=1) < 1:
        raise ScenarioError("field 'pairs': pair indices must be >= 1")
    if "target_order" in state and state.get("kind", "roll") != "roll":
        raise ScenarioError("field 'state': 'target_order' applies to kind "
                            f"'roll' only, got {state['kind']!r}")
    # what must fit under the mode cutoff K
    bounded = {"field 'pairs': pair indices": max(pairs, default=1),
               "field 'state': 'target_order'": state.get("target_order", 1)}
    if "K" in state:
        _check_cutoff(bounded, state["K"], "the state's")
    if "l_max" in raw and not (_is_int(raw["l_max"]) and raw["l_max"] >= 0):
        raise ScenarioError("field 'l_max': expected an integer >= 0")
    if "audit_K" in raw and not (
            _is_int(raw["audit_K"])
            and 0 <= raw["audit_K"] <= hamiltonian_audit.K_MAX):
        raise ScenarioError("field 'audit_K': expected an integer in "
                            f"0..{hamiltonian_audit.K_MAX}")
    sweep = raw.get("sweep")
    if sweep is not None and not (isinstance(sweep, dict)
                                  and isinstance(sweep.get("path"), str)
                                  and isinstance(sweep.get("values"), list)
                                  and sweep["values"]):
        raise ScenarioError("field 'sweep': expected {path: <resonator key>, "
                            "values: [one or more values]}")
    if mode == "hamiltonian_audit":
        return
    res = raw.get("resonator")
    if not isinstance(res, dict):
        raise ScenarioError("field 'resonator': required for this mode, "
                            "as an object")
    # resolve what run_scenario will: every sweep point, else the resonator
    points = ([{**res, sweep["path"]: v} for v in sweep["values"]]
              if sweep else [res])
    # zeta2 = 0 flattens the envelope and makes the total power diverge
    needs_zeta2 = [p for p in ("envelope", "total_power") if p in outputs]
    for point in points:
        params = build_config(point)
        if needs_zeta2 and params.zeta2 == 0.0:
            raise ScenarioError(f"field 'outputs': product "
                                f"{needs_zeta2[0]!r} needs dispersion, and "
                                "the resonator has zeta2 = 0")
        if mode == "above_threshold" and "K" not in state:
            try:
                K = units.default_mode_cutoff(params,
                                              state.get("kind", "roll"))
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ScenarioError(f"field 'resonator': {exc}") from exc
            _check_cutoff(bounded, K, "the default mode cutoff")


def _check_cutoff(bounded: dict[str, int], K: int, which: str) -> None:
    for what, value in bounded.items():
        if value > K:
            raise ScenarioError(f"{what} must be <= {which} K = {K}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive(value) -> bool:
    """A finite number > 0 (bool is not a number here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return value > 0 and (isinstance(value, int) or math.isfinite(value))


def build_config(res: dict) -> units.ModalParams:
    """Resolve the resonator section, including kappa-relative fields, to
    the modal parameters of the resolved config."""
    res = {key: value for key, value in res.items() if value is not None}
    flags = sorted(key for key, value in res.items()
                   if isinstance(value, bool) and key != "topology")
    if flags:
        raise ScenarioError(f"field 'resonator': {flags} must be numbers, "
                            "not booleans")
    for rel, abs_ in (("detuning_over_kappa", "detuning"),
                      ("pump_power_over_threshold", "pump_power")):
        if rel in res and abs_ in res:
            raise ScenarioError(f"field 'resonator': give either {rel!r} or "
                                f"{abs_!r}, not both")
    fields = dataclasses.fields(units.ResonatorConfig)
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in res]
    if missing:
        raise ScenarioError(f"field 'resonator': missing required keys "
                            f"{missing}")
    topologies = [t.value for t in units.Topology]
    topology = res.pop("topology", "add-through")
    if topology not in topologies:
        raise ScenarioError(f"field 'resonator': 'topology' must be one of "
                            f"{topologies}, got {topology!r}")
    sigma_rel = res.pop("detuning_over_kappa", None)
    p_rel = res.pop("pump_power_over_threshold", None)
    unknown = sorted(set(res) - {f.name for f in fields})
    if unknown:
        raise ScenarioError(f"field 'resonator': unknown keys {unknown}")
    # any bad value from the file becomes a ScenarioError, at validate too
    try:
        config = units.ResonatorConfig(topology=units.Topology(topology),
                                       **res)
        # kappa and the threshold at a given sigma depend on neither pump
        # power nor detuning
        params = units.modal_params(config)
        if sigma_rel is not None:
            config = dataclasses.replace(config,
                                         detuning=sigma_rel * params.kappa)
        if p_rel is not None:
            config = dataclasses.replace(
                config, pump_power=p_rel * units.threshold_pump_power(
                    dataclasses.replace(params, sigma=config.detuning)))
        return units.modal_params(config)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ScenarioError(f"field 'resonator': {exc}") from exc


#: Files handed to the writer thread and not yet written, at most.
WRITE_QUEUE = 4


@contextlib.contextmanager
def _writer():
    """The scope of one writer thread: yields `submit(path, data)`, which
    queues a file for the thread; the thread creates the files in order
    while the caller computes the next one.

    The thread does file I/O only.  After its first failed write it writes
    nothing more: `submit` raises that error from then on, and so does
    the scope's exit, once the thread has drained the queue and ended.
    """
    import queue
    import threading

    pending = queue.Queue(WRITE_QUEUE)
    failed = []

    def drain() -> None:
        while (item := pending.get()) is not None:
            if not failed:
                try:
                    item[0].write_bytes(item[1])
                # any error, so the thread drains the queue to the end and
                # a blocked `submit` can return
                except Exception as exc:  # noqa: BLE001 - raised by the run
                    failed.append(exc)

    def submit(path: Path, data: bytes) -> None:
        if failed:
            raise failed[0]
        pending.put((path, data))

    thread = threading.Thread(target=drain, name="kerrcomb-writer")
    thread.start()
    try:
        yield submit
    finally:
        pending.put(None)
        thread.join()
    if failed:
        raise failed[0]


def derived_quantities(p: units.ModalParams) -> dict:
    """The report's "derived" record: rates, thresholds and roll order
    (null where none exists, or where zeta2 = 0)."""
    try:
        L = units.predicted_roll_order(p.sigma, p.kappa, p.zeta2)
    except (units.NoRollOrderError, ZeroDivisionError):
        L = None
    return {
        "kappa_rad_s": p.kappa,
        "kappa_t_rad_s": p.kappa_t,
        "rho": p.rho,
        "g0_rad_s": p.g0,
        "zeta2_rad_s": p.zeta2,
        "P_min_watts": units.min_pump_power(p),
        "P_th_watts": units.threshold_pump_power(p),
        "predicted_roll_order": L,
        "units": {"frequencies": "kappa (dimensionless in CSVs)",
                  "powers": "watts", "rates": "rad/s"},
    }


def run_products(scenario: dict, seed: int, report: dict) -> Iterator:
    """Yield (file name, bytes, report fields) for every requested product,
    after one bare yield once the derived quantities and the state are in
    `report`, so the first product's clock starts after the state solve.
    numpy and the numerical layers load here, at the first run."""
    import numpy as np

    from . import io, linearization, spontaneous, squeezing
    from . import steady_state as ss

    mode = scenario["mode"]
    outputs = scenario.get("outputs", [])

    params = None
    if mode != "hamiltonian_audit":
        params = build_config(scenario["resonator"])
        report["derived"] = derived_quantities(params)

    if mode == "below_threshold" and outputs:
        flat = ss.solve_flat_state(params)
        l_max = scenario.get("l_max", 100)
        ls = np.arange(-l_max, l_max + 1)
    if mode == "above_threshold" and outputs:
        t0 = time.perf_counter()
        state = ss.find_steady_state(params, seed=seed,
                                     **scenario.get("state", {}))
        report["state"] = {
            "pattern": state.pattern.value,
            "roll_order": state.roll_order,
            "residual_norm": state.residual_norm,
            "K": state.K,
            "photon_number": state.photon_number,
            "seconds": round(time.perf_counter() - t0, 6),
        }
        pairs = scenario.get("pairs", [state.roll_order]
                             if state.pattern is ss.PatternKind.ROLL else [1])
        angle = scenario.get("angle", {})
        # one angle solve per pair, shared by both pair products
        optimum = functools.cache(
            lambda l: squeezing.optimize_quadrature_angle(state, l, **angle))
    yield
    for product in outputs:
        if product == "spectrum":
            # each distinct omega/kappa grid formatted once: mode_spectra
            # yields one grid array per window, alive while it runs
            columns = {}
            for l, kind, peaks, series in spontaneous.mode_spectra(
                    scenario.get("modes", [1]), flat):
                key = id(series.x)
                if key not in columns:
                    columns[key] = io._cells(series.x)
                data = io._csv("omega/kappa,S",
                               [columns[key], io._cells(series.values)])
                yield f"spectrum_l{l}.csv", data, dict(
                    product=product, l=l, lineshape=kind,
                    peak_frequencies_over_kappa=peaks)
        elif product == "envelope":
            kind, peak, _ = spontaneous.lineshape_peaks(ls, flat)
            data = io.csv_text("l,S_env,kind", [ls, peak, kind])
            yield "envelope.csv", data, dict(
                product=product,
                peak_modes=list(spontaneous.envelope_peaks(flat)))
        elif product == "flux_table":
            data = io.csv_text("l,R_out,P_out_watts,regime",
                               [ls, *spontaneous.sidemode_flux(ls, flat)])
            yield "flux_table.csv", data, dict(product=product)
        elif product == "total_power":
            closed, discrete = spontaneous.total_spontaneous_power(params)
            data = io.csv_text("closed_form_watts,discrete_sum_watts",
                               [[closed], [discrete]])
            yield "total_power.csv", data, dict(product=product)
        elif product == "number_difference":
            I = state.intensities
            for l in pairs:
                if I[state.K + l] <= ss.PATTERN_FLOOR * I.max():
                    raise ValueError(f"number_difference: pair l={l} has no "
                                     "mean field, so no linear fluctuation")
                series = squeezing.quadrature_spectrum(optimum(l).blocks, 0.0)
                data = io.csv_text("omega/kappa,S", [series.x, series.values])
                yield f"number_difference_l{l}.csv", data, dict(
                    product=product, l=l)
        elif product == "stability":
            eig = linearization.stability_spectrum(state)
            kappa = state.params.kappa
            data = io.csv_text("re_over_kappa,im_over_kappa",
                               [eig.real / kappa, eig.imag / kappa])
            yield "stability.csv", data, dict(
                product=product, stable=linearization.is_stable(eig, kappa))
        elif product == "quadrature_spectrum":
            for l in pairs:
                opt = optimum(l)
                data = io.csv_text(
                    "omega_over_kappa,S", [opt.spectrum.x, opt.spectrum.values],
                    comment=f"pair l={l}, phi={opt.delta_Phi:.6f} rad "
                            "(pair frame)")
                yield f"quadrature_l{l}.csv", data, dict(
                    product=product, l=l, Phi_l=opt.Phi_l,
                    delta_Phi=opt.delta_Phi, objective=opt.objective,
                    flags={"degenerate": opt.degenerate})
        elif product == "audit":
            K = scenario.get("audit_K", 3)
            mset = hamiltonian_audit.enumerate_monomials(K)
            counts = {t.value: c for t, c in mset.counts_by_tag().items()}
            yield "audit_monomials.txt", mset.dump().encode(), dict(
                product=product, K=K, ordered_count=mset.ordered_count,
                expected=hamiltonian_audit.expected_total(K),
                counts_by_tag=counts)


def run_scenario(scenario: dict, outdir: Path, seed: int | None = None) -> int:
    """Run one scenario (including sweeps); returns process exit status:
    1 if any run recorded an error, else 0.  The run computes on one BLAS
    thread, and every file is complete on return: the run's writer thread
    (`_writer`) ends before it, and its first failed write is raised
    here."""
    outdir.mkdir(parents=True, exist_ok=True)
    seed = scenario.get("seed", 0) if seed is None else seed
    sweep = scenario.get("sweep")
    with _blas.one_thread(), _writer() as submit:
        if not sweep:
            report = _run_point(scenario, outdir, seed, submit)
            return 1 if report["errors"] else 0
        report = {"scenario": scenario, "seed": seed, "sub_runs": []}
        for i, value in enumerate(sweep["values"]):
            sub = {k: v for k, v in scenario.items() if k != "sweep"}
            sub["resonator"] = {**sub["resonator"], sweep["path"]: value}
            subdir = outdir / f"sweep_{i:02d}"
            subdir.mkdir(parents=True, exist_ok=True)
            sub_report = _run_point(sub, subdir, seed, submit)
            report["sub_runs"].append({
                "dir": subdir.name, "value": value,
                "state": sub_report.get("state"),
                "errors": sub_report["errors"],
            })
        submit(outdir / "report.json", json.dumps(report, indent=2).encode())
    return 1 if any(run["errors"] for run in report["sub_runs"]) else 0


def _run_point(scenario: dict, outdir: Path, seed: int, submit) -> dict:
    """Run a scenario with no sweep into the existing `outdir` and return
    its report.  The one site that records each product file, as it comes,
    and submits it: a product's `seconds` runs from the end of the one
    before it, or of the state solve, to its hash."""
    import hashlib

    report = {"scenario": scenario, "seed": seed, "schema": SCHEMA_VERSION,
              "products": [], "errors": []}
    try:
        files = run_products(scenario, seed, report)
        next(files)
        t0 = time.perf_counter()
        for name, data, fields in files:
            report["products"].append({
                "file": name, "sha256": hashlib.sha256(data).hexdigest(),
                "seconds": round(time.perf_counter() - t0, 6), **fields})
            submit(outdir / name, data)
            t0 = time.perf_counter()
    # numpy's LinAlgError is a ValueError
    except (ScenarioError, ValueError, ArithmeticError, RuntimeError) as exc:
        report["errors"].append({"type": type(exc).__name__,
                                 "message": str(exc)})
    submit(outdir / "report.json", json.dumps(report, indent=2).encode())
    return report


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="kerrcomb",
        description="Kerr comb quantum-dynamics scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)

    p_val = sub.add_parser("validate", help="parse and check a scenario file")
    p_val.add_argument("scenario")

    p_rep = sub.add_parser("report", help="pretty-print a run report")
    p_rep.add_argument("run_dir")

    args = parser.parse_args(argv)
    if args.command == "run" and args.seed is not None and args.seed < 0:
        p_run.error("argument --seed: expected an integer >= 0, "
                    f"got {args.seed}")
    if args.command == "report":
        path = Path(args.run_dir) / "report.json"
        if not path.exists():
            print(f"no report.json under {args.run_dir}", file=sys.stderr)
            return 1
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            print(f"unreadable {path}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report, indent=2))
        return 0
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print("ok")
        return 0
    outdir = Path(args.out) if args.out else Path(
        scenario.get("name", "run") + "_out")
    try:
        return run_scenario(scenario, outdir, args.seed)
    except OSError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
