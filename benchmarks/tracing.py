"""Spans around the public calls of each kerrcomb layer, installed from outside.

`Tracer.install` replaces each listed function, on its own module and on
every kerrcomb module that imported it by name, with a wrapper that records
a span: (call, start, end, parent span, state id) plus a few call-specific
notes (residuals, grid sizes, matrix sizes).  The package looks these names
up at call time, so the wrappers see every call the CLI makes.  Spans stay
in memory; `per_layer` turns them into the per-layer metrics and
`write_spans` writes them out once the run is over.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

#: The public calls timed per layer (module -> function names).
LAYER_CALLS = {
    "units": ("derive_loss_budget", "modal_params", "threshold_pump_power"),
    "steady_state": ("find_steady_state", "seed_roll", "seed_bright_soliton",
                     "seed_dark_soliton", "propagate", "residual", "refine",
                     "classify", "rotate_to_symmetric", "solve_flat_state"),
    "linearization": ("build_modal_jacobian", "build_quadrature_jacobian",
                      "stability_spectrum"),
    "squeezing": ("optimize_quadrature_angle", "pair_spectral_blocks",
                  "output_correlation", "quadrature_spectrum", "spectrum_csv"),
    "spontaneous": ("spontaneous_spectrum", "classify_lineshape",
                    "spectrum_envelope", "spectrum_csv", "envelope_csv",
                    "flux_table_csv"),
    "hamiltonian_audit": ("enumerate_monomials",),
    "cli": ("load_scenario", "validate_scenario", "build_config",
            "run_products", "run_scenario"),
}

#: Real floating-point operations of one dense `output_correlation` call on
#: an n x n J_q: two complex inverses (8 n^3 each) and four complex matrix
#: products (8 n^3 each).  A computed count, not a measured one.
RESOLVENT_FLOP_PER_N3 = 48.0

#: Per-layer metrics: name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "steady_state.solves": "count",
    "steady_state.propagate_s": "s",
    "steady_state.relax_steps": "count",
    "steady_state.relax_horizon_used": "ratio",
    "steady_state.relax_residual": "ratio",
    "steady_state.refine_s": "s",
    "steady_state.refine_calls": "count",
    "steady_state.seed_s": "s",
    "steady_state.classify_s": "s",
    "linearization.stability_s": "s",
    "linearization.modal_jacobian_s": "s",
    "linearization.quadrature_jacobian_s": "s",
    "linearization.dim": "count",
    "squeezing.pair_blocks_s": "s",
    "squeezing.pair_blocks_calls": "count",
    "squeezing.dense_resolvents": "count",
    "squeezing.s_per_pair_omega": "s",
    "squeezing.nan_omegas": "count",
    "squeezing.resolvent_gflop_computed": "GFLOP",
    "squeezing.resolvent_gflops": "GFLOP/s",
    "squeezing.angle_opt_self_s": "s",
    "squeezing.objective_evals": "count",
    "spontaneous.spectrum_s": "s",
    "spontaneous.envelope_s": "s",
    "spontaneous.flux_s": "s",
    "spontaneous.csv_s": "s",
    "hamiltonian_audit.enumerate_s": "s",
    "hamiltonian_audit.monomials": "count",
    "cli.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "cli.load_s": "s",
    "units.s": "s",
    "bench.traced_run_s": "s",
    "bench.cpu_s": "s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead": "ratio",
}


@dataclass(slots=True)
class Span:
    name: str            # "<layer>.<function>"
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    state: int           # id of the item (state) the span belongs to
    note: object = None  # call-specific value, see NOTES

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _propagate_note(fn, args, kwargs, result) -> dict:
    a = _bind(fn, args, kwargs)
    return {"horizon_steps": max(1, round(a["horizon"] / a["step"])),
            "check_every": a.get("check_every"),
            "stop": a.get("stop_residual"),
            "residual": result[1] if isinstance(result, tuple) else None}


def _pair_blocks_note(fn, args, kwargs, result) -> dict:
    return {"omegas": len(result.omega_over_kappa),
            "nans": int(np.count_nonzero(np.isnan(result.c11)))}


def _resolvent_note(fn, args, kwargs, result) -> int:
    return _bind(fn, args, kwargs)["J_q"].shape[0]


#: Call-specific values kept on a span: call -> f(fn, args, kwargs, result).
NOTES = {
    "steady_state.propagate": _propagate_note,
    "steady_state.residual": lambda fn, args, kwargs, result: result,
    "squeezing.pair_spectral_blocks": _pair_blocks_note,
    "squeezing.output_correlation": _resolvent_note,
    "linearization.build_quadrature_jacobian":
        lambda fn, args, kwargs, result: result.J_q.shape[0],
    "hamiltonian_audit.enumerate_monomials":
        lambda fn, args, kwargs, result: len(result.monomials),
}


class Tracer:
    """Records spans while installed; `paused` lets checks call the package
    without adding spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.labels: list[str] = []      # state id -> item name
        self.state = -1
        self.paused = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        everything = [m for n, m in sys.modules.items()
                      if n == "kerrcomb" or n.startswith("kerrcomb.")]
        for layer, calls in LAYER_CALLS.items():
            module = sys.modules.get(f"kerrcomb.{layer}")
            for call in calls:
                original = getattr(module, call, None)
                if original is None:       # removed by a later change
                    continue
                wrapper = self._wrap(original, f"{layer}.{call}")
                for other in everything:
                    if getattr(other, call, None) is original:
                        self._patched.append((other, call, original))
                        setattr(other, call, wrapper)

    def begin_state(self, label: str) -> None:
        """Attribute the spans that follow to a new state named `label`."""
        self.state = len(self.labels)
        self.labels.append(label)

    def uninstall(self) -> None:
        for module, call, original in reversed(self._patched):
            setattr(module, call, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        self.state)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(fn, args, kwargs, result)
            return result
        return wrapper

    # -- analysis ------------------------------------------------------------

    def _relaxation(self) -> dict[int, tuple]:
        """propagate span index -> (steps taken, horizon steps, residual
        returned)."""
        checks_in: dict[int, list[float]] = {}
        for s in self.spans:
            if s.name == "steady_state.residual" and s.parent >= 0:
                checks_in.setdefault(s.parent, []).append(s.note)
        out = {}
        for i, s in enumerate(self.spans):
            if s.name != "steady_state.propagate" or not s.note:
                continue
            n = s.note
            checks = checks_in.get(i, [])
            full = n["horizon_steps"]
            # residual() runs once before the loop and every check_every
            # steps; a last value below the stop test means an early exit
            if (checks and n["stop"] is not None and n["check_every"]
                    and checks[-1] < n["stop"]):
                taken = min(full, (len(checks) - 1) * n["check_every"])
            else:
                taken = full
            out[i] = (taken, full, n["residual"])
        return out

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, covered)]

    def per_layer(self, passes: int, run_s: float, cpu_s: float,
                  files: int, bytes_: int, overhead: float) -> dict:
        """Per-layer metrics, each a per-pass mean over `passes` passes."""
        spans = self.spans
        self_s = self.self_times()
        names = [s.name for s in spans]

        def incl(*calls):
            return sum(s.seconds for s in spans if s.name in calls)

        def selft(*calls):
            return sum(t for s, t in zip(spans, self_s) if s.name in calls)

        def count(call):
            return names.count(call)

        def top(*calls):
            """Inclusive time of calls not nested in a call of the same layer."""
            layer = calls[0].split(".")[0]
            return sum(s.seconds for s in spans if s.name in calls and (
                s.parent < 0
                or spans[s.parent].name.split(".")[0] != layer))

        relax = self._relaxation()
        steps = sum(r[0] for r in relax.values())
        horizon = sum(r[1] for r in relax.values())
        relax_res = [r[2] for r in relax.values() if r[2] is not None]

        blocks = [s.note for s in spans
                  if s.name == "squeezing.pair_spectral_blocks" and s.note]
        omegas = sum(b["omegas"] for b in blocks)
        dims = [s.note for s in spans
                if s.name == "squeezing.output_correlation"]
        gflop = sum(RESOLVENT_FLOP_PER_N3 * n**3 for n in dims) / 1e9
        resolvent_s = incl("squeezing.output_correlation")

        def under_angle_opt(i):
            p = spans[i].parent
            while p >= 0:
                if spans[p].name == "squeezing.optimize_quadrature_angle":
                    return True
                p = spans[p].parent
            return False

        objective = [i for i, s in enumerate(spans)
                     if s.name == "squeezing.quadrature_spectrum"
                     and under_angle_opt(i)]
        top_level = sum(s.seconds for s in spans if s.parent < 0)
        jq = [s.note for s in spans
              if s.name == "linearization.build_quadrature_jacobian"]

        totals = {
            "steady_state.solves": count("steady_state.find_steady_state"),
            "steady_state.propagate_s": incl("steady_state.propagate"),
            "steady_state.relax_steps": steps,
            "steady_state.refine_s": incl("steady_state.refine"),
            "steady_state.refine_calls": count("steady_state.refine"),
            "steady_state.seed_s": incl("steady_state.seed_roll",
                                        "steady_state.seed_bright_soliton",
                                        "steady_state.seed_dark_soliton"),
            "steady_state.classify_s": incl("steady_state.classify",
                                            "steady_state.rotate_to_symmetric"),
            "linearization.stability_s": incl(
                "linearization.stability_spectrum"),
            "linearization.modal_jacobian_s": incl(
                "linearization.build_modal_jacobian"),
            "linearization.quadrature_jacobian_s": incl(
                "linearization.build_quadrature_jacobian"),
            "squeezing.pair_blocks_s": incl("squeezing.pair_spectral_blocks"),
            "squeezing.pair_blocks_calls": len(blocks),
            "squeezing.dense_resolvents": len(dims),
            "squeezing.nan_omegas": sum(b["nans"] for b in blocks),
            "squeezing.resolvent_gflop_computed": gflop,
            "squeezing.angle_opt_self_s": (
                selft("squeezing.optimize_quadrature_angle")
                + sum(spans[i].seconds for i in objective)),
            "squeezing.objective_evals": len(objective),
            "spontaneous.spectrum_s": top("spontaneous.spontaneous_spectrum",
                                          "spontaneous.classify_lineshape"),
            "spontaneous.envelope_s": top("spontaneous.spectrum_envelope",
                                          "spontaneous.envelope_csv"),
            "spontaneous.flux_s": top("spontaneous.flux_table_csv"),
            "spontaneous.csv_s": selft("spontaneous.spectrum_csv"),
            "hamiltonian_audit.enumerate_s": incl(
                "hamiltonian_audit.enumerate_monomials"),
            "hamiltonian_audit.monomials": sum(
                s.note for s in spans
                if s.name == "hamiltonian_audit.enumerate_monomials"),
            "cli.self_s": sum(t for s, t in zip(spans, self_s)
                              if s.name.startswith("cli.")),
            "cli.files_written": files,
            "cli.bytes_written": bytes_,
            "cli.load_s": incl("cli.load_scenario"),
            "units.s": top(*(f"units.{c}" for c in LAYER_CALLS["units"])),
            "bench.traced_run_s": run_s,
            "bench.cpu_s": cpu_s,
            "bench.unattributed_s": run_s - top_level,
        }
        out = {k: v / passes for k, v in totals.items()}
        out["steady_state.relax_horizon_used"] = (steps / horizon
                                                  if horizon else 0.0)
        out["steady_state.relax_residual"] = (statistics.median(relax_res)
                                              if relax_res else 0.0)
        out["linearization.dim"] = max(jq, default=0)
        out["squeezing.s_per_pair_omega"] = (
            totals["squeezing.pair_blocks_s"] / omegas if omegas else 0.0)
        out["squeezing.resolvent_gflops"] = (gflop / resolvent_s
                                             if resolvent_s else 0.0)
        out["bench.trace_overhead"] = overhead
        return {k: out[k] for k in PER_LAYER_UNITS}

    def summary(self, passes: int, run_s: float, metrics: dict,
                rows: int = 14) -> str:
        """One screen: self time per call, then the stage figures."""
        by_call: dict[str, list[float]] = {}
        for s, t in zip(self.spans, self.self_times()):
            entry = by_call.setdefault(s.name, [0.0, 0])
            entry[0] += t
            entry[1] += 1
        ranked = sorted(by_call.items(), key=lambda kv: -kv[1][0])
        lines = [f"where the seconds went (traced, per pass, {passes} "
                 f"pass(es), run {run_s:.3f} s)",
                 f"  {'call (self time)':44s} {'s':>9s} {'share':>7s} "
                 f"{'calls':>8s}"]
        shown = 0.0
        for name, (t, n) in ranked[:rows]:
            shown += t / passes
            lines.append(f"  {name:44s} {t / passes:9.3f} "
                         f"{t / passes / run_s:7.1%} {n / passes:8.0f}")
        rest = sum(t for _, (t, _) in ranked[rows:]) / passes
        un = metrics["bench.unattributed_s"]
        lines.append(f"  {'(other calls)':44s} {rest:9.3f} "
                     f"{rest / run_s:7.1%}")
        lines.append(f"  {'(unattributed)':44s} {un:9.3f} {un / run_s:7.1%}")
        lines.append(f"  {'total':44s} {shown + rest + un:9.3f}")
        m = metrics
        if m["steady_state.solves"]:
            lines.append(
                f"  relaxation: horizon used "
                f"{m['steady_state.relax_horizon_used']:.2f}, median residual "
                f"at handoff {m['steady_state.relax_residual']:.2e} against "
                f"a stop test of 1e-7")
        lines += self._state_table()
        return "\n".join(lines)

    def _state_table(self) -> list[str]:
        """Per solved state (mean over its passes): the baseline table."""
        relax = self._relaxation()
        rows: dict[str, list[float]] = {}
        for i, s in enumerate(self.spans):
            if s.name not in ("steady_state.find_steady_state",
                              "steady_state.propagate", "steady_state.refine",
                              "squeezing.pair_spectral_blocks"):
                continue
            r = rows.setdefault(self.labels[s.state], [0.0] * 7)
            if s.name == "steady_state.find_steady_state":
                r[0] += 1
            elif s.name == "steady_state.propagate":
                r[1] += s.seconds
                r[2] += relax[i][0] if i in relax else 0
            elif s.name == "steady_state.refine":
                r[3] += s.seconds
            else:
                r[4] += 1
                r[5] += s.seconds
                r[6] += s.note["omegas"]
        lines = []
        for label, (n, rel, steps, newton, pairs, blocks, omegas) in (
                rows.items()):
            if not n:
                continue
            per_pair = f"{blocks / pairs:7.2f}" if pairs else "      -"
            at_1024 = f"{1024 * blocks / omegas:8.1f}" if omegas else "       -"
            lines.append(f"  {label:18s} {rel / n:8.2f} {steps / n:8.0f} "
                         f"{newton / n:8.3f} {pairs / n:6.0f} {per_pair} "
                         f"{at_1024}")
        if lines:
            lines.insert(0, f"  {'state (per solve)':18s} {'relax s':>8s} "
                            f"{'steps':>8s} {'Newton s':>8s} {'pairs':>6s} "
                            f"{'s/pair':>7s} {'@1024 w':>8s}")
        return lines

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "state": s.state}) + "\n")


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured against a no-op function."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "bench.noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - t0 - bare) / calls)
