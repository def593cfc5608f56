"""kerrcomb benchmark: one workload, measured for a fixed time, checked.

    python3 benchmarks/run.py --workload roll_sweep --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  The workload's scenarios run back to back in this process through
`kerrcomb.cli.run_scenario` (the code path of `kerrcomb run`), with outputs
in a temporary directory under `benchmarks/out/`.  Passes repeat until the
next one would end after `--seconds`; every output is checked after its
pass, outside the timed region.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics from a run with spans around every
layer's public calls with `--trace 1`.  The lines before it give each
metric with its unit and sample count, the provenance of the run and, when
traced, where the seconds went.  `--workload all` runs every workload and
prefixes the metric names with the workload.  `--smoke` runs each workload
at its minimum size, once, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference" / "below_threshold_map.json"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics: name -> unit, in the order BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "run_s": "s",
    "state_s.p50": "s",
    "state_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Distinct error messages printed per workload.
MAX_ERRORS = 20
#: Fresh interpreters started to time set-up; their median is `setup_s`.
SETUP_REPEATS = 3
SETUP_CODE = (
    "import sys\n"
    "import kerrcomb, kerrcomb.cli as cli\n"
    "if not kerrcomb.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit(f'kerrcomb imported from {kerrcomb.__file__}')\n"
    "for path in sys.argv[2:]:\n"
    "    cli.load_scenario(path)\n"
)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def provenance(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def lines(folder: Path) -> int:
        return sum(len(p.read_text().splitlines())
                   for p in sorted(folder.rglob("*.py")))

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": commit,
        "lines": {"src": lines(SRC), "scripts": lines(ROOT / "scripts")},
    }


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, or None if it cannot be read."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()
            and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def measure_setup(paths: list[Path], repeats: int) -> list[float]:
    """Wall time of fresh interpreters importing kerrcomb and validating."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)] + [str(p) for p in paths]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


class Capture:
    """Sits on `squeezing.optimize_quadrature_angle`: keeps the state each
    item's pairs were analysed on, for the oracle check, and passes the
    item's frequency grid when the caller gave none."""

    def __init__(self, squeezing) -> None:
        self.module = squeezing
        self.original = squeezing.optimize_quadrature_angle
        self.item = None
        self.seen: dict[str, dict[int, object]] = {}
        module, original = squeezing, self.original

        def optimize_quadrature_angle(state, l, *args, **kwargs):
            points = self.item.omega_points
            if points and not args and "omega_grid" not in kwargs:
                kwargs["omega_grid"] = module.default_omega_grid(points)
            result = original(state, l, *args, **kwargs)
            self.seen.setdefault(self.item.name, {})[l] = state
            return result

        squeezing.optimize_quadrature_angle = optimize_quadrature_angle

    def close(self) -> None:
        self.module.optimize_quadrature_angle = self.original


def check_pass(items, outdirs, capture: Capture, reference: dict,
               build_jq) -> tuple[int, list[str], int, int]:
    """Check one pass's outputs: (operations, failures, files, bytes)."""
    attempted, failures, files, bytes_ = 0, [], 0, 0
    for item, outdir in zip(items, outdirs):
        sizes = [f.stat().st_size for f in outdir.rglob("*") if f.is_file()]
        files += len(sizes)
        bytes_ += sum(sizes)
        mode = item.scenario["mode"]
        if mode == "above_threshold":
            n, why = checks.check_state(
                item, outdir, capture.seen.get(item.name, {}), build_jq)
        elif mode == "below_threshold":
            n, why = checks.check_below(item, outdir, reference)
        else:
            n, why = checks.check_audit(item, outdir)
        attempted += n
        failures += [f"{item.name}: {w}" for w in why]
    capture.seen.clear()
    return attempted, failures, files, bytes_


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Set up, then run passes of `name` for about `seconds`, checking each."""
    import kerrcomb.cli as cli
    import kerrcomb.linearization as linearization
    import kerrcomb.squeezing as squeezing

    passes = workloads.build(name, seed, smoke)
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "scenarios").mkdir(parents=True)
    paths = {}
    for item in {i.name: i for p in passes for i in p}.values():
        paths[item.name] = work / "scenarios" / f"{item.name}.json"
        paths[item.name].write_text(json.dumps(item.scenario, indent=1))
    reference = json.loads(REFERENCE.read_text())
    setup = measure_setup(list(paths.values()), 1 if smoke else SETUP_REPEATS)

    capture = Capture(squeezing)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    pass_s, state_s, failures, raised = [], [], [], []
    attempted = files = bytes_ = 0
    cpu_s = 0.0
    start = time.perf_counter()
    try:
        for k in itertools.count():
            items = passes[k % len(passes)]
            outdirs = [work / f"pass{k}" / item.name for item in items]
            cpu0, t_pass = time.process_time(), time.perf_counter()
            for item, outdir in zip(items, outdirs):
                capture.item = item
                if tracer:
                    tracer.begin_state(item.name)
                t0 = time.perf_counter()
                try:
                    cli.run_scenario(cli.load_scenario(paths[item.name]),
                                     outdir)
                except Exception as exc:  # noqa: BLE001 - checks count it
                    raised.append(f"{item.name}: {exc!r}")
                if item.state:
                    state_s.append(time.perf_counter() - t0)
            pass_s.append(time.perf_counter() - t_pass)
            cpu_s += time.process_time() - cpu0

            if tracer:
                tracer.paused = True
            n, why, f, b = check_pass(items, outdirs, capture, reference,
                                      linearization.build_quadrature_jacobian)
            if tracer:
                tracer.paused = False
            attempted, files, bytes_ = attempted + n, files + f, bytes_ + b
            failures += why
            shutil.rmtree(work / f"pass{k}")
            elapsed = time.perf_counter() - start
            if smoke or elapsed + statistics.median(pass_s) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        capture.close()
    shutil.rmtree(work)

    n = len(pass_s)
    result = {
        "attempted": max(attempted, 1),
        "failed": len(failures), "errors": raised + failures,
        "passes": n, "pass_s": pass_s, "state_s": state_s, "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer:
        run_s = sum(pass_s) / n
        overhead = len(tracer.spans) * tracing.wrapper_cost() / sum(pass_s)
        result["per_layer"] = tracer.per_layer(n, run_s, cpu_s / n,
                                               files / n, bytes_ / n,
                                               overhead)
        result["summary"] = tracer.summary(n, run_s, result["per_layer"])
        tracer.write_spans(OUT / f"{name}.spans.jsonl")
    return result


def write_reference() -> None:
    """Store the default-seed below-threshold digests the checks compare to."""
    import kerrcomb.cli as cli

    work = OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    for item in workloads.build("below_threshold_map", 0)[0]:
        if item.scenario["mode"] == "below_threshold":
            cli.run_scenario(item.scenario, work / item.name)
            reference[item.expect["reference"]] = checks.below_digest(
                item, work / item.name)
    shutil.rmtree(work)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
        for k, v in sorted(reference.items())) + "\n}\n")


def end_to_end(result: dict) -> dict:
    states = result["state_s"] or result["pass_s"]
    return {
        "run_s": statistics.median(result["pass_s"]),
        "state_s.p50": statistics.median(states),
        "state_s.p90": percentile(states, 90.0),
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def samples(result: dict) -> dict:
    states = len(result["state_s"] or result["pass_s"])
    return {"run_s": len(result["pass_s"]), "state_s.p50": states,
            "state_s.p90": states, "setup_s": len(result["setup_s"]),
            "peak_rss_mb": 1}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum size, one pass per workload")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the below-threshold reference")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "kerrcomb" / "__init__.py").is_file():
        print(f"no kerrcomb sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kerrcomb
    if not Path(kerrcomb.__file__).resolve().is_relative_to(SRC):
        print(f"kerrcomb imported from {kerrcomb.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.write_reference:
        write_reference()
        return 0

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics: dict = {}
    attempted = failed = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.smoke)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}/" if args.workload == "all" else ""
        values = result["per_layer"] if args.trace else end_to_end(result)
        counts = ({k: result["passes"] for k in values} if args.trace
                  else samples(result))
        print(f"== {name}: {result['passes']} pass(es), error_rate "
              f"{result['failed'] / result['attempted']:.4g} "
              f"({result['failed']}/{result['attempted']} operations)")
        for err in list(dict.fromkeys(result["errors"]))[:MAX_ERRORS]:
            print(f"   error: {err}")
        for key, value in values.items():
            print(f"   {key:40s} {value:14.6g} {units[key]:8s} "
                  f"n={counts[key]}")
        if args.trace:
            print(result["summary"])
        print("provenance: " + json.dumps(provenance(name, args.seed)))
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
