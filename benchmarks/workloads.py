"""The benchmark's workloads: scenario dicts built from a seed.

Each workload is a list of passes; a pass is a list of items, and each item
is one scenario run through ``kerrcomb.cli.run_scenario``, the code path
behind ``kerrcomb run``.  The measuring loop cycles through the passes, so
the seed fixes which inputs run and in what order.  Physical parameters are
those of the shipped scenarios in ``scripts/scenarios`` and of the test
fixtures; they are copied here so that the benchmark's inputs stay fixed
when those files change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: CaF2 add-through resonator of the shipped scenarios (zeta2 = 2 pi 2.9 kHz).
CAF2 = {
    "pump_wavelength": 1.55e-06,
    "main_radius": 2.5e-03,
    "group_index": 1.43,
    "intrinsic_Q": 1.0e+09,
    "through_Q": 2.5e+08,
    "gamma": 0.001,
    "zeta2": 18221.237,
}

#: test_07's sweep: (pump power / P_th, roll noise seed, realized roll order).
#: Other noise seeds select other coexisting roll orders above ~1.5 P_th, and
#: some fail to refine (2.5 P_th with seeds 0 and 7 raise RefinementError);
#: the benchmark keeps the seeds the tier-1 test uses so that every operation
#: it runs is expected to succeed, and checks the order each one must reach.
ROLL_POINTS = ((1.1, 0, 20), (1.5, 0, 23), (2.0, 0, 23), (2.5, 1, 24),
               (3.0, 0, 26))

#: Pairs analysed on each soliton, as in test_12.
SOLITON_PAIRS = (1, 5, 10, 20)
#: Frequency points of the soliton spectra.  The CLI always uses the
#: 1024-point default grid; at 1024 points one K = 128 pair costs 20-30 s,
#: so the benchmark passes a coarser grid of the same range at the
#: ``optimize_quadrature_angle`` boundary to fit four pairs of two solitons
#: into one run.
SOLITON_OMEGA_POINTS = 128

#: Below-threshold map: pump powers (W) up to 0.75 P_th at sigma = +kappa/2.
BELOW_POWERS = tuple(1e-6 * (5e3 ** (i / 19)) for i in range(20))
BELOW_MODES = tuple(range(1, 41))
BELOW_L_MAX = 400
#: Hamiltonian-audit truncation: the package's K_MAX when this was written.
AUDIT_K = 6


@dataclass(frozen=True)
class Item:
    """One scenario run.  ``state`` items are solved states or sweep points
    and give the per-state timing samples; ``expect`` holds what the
    correctness checks compare the outputs against."""

    name: str
    scenario: dict
    state: bool = True
    expect: dict = field(default_factory=dict)
    omega_points: int | None = None


def _roll(mult: float, noise_seed: int, order: int) -> Item:
    return Item(
        name=f"roll_{mult:g}Pth",
        scenario={
            "schema": 1, "name": f"roll-{mult:g}", "mode": "above_threshold",
            "resonator": {**CAF2, "pump_power_over_threshold": mult,
                          "detuning_over_kappa": -1.0},
            "state": {"kind": "roll"},
            "outputs": ["stability", "quadrature_spectrum"],
            "pairs": [order],
            "angle": {"half_width": math.pi / 2, "objective": "min"},
            "seed": noise_seed,
        },
        expect={"pattern": "roll", "roll_order": order})


def _soliton(kind: str, pairs: tuple[int, ...], omega_points: int) -> Item:
    bright = kind == "bright_soliton"
    resonator = {**CAF2,
                 "zeta2": CAF2["zeta2"] if bright else -CAF2["zeta2"],
                 "pump_power": 4.0e-03 if bright else 5.3e-03,
                 "detuning_over_kappa": -2.0 if bright else -2.5}
    return Item(
        name=kind,
        scenario={
            "schema": 1, "name": kind, "mode": "above_threshold",
            "resonator": resonator,
            "state": {"kind": kind, "horizon": 500.0},
            "outputs": ["stability", "quadrature_spectrum"],
            "pairs": list(pairs),
            "angle": {"half_width": 1.5707963, "objective": "min"},
            "seed": 0,
        },
        expect={"pattern": kind}, omega_points=omega_points)


def _below(power: float, modes: tuple[int, ...], l_max: int) -> Item:
    return Item(
        name=f"below_{power:.6e}",
        scenario={
            "schema": 1, "name": "below-threshold-map",
            "mode": "below_threshold",
            "resonator": {**CAF2, "pump_power": power,
                          "detuning_over_kappa": 0.5},
            "outputs": ["spectrum", "envelope", "flux_table"],
            "modes": list(modes), "l_max": l_max,
        },
        expect={"reference": f"{power:.6e}"})


def _audit(K: int) -> Item:
    return Item(
        name=f"audit_K{K}", state=False,
        scenario={"schema": 1, "name": "hamiltonian-audit",
                  "mode": "hamiltonian_audit", "outputs": ["audit"],
                  "audit_K": K},
        expect={"audit_K": K})


def build(workload: str, seed: int, smoke: bool = False) -> list[list[Item]]:
    """Passes of `workload` for `seed`; `smoke` shrinks each to its minimum."""
    rng = random.Random(seed)
    if workload == "roll_sweep":
        points = list(ROLL_POINTS)
        rng.shuffle(points)
        if smoke:
            return [[_roll(*points[0])]]
        return [[_roll(*p)] for p in points]
    if workload == "soliton_spectra":
        if smoke:
            return [[_soliton("bright_soliton", (1,), 16),
                     _soliton("dark_soliton", (1,), 16)]]
        items = [_soliton(k, SOLITON_PAIRS, SOLITON_OMEGA_POINTS)
                 for k in ("bright_soliton", "dark_soliton")]
        rng.shuffle(items)
        return [items]
    if workload == "below_threshold_map":
        if smoke:
            return [[_below(BELOW_POWERS[0], (1, 2), 5),
                     _below(BELOW_POWERS[-1], (1, 2), 5), _audit(2)]]
        items = [_below(p, BELOW_MODES, BELOW_L_MAX)
                 for p in BELOW_POWERS] + [_audit(AUDIT_K)]
        rng.shuffle(items)
        return [items]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("roll_sweep", "soliton_spectra", "below_threshold_map")
