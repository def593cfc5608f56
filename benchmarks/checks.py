"""Correctness gate: checks every output of a workload item.

Each check returns the number of operations an item attempted and one
message per failed operation.  An item's operations are its state solve (if
any) and each product file it should write.  The dense resolvent below is
the benchmark's own oracle, independent of the package's spectral path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

#: Newton tolerance a converged state must meet (steady_state.NEWTON_TOL).
NEWTON_TOL = 1e-12
#: max Re(lambda) / kappa at or below which a state counts as stable.
STABILITY_TOL = 1e-6
#: Relative agreement of a spectrum with the dense oracle.
ORACLE_RTOL = 1e-7
#: Relative agreement of below-threshold CSV values with the reference.
REFERENCE_RTOL = 1e-9
#: Envelope and flux-table rows kept in the reference.
REFERENCE_LS = (-400, -200, -40, -20, -10, -5, -2, -1, 0, 1, 2, 5, 10, 20,
                40, 200, 400)
#: Spectrum rows kept in the reference, as fractions of the row count.
REFERENCE_ROWS = (0.0, 0.25, 0.5, 0.75, 1.0)


def expected_total(K: int) -> int:
    """Ordered count of momentum-conserving quadruples on modes -K..K."""
    n = 2 * K + 1
    return (2 * n**3 + n) // 3


def dense_pair_spectrum(J_q: np.ndarray, rho: float, l: int, phi: float,
                        omega_over_kappa: float) -> float:
    """Quadrature spectrum of pair l at angle phi, from full dense C_out.

    J_q is in units where kappa = 1 after division, so the resolvent is
    (J_q/kappa +/- i w)^-1 with w = omega/kappa.
    """
    n = J_q.shape[0]
    K = n // 2
    eye = np.eye(n)
    C_in = np.block([[np.eye(K), 1j * np.eye(K)],
                     [-1j * np.eye(K), np.eye(K)]])
    G_p = np.linalg.solve(J_q + 1j * omega_over_kappa * eye, eye)
    G_m = np.linalg.solve(J_q - 1j * omega_over_kappa * eye, eye)
    T_p = 2.0 * rho * G_p + eye
    T_m = 2.0 * rho * G_m + eye
    C = T_p @ C_in @ T_m.T + 4.0 * rho * (1.0 - rho) * (G_p @ C_in @ G_m.T)
    i = l - 1
    c, s = np.cos(phi), np.sin(phi)
    value = (C[i, i] * c**2 + C[K + i, K + i] * s**2
             + (C[i, K + i] + C[K + i, i]) * c * s)
    return float(value.real)


def _read_csv(path: Path) -> list[list[str]]:
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    return rows[1:]                      # drop the column header


def _report(outdir: Path) -> tuple[dict, list[str]]:
    try:
        report = json.loads((outdir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return {}, [f"report.json unreadable: {exc}"]
    errors = [f"report error: {e}" for e in report.get("errors", [])]
    for product in report.get("products", []):
        path = outdir / product["file"]
        if (not path.is_file() or hashlib.sha256(path.read_bytes())
                .hexdigest() != product["sha256"]):
            errors.append(f"{product['file']}: missing or sha256 mismatch")
    return report, errors


def check_state(item, outdir: Path, states: dict,
                build_jq) -> tuple[int, list[str]]:
    """Above-threshold item: the state, its stability and its spectra.

    `states` maps pair l to the state seen at the optimize_quadrature_angle
    boundary; `build_jq` builds its J_q for the oracle.
    """
    pairs = item.scenario["pairs"]
    attempted = 2 + len(pairs)           # solve, stability.csv, one per pair
    report, errors = _report(outdir)
    state = report.get("state") or {}
    got = (state.get("pattern"), state.get("roll_order"))
    want = (item.expect["pattern"], item.expect.get("roll_order", got[1]))
    if got != want:
        errors.append(f"state is {got}, expected {want}")
    if not state.get("residual_norm", np.inf) <= NEWTON_TOL:
        errors.append(f"residual {state.get('residual_norm')} > {NEWTON_TOL}")
    failures = ["solve: " + "; ".join(errors)] if errors else []

    try:
        top = max(float(r[0]) for r in _read_csv(outdir / "stability.csv"))
        if not top <= STABILITY_TOL:
            failures.append(f"stability.csv: max Re lambda/kappa = {top:.3e}")
    except (OSError, ValueError) as exc:
        failures.append(f"stability.csv: {exc}")

    rho = report.get("derived", {}).get("rho", np.nan)
    optima = {p["l"]: p for p in report.get("products", []) if "l" in p}
    for l in pairs:
        why = _check_pair(outdir / f"quadrature_l{l}.csv", l, rho,
                          optima.get(l), states.get(l), build_jq,
                          item.omega_points)
        if why:
            failures.append(f"quadrature_l{l}.csv: {why}")
    return attempted, failures[:attempted]


def _check_pair(path: Path, l: int, rho: float, optimum, state, build_jq,
                omega_points) -> str | None:
    """Why the pair-l spectrum is wrong, or None when it passes."""
    try:
        rows = np.array([[float(x) for x in r] for r in _read_csv(path)])
    except (OSError, ValueError) as exc:
        return str(exc)
    if optimum is None or state is None or rows.ndim != 2:
        return "no optimum in report.json or no state seen"
    w, S = rows[:, 0], rows[:, 1]
    if omega_points is not None and len(w) != omega_points:
        return f"{len(w)} frequencies, expected {omega_points}"
    finite = np.isfinite(S)
    if not np.all(S[finite] >= 1.0 - rho - 1e-9):
        return f"min S = {S[finite].min():.6f} below 1 - rho = {1 - rho:.6f}"
    if not (np.allclose(w, -w[::-1], rtol=0, atol=1e-12)
            and np.allclose(S, S[::-1], rtol=1e-8, atol=1e-10,
                            equal_nan=True)):
        return "S(omega) != S(-omega)"
    J_q = build_jq(state).J_q / state.params.kappa
    for k in (len(w) // 8, len(w) // 2 - 1, (5 * len(w)) // 8):
        oracle = dense_pair_spectrum(J_q, rho, l, optimum["delta_Phi"], w[k])
        if not abs(S[k] - oracle) <= ORACLE_RTOL * max(1.0, abs(oracle)):
            return f"S({w[k]:.4f}) = {S[k]:.12e}, dense oracle {oracle:.12e}"
    return None


def below_digest(item, outdir: Path) -> dict:
    """The reference's view of a below-threshold item's CSVs."""
    out = {}
    for l in item.scenario["modes"]:
        rows = _read_csv(outdir / f"spectrum_l{l}.csv")
        vals = [float(r[1]) for r in rows]
        picks = sorted({round(f * (len(rows) - 1)) for f in REFERENCE_ROWS}
                       | {int(np.argmax(vals))})
        out[f"spectrum_l{l}"] = {str(i): [float(rows[i][0]), vals[i]]
                                 for i in picks}
    for name in ("envelope", "flux_table"):
        rows = {int(r[0]): r for r in _read_csv(outdir / f"{name}.csv")}
        out[name] = {str(l): [float(x) for x in rows[l][1:-1]]
                     for l in REFERENCE_LS if l in rows}
        out[name + "_kinds"] = "".join(rows[l][-1][0] for l in sorted(rows))
    return out


def check_below(item, outdir: Path, reference: dict) -> tuple[int, list[str]]:
    """Below-threshold item: its CSVs against the stored reference."""
    attempted = len(item.scenario["modes"]) + 2
    _, errors = _report(outdir)
    ref = reference.get(item.expect["reference"])
    if ref is None:
        errors.append("no reference for this pump power")
    if errors:
        return attempted, ["; ".join(errors)] * attempted
    try:
        got = below_digest(item, outdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return attempted, [f"unreadable output: {exc!r}"] * attempted
    failures = []
    for key, rows in got.items():
        want = ref.get(key)
        if key.endswith("_kinds"):
            # kinds run over l = -l_max..l_max; a smaller map is the centre
            cut = (len(want) - len(rows)) // 2 if want else 0
            ok = want is not None and want[cut:cut + len(rows)] == rows
        else:
            # rows both hold: the argmax row of a two-peaked line may differ
            common = [r for r in rows if r in (want or {})]
            ok = bool(common) and all(
                np.allclose(rows[r], want[r], rtol=REFERENCE_RTOL, atol=0.0)
                for r in common)
        if not ok:
            failures.append(f"{key} differs from the reference")
    return attempted, failures[:attempted]


def check_audit(item, outdir: Path) -> tuple[int, list[str]]:
    report, errors = _report(outdir)
    K = item.expect["audit_K"]
    products = report.get("products", [])
    count = products[0].get("ordered_count") if len(products) == 1 else None
    if count != expected_total(K):
        errors.append(f"ordered count {count}, expected {expected_total(K)}")
    return 1, ["; ".join(errors)] if errors else []
