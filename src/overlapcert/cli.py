"""Command-line harness: figure-data scans, the measurement pipeline, and
the worked-example checks, all emitting deterministic CSV/JSON.

Every CSV starts with a comment line recording the command's flags, and the
``rm-experiment`` report records its config with the seed, so a rerun with
identical flags is byte-identical; no other command draws a random number.
Exit codes: 0 success, 1 assertion failure in ``examples``, 2 a bad flag or an
unreadable or bad config.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .criteria import (
    _corner_gap_polys,
    _matrix_ratio,
    corner_fbc_psi_boundary,
    fbc_spectrum_bound,
    overlap_ratio_table,
    partner_sup,
    sn_bound_from_ratio,
)
from .multipartite import (
    _lambda_overlaps,
    _lambda_r_op,
    _lambda_value,
    apply_lambda_map,
    multipartite_ipc,
)
from .qmat import _from_json, hs_inner
from .randomized import ProtocolConfig, estimate_overlaps, run_protocol, write_records
from .states import (
    StateSpec,
    build_density,
    ghz_noisy,
    ghz_pure,
    isotropic,
    sn3_unfaithful_state,
)


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path, columns, rows, config) -> None:
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# fig1: detection region for isotropic pairs


def cmd_fig1(d: int, grid: int, r_max: int, out: str) -> int:
    """Scan the overlap ratio of isotropic pairs over the fidelity square."""
    if d < 2 or grid < 2:
        raise ValueError(f"d and grid must be >= 2, not {d}, {grid}")
    r_cap = r_max if r_max >= 1 else d
    xs = np.linspace(1.0 / d**2, 1.0, grid)
    # isotropic(d, x) = (1-x) isotropic(d, 0) + x isotropic(d, 1)
    ends = [isotropic(d, 0.0), isotropic(d, 1.0)]
    weights = np.column_stack([1.0 - xs, xs])
    table = overlap_ratio_table(ends, ends, rho_weights=weights,
                                sigma_weights=weights).tolist()
    rows = []
    for x, s_row in zip(xs, table):
        for y, s in zip(xs, s_row):
            detected = max(0, sn_bound_from_ratio(s) - 1)
            rows.append((float(x), float(y), s, min(detected, r_cap)))
    config = {"command": "fig1", "d": d, "grid": grid, "r_max": r_cap}
    _write_csv(out, ["x", "y", "s_value", "max_r_detected"], rows, config)
    return 0


# ---------------------------------------------------------------------------
# fig3: detection bands and criteria boundaries for the corner family; each
# boundary is a root of a polynomial of degree at most three in x


def _roots_in(coeffs, lo: float, hi: float) -> list[float]:
    """Ascending real roots in [lo, hi] of the polynomial ``coeffs``."""
    roots = np.roots(coeffs)
    real = roots.real[np.abs(roots.imag) <= 1e-12]
    return sorted(float(x) for x in real if lo <= x <= hi)


def _corner_pencil(d: int, x: float) -> tuple[float, ...]:
    """(a11, a12, a22, b11, b22): the overlap ratio of corner_isotropic(d, x)
    against the tilted probe y sum_{i<d-1} |ii> + c |d-1 d-1> is
    u^T A u / u^T B u with u = (sqrt(d-1) y, c) >= 0 and B diagonal (the
    probe is diagonal in the Schmidt basis).  Every entry is affine in x."""
    k = x / d
    return ((1.0 - x) / (d - 1) ** 2 + k * (d - 1), k * math.sqrt(d - 1), k,
            (1.0 - x) / (d - 1) + k, k)


def _pencil_top(a11, a12, a22, b11, b22) -> float:
    """Largest root of det(A - l B) = 0, the maximum of u^T A u / u^T B u.

    Its eigenvector has u2 / u1 = (l b11 - a11) / a12 >= 0, so the
    probe's sign constraint u >= 0 does not bind."""
    p, q = a11 * b22 + a22 * b11, a11 * b22 - a22 * b11
    return (p + math.sqrt(q * q + 4.0 * b11 * b22 * a12 * a12)) / (2.0 * b11 * b22)


def _ratio_boundary(d: int, r: int) -> float | None:
    """Smallest x in [1e-8, 1] at which the probe maximum reaches r (0.0 if
    it does at 1e-8, None if not even at 1): the smallest root of the
    quadratic det(A(x) - r B(x)) at which r is the larger pencil root, i.e.
    at least the mean a11/(2 b11) + a22/(2 b22) of the two."""
    lo, hi = 1e-8, 1.0
    if _pencil_top(*_corner_pencil(d, hi)) < r:
        return None
    if _pencil_top(*_corner_pencil(d, lo)) >= r:
        return 0.0

    def shifted(x):  # the entries m11, m12, m22 of A(x) - r B(x)
        a11, a12, a22, b11, b22 = _corner_pencil(d, x)
        return np.array([a11 - r * b11, a12, a22 - r * b22])

    (m11, m12, m22), (s11, s12, s22) = shifted(0.0), shifted(1.0) - shifted(0.0)
    det = [s11 * s22 - s12 * s12, m11 * s22 + s11 * m22 - 2.0 * m12 * s12,
           m11 * m22 - m12 * m12]
    for x in _roots_in(det, lo, hi):
        a11, _, a22, b11, b22 = _corner_pencil(d, x)
        if 2.0 * r >= a11 / b11 + a22 / b22:
            return x
    raise AssertionError(f"no ratio boundary for d={d}, r={r}")


def _spectrum_boundary(d: int, r: int) -> float:
    """x above which the top eigenvalue of corner_isotropic(d, x) exceeds r/d
    (no rank-r fidelity witness detects below it); 1.0 if it never does.

    ``corner_delta`` is the larger root of l^2 - (m + x) l + m x / d with
    m = (1-x)/(d-1)^2, so it is r/d where x^2 + (r d (d-2) - 1) x + r -
    r^2 (d-1)^2 / d = 0, a quadratic negative at 0 and positive at 1."""
    if r >= d:  # the top eigenvalue is 1 at x = 1
        return 1.0
    return _roots_in([1.0, r * d * (d - 2) - 1.0, r - r * r * (d - 1) ** 2 / d],
                     0.0, 1.0)[0]


def cmd_fig3(d_min: int, d_max: int, r_max: int, out: str) -> int:
    """Emit the (d, r) detection bands (panel a) and per-d criterion
    boundaries (panel b) for the corner-isotropic family, as two CSVs."""
    if not 3 <= d_min <= d_max or r_max < 1:  # the corner family needs d >= 3
        raise ValueError("need 3 <= d_min <= d_max and r_max >= 1, not "
                         f"{d_min}, {d_max}, {r_max}")
    config = {"command": "fig3", "d_min": d_min, "d_max": d_max, "r_max": r_max}
    rows_a = []
    for d in range(d_min, d_max + 1):
        for r in range(1, min(r_max, d - 1) + 1):
            x_lower = _ratio_boundary(d, r)
            if x_lower is not None:
                rows_a.append((d, r, x_lower, _spectrum_boundary(d, r)))
    path_a = out + ".a.csv"
    _write_csv(path_a, ["d", "r", "x_ratio_boundary", "x_unfaithful_boundary"],
               rows_a, config)

    rows_b = []
    for d in range(d_min, d_max + 1):
        # both gaps are negative at x = 0 and positive at x = 1, so each
        # first turns positive at its smallest root between them
        purity_gap, p3_cubic = _corner_gap_polys(d)
        x_p3 = _roots_in(p3_cubic, 1e-12, 1.0)[0]
        x_pc = _roots_in(purity_gap, 1e-12, 1.0)[0]
        rows_b.append((d, 0.0, x_p3, corner_fbc_psi_boundary(d, 1), x_pc))
    path_b = out + ".b.csv"
    _write_csv(path_b,
               ["d", "x_ipc_boundary", "x_p3ppt_boundary", "x_fbc_boundary",
                "x_pc_boundary"],
               rows_b, config)
    return 0


# ---------------------------------------------------------------------------
# rfbc-tightness: witness boundary vs spectrum boundary


def cmd_rfbc_tightness(d_min: int, d_max: int, r_max: int, out: str) -> int:
    """Both detectability boundaries of rank-r fidelity witnesses per (d, r).

    The witness curve is where the particular maximally entangled witness
    starts detecting; the spectrum curve is where detection by any witness
    becomes possible at all.  Emitted only for r <= d.
    """
    if not 3 <= d_min <= d_max or r_max < 1:  # the corner family needs d >= 3
        raise ValueError("need 3 <= d_min <= d_max and r_max >= 1, not "
                         f"{d_min}, {d_max}, {r_max}")
    rows = []
    for d in range(d_min, d_max + 1):
        for r in range(1, min(r_max, d) + 1):
            rows.append((d, r, _spectrum_boundary(d, r), corner_fbc_psi_boundary(d, r)))
    config = {"command": "rfbc-tightness", "d_min": d_min, "d_max": d_max,
              "r_max": r_max}
    _write_csv(out, ["d", "r", "x_spectrum_boundary", "x_witness_boundary"],
               rows, config)
    return 0


# ---------------------------------------------------------------------------
# rm-experiment: full measurement pipeline


@dataclass(frozen=True)
class ExperimentConfig:
    """The ``rm-experiment`` config file: two states and a protocol."""

    rho: StateSpec
    sigma: StateSpec
    protocol: ProtocolConfig


def cmd_rm_experiment(config_path: str, out: str, settings: int | None = None,
                      shots: int | None = None, exact: bool = False,
                      seed: int | None = None) -> int:
    """Build both states, run the protocol, estimate, and certify."""
    try:
        text = Path(config_path).read_text()
    except OSError as err:
        raise ValueError(f"cannot read config {config_path}: {err.strerror}") from err
    cfg = _from_json(ExperimentConfig, json.loads(text),
                     rho=StateSpec.from_json, sigma=StateSpec.from_json,
                     protocol=ProtocolConfig.from_json)
    overrides = {"n_unitaries": settings, "seed": seed,
                 "shots_per_setting": "exact" if exact else shots}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    protocol = ProtocolConfig.from_json({**cfg.protocol.to_json(), **overrides})

    rho = build_density(cfg.rho)
    sigma = build_density(cfg.sigma)
    records = run_protocol(rho, sigma, protocol)
    estimate = estimate_overlaps(records, protocol)

    records_path = out + ".records.jsonl"
    write_records(records_path, protocol, records)

    # ground truth is available because the run is simulated; both states
    # are checked already, and run_protocol checked that A is a prefix of each
    exact_ratio = _matrix_ratio(rho.matrix, sigma.matrix, protocol.d_a, protocol.d_b).s

    # no state of either side's dimension has a larger Schmidt number
    cap = min(protocol.d_a, protocol.d_b)
    bound_point = min(sn_bound_from_ratio(estimate.s), cap) if estimate.reliable else 1
    bound_2se = (min(sn_bound_from_ratio(estimate.s - 2.0 * estimate.se_s), cap)
                 if estimate.reliable else 1)
    report = {
        "rho": cfg.rho.to_json(),
        "sigma": cfg.sigma.to_json(),
        "protocol": protocol.to_json(),
        "estimate": estimate.to_json(),
        "sn_bound_point": bound_point,
        "sn_bound_minus_2se": bound_2se,
        "exact_ratio": exact_ratio,
        "records_path": records_path,
    }
    _write_json(out, report)
    return 0


# ---------------------------------------------------------------------------
# examples: the worked examples with their reference numbers


def _example_isotropic(report: dict, failures: list) -> None:
    checks = []
    for d in (2, 3, 4, 6, 10):
        xs = np.linspace(1.0 / d**2, 1.0, 9)
        ends = [isotropic(d, 0.0), isotropic(d, 1.0)]  # as in cmd_fig1
        table = overlap_ratio_table(ends, ends[1:],
                                    rho_weights=np.column_stack([1.0 - xs, xs]))
        worst = float(np.max(np.abs(table[:, 0] - d * xs)))
        checks.append({"d": d, "max_abs_error": worst, "ok": worst <= 1e-9})
    report["isotropic_pairs"] = checks
    failures.extend(f"isotropic d={c['d']}" for c in checks if not c["ok"])


def _example_sn3(report: dict, failures: list) -> None:
    rho = sn3_unfaithful_state()
    best = partner_sup(rho)
    # the optimal partner is the probe sn3_probe_state(t): sigma_00 = 1/3 + t
    sigma = best.certificate(2).projector()  # it certifies Schmidt number 3
    s_best, t_best = best.sup, abs(sigma.matrix[0, 0]) - 1.0 / 3.0
    unfaithful = fbc_spectrum_bound(rho, 2)
    bound = sn_bound_from_ratio(s_best)
    entry = {
        "peak_ratio": s_best,
        "peak_parameter": t_best,
        "sn_bound": bound,
        "blocked_for_rank2_witnesses": unfaithful,
        "ok": (abs(s_best - 12.0 / 5.0) <= 1e-8 and abs(t_best - 7.0 / 54.0) <= 1e-6
               and unfaithful and bound == 3),
    }
    report["rank2_sn3_state"] = entry
    if not entry["ok"]:
        failures.append("rank2_sn3_state")


def _ghz_threshold(n: int) -> float:
    """Smallest p at which multipartite_ipc's margin for ghz_noisy(n, 2, p)
    against |GHZ><GHZ| reaches 0.  The state and so every overlap is affine
    in p, so the margin is the largest of the affine f(p) = f(0) + p (f(1) -
    f(0)) over cuts and sides, and reaches 0 at the smallest -f(0) / slope
    over the rising ones."""
    sig = ghz_pure(n, 2).projector()
    ends = []
    for p in (0.0, 1.0):
        v = multipartite_ipc(ghz_noisy(n, 2, p), sig)
        ends.append(np.array([v.global_overlap - side for cut in v.cut_table
                              for side in (cut.overlap_kept, cut.overlap_rest)]))
    f0, slope = ends[0], ends[1] - ends[0]
    rising = slope > 0.0
    return float(np.min(-f0[rising] / slope[rising]))


def _example_ghz_thresholds(report: dict, failures: list) -> None:
    checks = []
    for n in (3, 4, 5):
        p_star = _ghz_threshold(n)
        expect = 1.0 / (2 ** (n - 1) + 1)
        checks.append({"n": n, "threshold": p_star, "expected": expect,
                       "ok": abs(p_star - expect) <= 1e-6})
    report["ghz_thresholds"] = checks
    failures.extend(f"ghz n={c['n']}" for c in checks if not c["ok"])


def _example_inversion_map(report: dict, failures: list) -> None:
    # ghz_noisy(3, d, p) is affine in p and the map is linear in it, so the
    # overlaps and explicit inner products at p are the (1 - p, p) mixture
    # of those at p = 0 and p = 1
    rs, worst, level_checks = (1, 2, 3), 0.0, []
    for d in (2, 3, 4):
        sig = ghz_pure(3, d).projector()
        ends = [ghz_noisy(3, d, p) for p in (0.0, 1.0)]
        overlaps = np.array([_lambda_overlaps(rho, sig) for rho in ends])
        explicit = np.array([[hs_inner(apply_lambda_map(rho, r), sig.matrix)
                              for r in rs] for rho in ends])
        for p in (0.2, 0.6, 0.95):
            weights = np.array([1.0 - p, p])
            t, e = (weights @ overlaps).tolist(), (weights @ explicit).tolist()
            worst = max(worst, *(abs(_lambda_value(t, r) - e_r)
                                 for r, e_r in zip(rs, e)))

        # detection levels on a (d, p) grid; the expected r_op follows from
        # the overlap expansion of the map value (affine in p, increasing in r)
        for p in (0.8, 0.9, 0.95, 0.99):
            r_op = _lambda_r_op((np.array([1.0 - p, p]) @ overlaps).tolist())
            boundary = (d + 1) * (p * d * d + (1 - p)) / (
                2 * p * d * d + (1 - p) * d * (d + 1)
            )
            expected = max(0, math.ceil(boundary - 1e-12) - 1)
            level_checks.append({
                "d": d, "p": p, "r_op": r_op, "expected": expected,
                "ok": r_op == expected,
            })
    grid_ok = worst <= 1e-9
    report["inversion_map"] = {
        "closed_vs_explicit_max_error": worst,
        "closed_vs_explicit_ok": grid_ok,
        "levels": level_checks,
    }
    if not grid_ok:
        failures.append("inversion_map closed-vs-explicit")
    failures.extend(
        f"inversion_map d={c['d']} p={c['p']}" for c in level_checks if not c["ok"]
    )


def cmd_examples(out: str) -> int:
    """Run every worked example and compare against its reference numbers."""
    report: dict = {}
    failures: list[str] = []
    _example_isotropic(report, failures)
    _example_sn3(report, failures)
    _example_ghz_thresholds(report, failures)
    _example_inversion_map(report, failures)
    report["failures"] = failures
    report["ok"] = not failures
    _write_json(out, report)
    if failures:
        print("FAILED checks: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # one parser per process: building it costs about 1 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlapcert",
        description="Overlap-ratio certification scans and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser(
        "fig1",
        help="isotropic-pair detection scan",
        description="CSV columns: x, y (fidelities of the two isotropic "
        "states), s_value (overlap ratio), max_r_detected (largest r whose "
        "inequality is violated, capped at --r-max).",
    )
    p1.add_argument("--d", type=int, required=True, help="local dimension")
    p1.add_argument("--grid", type=int, default=20, help="grid points per axis")
    p1.add_argument("--r-max", type=int, default=0,
                    help="cap for the reported detection level (default d)")
    p1.add_argument("--out", required=True, help="output CSV path")

    p3 = sub.add_parser(
        "fig3",
        help="corner-family bands and criterion boundaries",
        description="Writes OUT.a.csv (columns d, r, x_ratio_boundary, "
        "x_unfaithful_boundary: the band where the ratio certifies r+1 while "
        "no rank-r fidelity witness can) and OUT.b.csv (columns d, "
        "x_ipc_boundary, x_p3ppt_boundary, x_fbc_boundary, x_pc_boundary: "
        "smallest x detected by each criterion).  Every boundary is solved "
        "in closed form.",
    )
    p3.add_argument("--d-min", type=int, default=3)
    p3.add_argument("--d-max", type=int, default=10)
    p3.add_argument("--r-max", type=int, default=5)
    p3.add_argument("--out", required=True, help="output path prefix")

    pt = sub.add_parser(
        "rfbc-tightness",
        help="witness vs spectrum boundaries per (d, r)",
        description="CSV columns: d, r, x_spectrum_boundary (below it no "
        "rank-r fidelity witness detects), x_witness_boundary (above it the "
        "maximally entangled witness detects).",
    )
    pt.add_argument("--d-min", type=int, default=3)
    pt.add_argument("--d-max", type=int, default=10)
    pt.add_argument("--r-max", type=int, default=4)
    pt.add_argument("--out", required=True)

    pr = sub.add_parser(
        "rm-experiment",
        help="randomized-measurement pipeline end to end",
        description="Reads a JSON config {rho, sigma, protocol}, simulates "
        "the protocol, writes OUT (JSON report with estimates, standard "
        "errors and certified bounds) and OUT.records.jsonl.",
    )
    pr.add_argument("--config", required=True, help="JSON config path")
    pr.add_argument("--out", required=True, help="output report path")
    pr.add_argument("--settings", type=int, default=None,
                    help="override number of settings")
    pr.add_argument("--shots", type=int, default=None,
                    help="override shots per setting")
    pr.add_argument("--exact", action="store_true",
                    help="force exact outcome probabilities")
    pr.add_argument("--seed", type=int, default=None, help="override seed")

    pe = sub.add_parser(
        "examples",
        help="run the worked examples against their reference values",
        description="Writes a JSON report; exits 1 if any reference number "
        "is missed beyond tolerance.",
    )
    pe.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    run = {
        "fig1": lambda: cmd_fig1(args.d, args.grid, args.r_max, args.out),
        "fig3": lambda: cmd_fig3(args.d_min, args.d_max, args.r_max, args.out),
        "rfbc-tightness": lambda: cmd_rfbc_tightness(
            args.d_min, args.d_max, args.r_max, args.out),
        "rm-experiment": lambda: cmd_rm_experiment(
            args.config, args.out, args.settings, args.shots, args.exact, args.seed),
        "examples": lambda: cmd_examples(args.out),
    }[args.command]
    try:
        return run()
    except ValueError as err:  # what every check of a flag or a config raises
        parser.error(f"{args.command}: {err}")


if __name__ == "__main__":
    sys.exit(main())
