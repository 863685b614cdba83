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
import inspect
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
from .qmat import _from_json, _load_json, hs_inner
from .randomized import ProtocolConfig, estimate_overlaps, run_protocol, write_records
from .states import (
    StateSpec,
    build_density,
    ghz_noisy,
    ghz_pure,
    isotropic,
    sn3_unfaithful_state,
)


def _write_csv(path, columns, rows, config) -> None:
    """Config and header lines, then the rows, each a line the caller joined."""
    lines = ["# config: " + json.dumps(config, sort_keys=True), ",".join(columns), *rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# fig1: detection region for isotropic pairs


def cmd_fig1(d: int, out: str, grid: int = 20, r_max: int = 0) -> int:
    """Isotropic-pair detection scan over the fidelity square.

    Scans the overlap ratio of pairs of isotropic states of local dimension
    --d, --grid points per axis, and writes the CSV --out with columns x, y
    (fidelities of the two isotropic states), s_value (overlap ratio),
    max_r_detected (largest r whose inequality is violated, capped at
    --r-max; 0 caps it at d)."""
    if d < 2 or grid < 2 or r_max < 0:
        raise ValueError(f"d and grid must be >= 2, not {d}, {grid}, and r_max >= 0, not {r_max}")
    r_cap = r_max or d
    xs = np.linspace(1.0 / d**2, 1.0, grid)
    # isotropic(d, x) = (1-x) isotropic(d, 0) + x isotropic(d, 1)
    ends = [isotropic(d, 0.0), isotropic(d, 1.0)]
    weights = np.column_stack([1.0 - xs, xs])
    table = overlap_ratio_table(ends, ends, rho_weights=weights, sigma_weights=weights)
    detected = np.minimum(sn_bound_from_ratio(table) - 1, r_cap)
    coords = [repr(x) for x in xs.tolist()]
    rows = [f"{x},{y},{s!r},{r}"
            for x, s_row, r_row in zip(coords, table.tolist(), detected.tolist())
            for y, s, r in zip(coords, s_row, r_row)]
    config = {"command": "fig1", "d": d, "grid": grid, "r_max": r_cap}
    _write_csv(out, ["x", "y", "s_value", "max_r_detected"], rows, config)
    return 0


# ---------------------------------------------------------------------------
# fig3: detection bands and criteria boundaries for the corner family; each
# boundary is a root of a polynomial of degree at most three in x


def _smallest_roots(polys, lo) -> np.ndarray:
    """Smallest real root in [lo, 1] of each row of ``polys`` (highest power
    first, neither end 0; ``lo`` a scalar or a column): the eigenvalues of
    np.roots' own companion matrices, all in one eigensolve, so each root is
    np.roots' to the last bit."""
    polys = np.asarray(polys, dtype=float)
    companion = np.tile(np.eye(polys.shape[1] - 1, k=-1), (len(polys), 1, 1))
    companion[:, 0] = -polys[:, 1:] / polys[:, :1]
    roots = np.linalg.eigvals(companion)
    inside = (np.abs(roots.imag) <= 1e-12) & (lo <= roots.real) & (roots.real <= 1.0)
    if not inside.any(axis=1).all():
        raise AssertionError("a boundary polynomial has no root in [lo, 1]")
    return np.where(inside, roots.real, np.inf).min(axis=1)


def _corner_pencil(d, x) -> tuple:
    """(a11, a12, a22, b11, b22): the overlap ratio of corner_isotropic(d, x)
    against the tilted probe y sum_{i<d-1} |ii> + c |d-1 d-1> is
    u^T A u / u^T B u with u = (sqrt(d-1) y, c) >= 0 and B diagonal (the probe
    is diagonal in the Schmidt basis).  Each entry is affine in x, d x arrays."""
    k = x / d
    return ((1.0 - x) / (d - 1) ** 2 + k * (d - 1), k * np.sqrt(d - 1), k,
            (1.0 - x) / (d - 1) + k, k)


def _pencil_top(a11, a12, a22, b11, b22):
    """Largest root of det(A - l B) = 0, the maximum of u^T A u / u^T B u.

    Its eigenvector has u2 / u1 = (l b11 - a11) / a12 >= 0, so the
    probe's sign constraint u >= 0 does not bind."""
    p, q = a11 * b22 + a22 * b11, a11 * b22 - a22 * b11
    return (p + np.sqrt(q * q + 4.0 * b11 * b22 * a12 * a12)) / (2.0 * b11 * b22)


def _ratio_boundaries(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per pair, the smallest x in [1e-8, 1] at which the probe maximum reaches
    r < d (0.0 if it does at 1e-8).  m12 = m22 = 0 at x = 0, so det(A(x) - r B(x))
    is x (p0 x + p1) and np.roots' root -p1 / p0 is the boundary if r is there
    the larger pencil root, at least their mean a11/(2 b11) + a22/(2 b22)."""
    lo = 1e-8

    def shifted(x):  # the entries m11, m12, m22 of A(x) - r B(x)
        a11, a12, a22, b11, b22 = _corner_pencil(d, x)
        return np.array([a11 - r * b11, a12, a22 - r * b22])

    (m11, m12, m22), (s11, s12, s22) = shifted(0.0), shifted(1.0) - shifted(0.0)
    x = -(m11 * s22 + s11 * m22 - 2.0 * m12 * s12) / (s11 * s22 - s12 * s12)
    a11, _, a22, b11, b22 = _corner_pencil(d, np.clip(x, lo, 1.0))
    start = _pencil_top(*_corner_pencil(d, lo)) >= r
    found = start | ((lo <= x) & (x <= 1.0) & (2.0 * r >= a11 / b11 + a22 / b22))
    if not found.all():
        i = np.argmin(found)
        raise AssertionError(f"no ratio boundary for d={d[i]}, r={r[i]}")
    return np.where(start, 0.0, x)


def _spectrum_polys(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Quadratics, one row per pair, whose smallest root in [0, 1] is the x
    above which the top eigenvalue of corner_isotropic(d, x) exceeds r/d < 1
    (no rank-r fidelity witness detects below it): ``corner_delta`` is the
    larger root of l^2 - (m + x) l + m x / d with m = (1-x)/(d-1)^2, so it is
    r/d where x^2 + (r d (d-2) - 1) x + r - r^2 (d-1)^2 / d = 0, a quadratic
    negative at 0 and positive at 1."""
    return np.column_stack([np.ones(len(d)), r * d * (d - 2) - 1.0,
                            r - r * r * (d - 1) ** 2 / d])


def _corner_levels(d_min: int, d_max: int, r_max: int, r_over_d: int):
    """Columns d and r of a fig3 or rfbc-tightness table, r <= d + r_over_d;
    refuse a range, as the corner family needs d >= 3."""
    if not 3 <= d_min <= d_max or r_max < 1:
        raise ValueError("need 3 <= d_min <= d_max and r_max >= 1, not "
                         f"{d_min}, {d_max}, {r_max}")
    return np.array([(d, r) for d in range(d_min, d_max + 1)
                     for r in range(1, min(r_max, d + r_over_d) + 1)]).T


def cmd_fig3(out: str, d_min: int = 3, d_max: int = 10, r_max: int = 5) -> int:
    """Corner-family detection bands and criterion boundaries.

    For d in --d-min..--d-max, writes the bands of r up to --r-max and below
    d (panel a) to OUT.a.csv, OUT being --out, columns d, r, x_ratio_boundary,
    x_unfaithful_boundary: where the ratio certifies r+1 while no rank-r
    fidelity witness can; and the criterion boundaries (panel b) to
    OUT.b.csv, columns d, x_ipc_boundary, x_p3ppt_boundary, x_fbc_boundary,
    x_pc_boundary: the smallest x each criterion detects.  The ratio boundary
    is in closed form, the others from one companion eigensolve per degree."""
    d, r = _corner_levels(d_min, d_max, r_max, -1)
    config = {"command": "fig3", "d_min": d_min, "d_max": d_max, "r_max": r_max}
    # panel b's gaps are < 0 at x = 0 and > 0 at x = 1: each turns positive at its least root
    ds = range(d_min, d_max + 1)
    purity_gaps, p3_cubics = zip(*map(_corner_gap_polys, ds))
    lo = np.repeat([0.0, 1e-12], [len(d), len(ds)])[:, None]
    roots = _smallest_roots(np.vstack([_spectrum_polys(d, r), purity_gaps]), lo)
    rows_a = [f"{d},{r},{x!r},{y!r}" for d, r, x, y in
              zip(d.tolist(), r.tolist(), _ratio_boundaries(d, r).tolist(), roots.tolist())]
    _write_csv(out + ".a.csv", ["d", "r", "x_ratio_boundary", "x_unfaithful_boundary"],
               rows_a, config)
    rows_b = [f"{k},0.0,{x_p3!r},{corner_fbc_psi_boundary(k, 1)!r},{x_pc!r}" for k, x_p3, x_pc
              in zip(ds, _smallest_roots(p3_cubics, 1e-12).tolist(), roots[len(d):].tolist())]
    _write_csv(out + ".b.csv", ["d", "x_ipc_boundary", "x_p3ppt_boundary",
                                "x_fbc_boundary", "x_pc_boundary"], rows_b, config)
    return 0


# ---------------------------------------------------------------------------
# rfbc-tightness: witness boundary vs spectrum boundary


def cmd_rfbc_tightness(out: str, d_min: int = 3, d_max: int = 10, r_max: int = 4) -> int:
    """Witness vs spectrum boundaries of rank-r fidelity witnesses per (d, r).

    For the corner family at d in --d-min..--d-max and r up to --r-max and
    d, writes the CSV --out with columns d, r, x_spectrum_boundary (below
    it no rank-r fidelity witness detects), x_witness_boundary (above it
    the maximally entangled witness detects)."""
    d, r = _corner_levels(d_min, d_max, r_max, 0)
    x_spectrum = np.ones(len(d))  # at r = d, the top eigenvalue 1 at x = 1
    x_spectrum[r < d] = _smallest_roots(_spectrum_polys(d[r < d], r[r < d]), 0.0)
    rows = [f"{d},{r},{x!r},{corner_fbc_psi_boundary(d, r)!r}"
            for d, r, x in zip(d.tolist(), r.tolist(), x_spectrum.tolist())]
    config = {"command": "rfbc-tightness", "d_min": d_min, "d_max": d_max, "r_max": r_max}
    _write_csv(out, ["d", "r", "x_spectrum_boundary", "x_witness_boundary"], rows, config)
    return 0


# ---------------------------------------------------------------------------
# rm-experiment: full measurement pipeline


@dataclass(frozen=True)
class ExperimentConfig:
    """The ``rm-experiment`` config file: two states and a protocol."""

    rho: StateSpec
    sigma: StateSpec
    protocol: ProtocolConfig


def cmd_rm_experiment(config: str, out: str, settings: int | None = None,
                      shots: int | str | None = None, seed: int | None = None) -> int:
    """Randomized-measurement pipeline end to end.

    Reads the JSON config --config, {rho, sigma, protocol}, builds both
    states, simulates the protocol, estimates and certifies.  Writes --out
    (a JSON report with estimates, standard errors and certified bounds)
    and OUT.records.jsonl.  --settings, --shots (a count N or "exact", as in
    the config) and --seed, when given, override the protocol's
    n_unitaries, shots_per_setting and seed."""
    try:
        text = Path(config).read_text()
    except OSError as err:
        raise ValueError(f"cannot read config {config}: {err.strerror}") from err
    cfg = _from_json(ExperimentConfig, _load_json(text, f"config {config}"),
                     "ExperimentConfig", rho=StateSpec.from_json,
                     sigma=StateSpec.from_json, protocol=ProtocolConfig.from_json)
    overrides = {"n_unitaries": settings, "shots_per_setting": shots, "seed": seed}
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
    bound_point = min(sn_bound_from_ratio(estimate.s), cap)  # 1 if unreliable: s = se_s = 0
    bound_2se = min(sn_bound_from_ratio(estimate.s - 2.0 * estimate.se_s), cap)
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
    """Run the worked examples against their reference values.

    Writes the JSON report --out; exits 1 if any reference number is missed
    beyond tolerance."""
    report: dict = {}
    failures: list[str] = []
    for example in (_example_isotropic, _example_sn3, _example_ghz_thresholds,
                    _example_inversion_map):
        example(report, failures)
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
    """One subcommand per ``cmd_*`` function (``cmd_rm_experiment`` is
    ``rm-experiment``), described by its docstring, and one string flag per
    parameter (``r_max`` is ``--r-max``), required when it has no default;
    :func:`main` reads each as its JSON key would be read."""
    parser = argparse.ArgumentParser(
        prog="overlapcert", description="Overlap-ratio certification scans and experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [(n, f) for n, f in globals().items() if n.startswith("cmd_")]:
        doc = inspect.getdoc(fn)
        cmd = sub.add_parser(name[4:].replace("_", "-"), help=doc.partition("\n")[0],
                             description=doc,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
        for p in inspect.signature(fn).parameters.values():
            default = None if p.default is p.empty else p.default
            cmd.add_argument("--" + p.name.replace("_", "-"), required=p.default is p.empty,
                             default=default,
                             help=None if default is None else f"default {default}")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    # looked up when called, so a wrapper set in a command's place (a tracer's, say) runs
    run = globals()["cmd_" + command.replace("-", "_")]
    try:  # a number follows JSON's grammar: "+1_0" is no int, as it is none in a config
        return _from_json(run, {k: v for k, v in args.items() if v is not None}, "flags")
    except ValueError as err:  # what every check of a flag or a config raises
        parser.error(f"{command}: {err}")
    except OSError as err:  # an output file that cannot be written
        parser.error(f"{command}: cannot write {err.filename}: {err.strerror}")


if __name__ == "__main__":
    sys.exit(main())
