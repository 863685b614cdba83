"""CLI commands: output schemas, reference values, reproducibility."""

import argparse
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from overlapcert import (
    apply_lambda_map,
    corner_delta,
    corner_fbc_psi_boundary,
    corner_isotropic,
    corner_isotropic_closed_forms,
    ghz_noisy,
    ghz_pure,
    hs_inner,
    lambda_map_verdict,
    multipartite_ipc,
    overlap_ratio,
    p3_ppt_check,
    purity_check,
    sn_bound_from_ratio,
    tilted_entangled,
)
from overlapcert import StateSpec, build_density, cli, randomized
from overlapcert.criteria import _corner_gap_polys
from overlapcert.cli import (
    _corner_pencil,
    _ghz_threshold,
    _pencil_top,
    cmd_fig1,
    cmd_rm_experiment,
    main,
)
from search import bisect_root, golden_section_max


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    columns = lines[1].split(",")
    rows = [
        dict(zip(columns, (float(v) for v in line.split(","))))
        for line in lines[2:]
    ]
    return config, columns, rows


# ---------------------------------------------------------------------------
# fig1


def test_fig1_values_and_symmetry(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--d", "4", "--grid", "6", "--out", str(out)]) == 0
    config, columns, rows = read_csv(out)
    assert columns == ["x", "y", "s_value", "max_r_detected"]
    assert config == {"command": "fig1", "d": 4, "grid": 6, "r_max": 4}
    table = {(r["x"], r["y"]): r["s_value"] for r in rows}
    for (x, y), s in table.items():
        if y == 1.0:
            assert abs(s - 4 * x) < 1e-9
        assert abs(s - table[(y, x)]) < 1e-12
    # grid spans [1/d^2, 1]
    xs = sorted({r["x"] for r in rows})
    assert abs(xs[0] - 1 / 16) < 1e-12 and xs[-1] == 1.0


def test_fig1_diagonal_is_self_ratio(tmp_path):
    from overlapcert import ipc_bound, isotropic

    out = tmp_path / "fig1.csv"
    main(["fig1", "--d", "3", "--grid", "5", "--out", str(out)])
    _, _, rows = read_csv(out)
    for r in rows:
        if r["x"] == r["y"]:
            rho = isotropic(3, r["x"])
            assert abs(r["s_value"] - ipc_bound(rho, rho).values["s"]) < 1e-9


def test_fig1_rerun_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["fig1", "--d", "3", "--grid", "7", "--out", str(a)])
    main(["fig1", "--d", "3", "--grid", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("r_max", [0, 2])
def test_fig1_rows_follow_the_bound_rule(tmp_path, r_max):
    # the whole table is bounded at once; every row must still follow the
    # scalar rule of sn_bound_from_ratio, capped at r_max (0 caps at d)
    d, grid = 4, 9
    out = tmp_path / "fig1.csv"
    cmd_fig1(d, str(out), grid=grid, r_max=r_max)
    lines = [line.split(",") for line in out.read_text().splitlines()[2:]]
    r_cap = r_max or d
    assert len(lines) == grid * grid
    for _, _, s, r in lines:
        assert int(r) == min(max(0, sn_bound_from_ratio(float(s)) - 1), r_cap)
    # a ratio of exactly r certifies r: the corner x = y = 1 has s = d
    assert lines[-1][:3] == ["1.0", "1.0", repr(float(d))]
    assert int(lines[-1][3]) == min(d - 1, r_cap)
    coords = [repr(x) for x in np.linspace(1.0 / d**2, 1.0, grid).tolist()]
    assert [(x, y) for x, y, _, _ in lines] == [(x, y) for x in coords for y in coords]


def test_fig1_allocates_little_beyond_its_states(tmp_path):
    out = str(tmp_path / "fig1.csv")
    cmd_fig1(10, out, grid=40)  # first call: imports and caches stay out of the count
    tracemalloc.start()
    try:
        cmd_fig1(10, out, grid=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # fig1 builds two 100 x 100 endpoint states, not one state per grid
    # point (40 of them would take 6.1 MiB)
    assert peak <= 2 * 2**20


# ---------------------------------------------------------------------------
# fig3


@pytest.fixture(scope="module")
def fig3_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fig3") / "scan"
    assert main([
        "fig3", "--d-min", "3", "--d-max", "6", "--r-max", "3",
        "--out", str(base),
    ]) == 0
    return base.parent / "scan.a.csv", base.parent / "scan.b.csv"


def test_fig3_band_structure(fig3_files):
    path_a, _ = fig3_files
    _, columns, rows = read_csv(path_a)
    assert columns == ["d", "r", "x_ratio_boundary", "x_unfaithful_boundary"]
    for row in rows:
        # nonempty band: ratio detection starts before witness detection
        # becomes possible at all
        assert row["x_ratio_boundary"] <= row["x_unfaithful_boundary"] + 1e-9
    # boundaries move up with r at fixed d
    for d in (3, 4, 5, 6):
        cols = [r for r in rows if r["d"] == d]
        lows = [r["x_ratio_boundary"] for r in sorted(cols, key=lambda r: r["r"])]
        assert lows == sorted(lows)


def test_fig3_ratio_boundary_at_level_one_is_zero(fig3_files):
    path_a, _ = fig3_files
    _, _, rows = read_csv(path_a)
    for row in rows:
        if row["r"] == 1:
            assert row["x_ratio_boundary"] == 0.0


def test_fig3_criterion_boundaries(fig3_files):
    _, path_b = fig3_files
    _, columns, rows = read_csv(path_b)
    assert columns == [
        "d", "x_ipc_boundary", "x_p3ppt_boundary", "x_fbc_boundary",
        "x_pc_boundary",
    ]
    for row in rows:
        d = int(row["d"])
        assert row["x_ipc_boundary"] == 0.0
        assert abs(row["x_fbc_boundary"] - (d - 2) / (d * d - d - 1)) < 1e-12
        # direct numeric criteria flip sign across the reported roots
        for key, check in (("x_p3ppt_boundary", p3_ppt_check),
                           ("x_pc_boundary", purity_check)):
            x0 = row[key]
            assert not check(corner_isotropic(d, x0 - 1e-4)).detected
            assert check(corner_isotropic(d, x0 + 1e-4)).detected


def _probe_ratio(d, x, y):
    """Overlap ratio of corner_isotropic(d, x) against tilted_entangled(d, y),
    written out in y (vectorized over y)."""
    c2 = np.maximum(0.0, 1.0 - (d - 1) * y * y)
    amp = (d - 1) * y + np.sqrt(c2)
    g = (1.0 - x) / (d - 1) * y * y + x / d * amp * amp
    local = ((1.0 - x) / (d - 1) + x / d) * (d - 1) * y * y + x / d * c2
    return g / local


def test_probe_ratio_formula_matches_the_states():
    for d, x, y in ((3, 0.3, 0.5), (5, 0.05, 0.4), (7, 0.8, 0.2)):
        exact = overlap_ratio(corner_isotropic(d, x),
                              tilted_entangled(d, y).projector()).s
        assert abs(_probe_ratio(d, x, y) - exact) <= 1e-12 * exact


def test_pencil_top_is_the_probe_maximum():
    # a dense scan of the ratio over the probe family, refined by golden section
    for d in range(3, 11):
        ys = np.linspace(0.0, 1.0 / math.sqrt(d - 1), 2001)
        for x in np.geomspace(1e-3, 1.0, 50):
            k = int(np.argmax(_probe_ratio(d, x, ys)))
            _, best = golden_section_max(lambda y: float(_probe_ratio(d, x, y)),
                                         ys[max(k - 1, 0)], ys[min(k + 1, 2000)])
            top = _pencil_top(*_corner_pencil(d, x))
            assert abs(top - best) <= 1e-12 * best


def test_probe_maximum_at_full_mixing_is_d():
    # at x = 1 the pencil gives (d + sqrt(d^2)) / 2 = d, so every level
    # r <= d - 1 that fig3 asks for has a ratio boundary in (0, 1]
    for d in range(3, 2001):
        top = _pencil_top(*_corner_pencil(d, 1.0))
        assert abs(top - d) <= 1e-12 * d
        assert top >= d - 1 + 0.9999


def test_fig3_boundaries_are_roots(tmp_path):
    base = tmp_path / "scan"
    assert main(["fig3", "--d-min", "3", "--d-max", "10", "--r-max", "5",
                 "--out", str(base)]) == 0
    _, _, rows_a = read_csv(tmp_path / "scan.a.csv")
    assert len(rows_a) == 34
    for row in rows_a:
        d, r, x = int(row["d"]), row["r"], row["x_ratio_boundary"]
        if x == 0.0:
            assert _pencil_top(*_corner_pencil(d, 1e-8)) >= r
        else:
            assert abs(_pencil_top(*_corner_pencil(d, x)) - r) <= 1e-10
            assert _pencil_top(*_corner_pencil(d, x - 1e-6)) < r
        assert abs(corner_delta(d, row["x_unfaithful_boundary"]) - r / d) <= 1e-12
    _, _, rows_b = read_csv(tmp_path / "scan.b.csv")

    def gaps(d, x):
        f = corner_isotropic_closed_forms(d, x)
        return {"x_p3ppt_boundary": f["p2sq_minus_p3"],
                "x_pc_boundary": f["purity_global"] - f["purity_local"]}

    # the closed-form gaps change sign within the old bisection tolerance
    for row in rows_b:
        for key in ("x_p3ppt_boundary", "x_pc_boundary"):
            assert gaps(int(row["d"]), row[key] - 1e-10)[key] < 0.0
            assert gaps(int(row["d"]), row[key] + 1e-10)[key] > 0.0


# the per-boundary path the commands took before their boundaries became array
# programs: np.roots on one polynomial at a time, the oracle for the test below


def _roots_in(coeffs, lo: float, hi: float) -> list[float]:
    roots = np.roots(coeffs)
    real = roots.real[np.abs(roots.imag) <= 1e-12]
    return sorted(float(x) for x in real if lo <= x <= hi)


def _ratio_boundary(d: int, r: int) -> float:
    lo, hi = 1e-8, 1.0
    if _pencil_top(*_corner_pencil(d, lo)) >= r:
        return 0.0

    def shifted(x):
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
    if r >= d:
        return 1.0
    return _roots_in([1.0, r * d * (d - 2) - 1.0, r - r * r * (d - 1) ** 2 / d],
                     0.0, 1.0)[0]


def _hex_rows(path):
    return [[float(v).hex() for v in line.split(",")]
            for line in path.read_text().splitlines()[2:]]


def test_corner_boundaries_match_one_root_call_per_boundary_bit_for_bit(tmp_path):
    # every fig3 and rfbc-tightness boundary for d = 3..60 and every r the
    # commands emit, against np.roots on each polynomial alone, by float.hex
    assert main(["fig3", "--d-min", "3", "--d-max", "60", "--r-max", "59",
                 "--out", str(tmp_path / "fig3")]) == 0
    assert main(["rfbc-tightness", "--d-min", "3", "--d-max", "60", "--r-max", "60",
                 "--out", str(tmp_path / "rfbc.csv")]) == 0
    expect_a, expect_b, expect_rfbc = [], [], []
    for d in range(3, 61):
        purity_gap, p3_cubic = _corner_gap_polys(d)
        expect_b.append([d, 0.0, _roots_in(p3_cubic, 1e-12, 1.0)[0],
                         corner_fbc_psi_boundary(d, 1), _roots_in(purity_gap, 1e-12, 1.0)[0]])
        for r in range(1, d + 1):
            spectrum = _spectrum_boundary(d, r)
            if r < d:
                expect_a.append([d, r, _ratio_boundary(d, r), spectrum])
            expect_rfbc.append([d, r, spectrum, corner_fbc_psi_boundary(d, r)])
    for name, expect in (("fig3.a.csv", expect_a), ("fig3.b.csv", expect_b),
                         ("rfbc.csv", expect_rfbc)):
        assert _hex_rows(tmp_path / name) == [[float(v).hex() for v in row] for row in expect]
    assert len(expect_a) == 1769 and len(expect_rfbc) == 1827


def test_ratio_determinant_has_no_constant_term():
    # m12 and m22 of A(0) - r B(0) are exactly 0, so det(A(x) - r B(x)) is
    # x (p0 x + p1) and its one nonzero root is -p1 / p0
    d, r = np.array([(d, r) for d in range(3, 201) for r in range(1, d)]).T
    a11, a12, a22, b11, b22 = _corner_pencil(d, 0.0)
    assert np.all(a12 == 0.0) and np.all(a22 - r * b22 == 0.0)


def test_corner_commands_make_one_eigensolve_per_degree(tmp_path, monkeypatch):
    degrees = []
    eigvals = np.linalg.eigvals

    def counted(a):
        degrees.append(a.shape[-1])
        return eigvals(a)

    def refused(p):
        raise AssertionError("np.roots called")

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    monkeypatch.setattr(np, "roots", refused)
    assert main(["fig3", "--out", str(tmp_path / "fig3")]) == 0
    assert sorted(degrees) == [2, 3]
    degrees.clear()
    assert main(["rfbc-tightness", "--out", str(tmp_path / "rfbc.csv")]) == 0
    assert degrees == [2]


# ---------------------------------------------------------------------------
# rfbc-tightness


def test_rfbc_tightness_ordering(tmp_path):
    out = tmp_path / "rfbc.csv"
    assert main([
        "rfbc-tightness", "--d-min", "3", "--d-max", "7", "--r-max", "3",
        "--out", str(out),
    ]) == 0
    _, columns, rows = read_csv(out)
    assert columns == ["d", "r", "x_spectrum_boundary", "x_witness_boundary"]
    for row in rows:
        d, r = int(row["d"]), int(row["r"])
        if r == 1:
            assert abs(row["x_witness_boundary"] - (d - 2) / (d * d - d - 1)) < 1e-12
        # necessary condition sits below the sufficient one
        assert row["x_spectrum_boundary"] <= row["x_witness_boundary"] + 1e-8
    for d in (3, 4, 5, 6, 7):
        sub = sorted((r for r in rows if r["d"] == d), key=lambda r: r["r"])
        for a, b in zip(sub, sub[1:]):
            assert a["x_spectrum_boundary"] <= b["x_spectrum_boundary"] + 1e-12
            assert a["x_witness_boundary"] <= b["x_witness_boundary"] + 1e-12


# ---------------------------------------------------------------------------
# rm-experiment


def write_rm_config(path, x=0.9, settings=300, shots="exact", seed=5):
    cfg = {
        "rho": {"family": "isotropic", "params": {"d": 4, "x": x}},
        "sigma": {"family": "isotropic", "params": {"d": 4, "x": 1.0}},
        "protocol": {
            "local_dim": 2, "m": 2, "n": 2, "n_unitaries": settings,
            "shots_per_setting": shots, "seed": seed, "design": "haar",
        },
    }
    path.write_text(json.dumps(cfg))


def test_rm_experiment_report(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_rm_config(cfg_path, settings=1000)
    out = tmp_path / "report.json"
    assert main(["rm-experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["exact_ratio"] - 3.6) < 1e-9
    est = report["estimate"]
    assert abs(est["s"] - 3.6) <= 4 * est["se_s"]
    # at this precision the conservative certificate reaches the true bound
    assert est["s"] - 2 * est["se_s"] > 3
    assert report["sn_bound_minus_2se"] == 4
    assert report["sn_bound_point"] >= report["sn_bound_minus_2se"]
    records = (tmp_path / "report.json.records.jsonl").read_text().splitlines()
    assert len(records) == 1001  # header line plus one per setting


def test_rm_experiment_product_pair_certifies_nothing(tmp_path):
    cfg = {
        "rho": {"family": "theta", "params": {"d": 2, "y": 0.0}},
        "sigma": {"family": "theta", "params": {"d": 2, "y": 0.0}},
        "protocol": {
            "local_dim": 2, "m": 1, "n": 1, "n_unitaries": 400,
            "shots_per_setting": "exact", "seed": 3, "design": "haar",
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["rm-experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["sn_bound_minus_2se"] == 1


def test_rm_experiment_unreliable_estimate_bounds_nothing(tmp_path, monkeypatch):
    # no side clears an infinite guard, so s = se_s = 0, and both bounds are 1
    monkeypatch.setattr(randomized, "SNR_GUARD", math.inf)
    cfg_path = tmp_path / "cfg.json"
    write_rm_config(cfg_path, settings=20)
    out = tmp_path / "report.json"
    assert main(["rm-experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert not report["estimate"]["reliable"]
    assert (report["estimate"]["s"], report["estimate"]["se_s"]) == (0.0, 0.0)
    assert report["sn_bound_point"] == report["sn_bound_minus_2se"] == 1


def test_rm_experiment_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_rm_config(cfg_path, settings=60, shots=32)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["rm-experiment", "--config", str(cfg_path), "--out", str(out1)])
    main(["rm-experiment", "--config", str(cfg_path), "--out", str(out2)])
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1.pop("records_path")
    r2.pop("records_path")
    assert r1 == r2
    rec1 = (tmp_path / "r1.json.records.jsonl").read_text().splitlines()
    rec2 = (tmp_path / "r2.json.records.jsonl").read_text().splitlines()
    assert rec1[1:] == rec2[1:]


def test_rm_experiment_bounds_capped_at_local_dimension(tmp_path):
    # s overshoots at this sample size (s ~ 8.5 against an exact 7.2);
    # no 8 x 8 state has Schmidt number 9
    cfg = {
        "rho": {"family": "isotropic", "params": {"d": 8, "x": 0.9}},
        "sigma": {"family": "isotropic", "params": {"d": 8, "x": 1.0}},
        "protocol": {
            "local_dim": 2, "m": 3, "n": 3, "n_unitaries": 300,
            "shots_per_setting": 1000, "seed": 0, "design": "haar",
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["rm-experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["estimate"]["s"] > 8
    assert report["sn_bound_point"] == 8
    assert report["sn_bound_minus_2se"] <= 8


def test_rm_experiment_flag_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_rm_config(cfg_path, settings=50, shots=16)
    out = tmp_path / "report.json"
    main([
        "rm-experiment", "--config", str(cfg_path), "--out", str(out),
        "--shots", "24", "--settings", "80", "--seed", "11",
    ])
    report = json.loads(out.read_text())
    assert report["protocol"]["shots_per_setting"] == 24
    assert report["protocol"]["n_unitaries"] == 80
    assert report["protocol"]["seed"] == 11


# ---------------------------------------------------------------------------
# examples


def test_ghz_threshold_matches_bisection():
    for n in (3, 4, 5):
        sig = ghz_pure(n, 2).projector()

        def margin(p):
            v = multipartite_ipc(ghz_noisy(n, 2, p), sig)
            return v.global_overlap - v.min_value

        oracle = bisect_root(margin, 1e-6, 0.999, tol=1e-11)
        assert abs(_ghz_threshold(n) - oracle) <= 1e-9


def test_inversion_map_example_matches_the_per_point_evaluation():
    # the example mixes the overlaps of p = 0 and p = 1; the reference builds
    # the state at every point, as the example did before
    report, failures = {}, []
    cli._example_inversion_map(report, failures)
    assert failures == []
    levels, worst = [], 0.0
    for d in (2, 3, 4):
        sig = ghz_pure(3, d).projector()
        for p in (0.2, 0.6, 0.95):
            rho = ghz_noisy(3, d, p)
            for r in (1, 2, 3):
                explicit = hs_inner(apply_lambda_map(rho, r), sig.matrix)
                worst = max(worst, abs(lambda_map_verdict(rho, sig, r).value - explicit))
        for p in (0.8, 0.9, 0.95, 0.99):
            levels.append((d, p, lambda_map_verdict(ghz_noisy(3, d, p), sig, 1).r_op))
    got = report["inversion_map"]
    assert [(c["d"], c["p"], c["r_op"]) for c in got["levels"]] == levels
    assert abs(got["closed_vs_explicit_max_error"] - worst) <= 1e-12


def test_examples_report_all_green(tmp_path):
    out = tmp_path / "examples.json"
    assert main(["examples", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["failures"] == []
    assert abs(report["rank2_sn3_state"]["peak_ratio"] - 2.4) < 1e-8
    assert report["inversion_map"]["closed_vs_explicit_ok"] is True


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["fig1", "--grid", "5", "--out", "x.csv"])
    assert err.value.code == 2


# Each command's flags, as (default, required): the parser takes them from
# the cmd_* signatures, so an edit there that changes the command line shows
# here.  Every flag is a string, read as its parameter's JSON key would be.
_FLAGS = {
    "fig1": {"--d": (None, True), "--out": (None, True),
             "--grid": (20, False), "--r-max": (0, False)},
    "fig3": {"--out": (None, True), "--d-min": (3, False),
             "--d-max": (10, False), "--r-max": (5, False)},
    "rfbc-tightness": {"--out": (None, True), "--d-min": (3, False),
                       "--d-max": (10, False), "--r-max": (4, False)},
    "rm-experiment": {"--config": (None, True), "--out": (None, True),
                      "--settings": (None, False), "--shots": (None, False),
                      "--seed": (None, False)},
    "examples": {"--out": (None, True)},
}


def _subcommands():
    return next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_command_flags():
    commands = _subcommands()
    assert list(commands) == list(_FLAGS)
    for name, expected in _FLAGS.items():
        flags = [a for a in commands[name]._actions if a.dest != "help"]
        assert {a.option_strings[0]: (a.default, a.required) for a in flags} == expected
        assert all(a.type is None for a in flags)


@pytest.mark.parametrize("name,flags", [
    ("fig1", ["--d", "2", "--grid", "2"]),
    ("fig3", ["--d-max", "3", "--r-max", "1"]),
    ("rfbc-tightness", ["--d-max", "3", "--r-max", "1"]),
])
def test_help_names_each_csv_column(tmp_path, name, flags):
    assert main([name, *flags, "--out", str(tmp_path / "out")]) == 0
    help_text = _subcommands()[name].format_help()
    for csv in tmp_path.iterdir():
        for column in csv.read_text().splitlines()[1].split(","):
            assert re.search(rf"\b{column}\b", help_text), (csv.name, column)


def test_main_reuses_one_parser_as_a_fresh_one_would_parse(tmp_path, capsys):
    # main builds its parser once per process; calls with other commands and
    # a bad flag in between parse and fail as a fresh parser does
    argvs = [["fig1", "--d", "3", "--grid", "5", "--out", str(tmp_path / "a.csv")],
             ["rfbc-tightness", "--d-min", "3", "--d-max", "4", "--r-max", "2",
              "--out", str(tmp_path / "b.csv")],
             ["fig1", "--d", "3", "--grid", "5", "--out", str(tmp_path / "c.csv")]]
    bad = ["fig3", "--d-min", "3", "--no-such-flag", "--out", str(tmp_path / "d")]
    assert main(argvs[0]) == 0 and main(argvs[1]) == 0
    with pytest.raises(SystemExit) as err:
        main(bad)
    assert err.value.code == 2 and cli._build_parser() is cli._build_parser()
    assert main(argvs[2]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
    cached_err = capsys.readouterr().err
    fresh = cli._build_parser.__wrapped__()
    for argv in argvs:
        assert cli._build_parser().parse_args(argv) == fresh.parse_args(argv)
    with pytest.raises(SystemExit) as err:
        fresh.parse_args(bad)
    assert err.value.code == 2 and capsys.readouterr().err == cached_err


@pytest.mark.parametrize("argv,message", [
    (["fig1", "--d", "1"], "d and grid must be >= 2, not 1, 20"),
    (["fig1", "--d", "3", "--grid", "1"], "d and grid must be >= 2, not 3, 1"),
    (["fig3", "--d-min", "2"], "not 2, 10, 5"),
    (["rfbc-tightness", "--d-min", "2"], "not 2, 10, 4"),
    (["fig3", "--d-min", "5", "--d-max", "3"], "not 5, 3, 5"),
    (["rfbc-tightness", "--d-min", "5", "--d-max", "3"], "not 5, 3, 4"),
    (["fig3", "--r-max", "0"], "d_min <= d_max and r_max >= 1, not 3, 10, 0"),
    (["rfbc-tightness", "--r-max", "0"], "not 3, 10, 0"),
])
def test_bad_flag_values_exit_2_and_write_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(out)])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert f"error: {argv[0]}: " in err_text and message in err_text
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,key,text", [
    (["fig1", "--d", "+1_0", "--grid", "3"], "d", "+1_0"),
    (["fig1", "--d", "10", "--grid", "\u0663"], "grid", "\u0663"),
    (["rm-experiment", "--config", "cfg.json", "--settings", " 1_2 "], "settings", " 1_2 "),
], ids=["plus-underscore", "arabic-digit", "spaces-underscore"])
def test_number_flags_follow_the_json_grammar(tmp_path, capsys, monkeypatch, argv, key, text):
    # int() reads all three; a JSON config refuses them, and so does the command line
    monkeypatch.chdir(tmp_path)
    write_rm_config(tmp_path / "cfg.json", settings=4, shots=8)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(out)])
    assert err.value.code == 2
    assert f"error: {argv[0]}: flags: {key} must be an integer, not {text!r}" in (
        capsys.readouterr().err)
    assert not out.exists()
    assert main(["fig1", "--d", "10", "--grid", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0][len("# config: "):])["d"] == 10


def test_fig1_negative_r_max_exits_2(tmp_path, capsys):
    # a negative cap used to run and write r_max = d into the CSV's config
    # comment, as 0 does
    out = tmp_path / "fig1.csv"
    with pytest.raises(SystemExit) as err:
        main(["fig1", "--d", "3", "--grid", "3", "--r-max", "-4", "--out", str(out)])
    assert err.value.code == 2
    assert "error: fig1: " in (text := capsys.readouterr().err) and "r_max >= 0, not -4" in text
    assert list(tmp_path.iterdir()) == []
    assert main(["fig1", "--d", "3", "--grid", "3", "--r-max", "0", "--out", str(out)]) == 0
    assert '"r_max": 3' in out.read_text().splitlines()[0]


def test_rm_experiment_shots_flag_is_a_count_or_exact(tmp_path, capsys):
    # --shots takes the config's own spelling, read by the config's parser
    cfg_path = tmp_path / "cfg.json"
    write_rm_config(cfg_path, settings=4, shots=8)
    out = tmp_path / "report.json"
    argv = ["rm-experiment", "--config", str(cfg_path), "--out", str(out), "--shots"]
    for bad in ("0", "1.5", "abc"):
        with pytest.raises(SystemExit) as err:
            main(argv + [bad])
        assert err.value.code == 2
        text = capsys.readouterr().err
        assert "error: rm-experiment: " in text and "shots_per_setting" in text
        assert list(tmp_path.iterdir()) == [cfg_path]
    assert main(argv + ["exact"]) == 0
    assert json.loads(out.read_text())["protocol"]["shots_per_setting"] == "exact"


@pytest.mark.parametrize("edit,message", [
    (lambda c: c.update(protcol=c.pop("protocol")),
     r"ExperimentConfig: unknown keys \['protcol'\]; allowed keys are "
     r"\['rho', 'sigma', 'protocol'\]"),
    (lambda c: c.update(notes="run 3"), r"unknown keys \['notes'\]"),
    (lambda c: c.pop("sigma"), r"ExperimentConfig: missing keys \['sigma'\]"),
    (lambda c: c["protocol"].update(n_unitaries=2.5),
     "ProtocolConfig: n_unitaries must be an integer, not 2.5"),
    (lambda c: c["protocol"].update(seed=-1), "seed must be >= 0"),
    (lambda c: c["rho"]["params"].update(d=4.7), "StateSpec isotropic: d must be"),
    (lambda c: c["rho"]["params"].update(y=3),
     r"StateSpec isotropic: unknown keys \['y'\]; allowed keys are \['d', 'x'\]"),
    (lambda c: c["sigma"]["params"].pop("x"), r"StateSpec isotropic: missing keys \['x'\]"),
])
def test_rm_experiment_config_checked_at_the_boundary(tmp_path, capsys, edit, message):
    cfg_path = tmp_path / "cfg.json"
    write_rm_config(cfg_path)
    cfg = json.loads(cfg_path.read_text())
    edit(cfg)
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    with pytest.raises(ValueError, match=message):
        cmd_rm_experiment(str(cfg_path), str(out))
    with pytest.raises(SystemExit) as err:
        main(["rm-experiment", "--config", str(cfg_path), "--out", str(out)])
    assert err.value.code == 2
    assert "error: rm-experiment: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit,message", [
    # json keeps the later of two keys: the run used to go ahead on it
    (lambda t: t.replace('{"rho": ', '{"rho": {"family": "example3"}, "rho": ', 1),
     "key 'rho' appears more than once"),
    (lambda t: t.replace('"x": 1.0', '"x": 1.0, "x": 0.2'), "key 'x' appears more than once"),
    (lambda t: "", r"Expecting value: line 1 column 1 \(char 0\)"),
    (lambda t: t[:-1], "Expecting ',' delimiter"),
], ids=["top-level-key-twice", "param-twice", "empty", "truncated"])
def test_rm_experiment_config_text_checked_at_the_boundary(tmp_path, capsys, edit,
                                                           message):
    cfg_path = tmp_path / "cfg.json"
    write_rm_config(cfg_path)
    cfg_path.write_text(edit(cfg_path.read_text()))
    out = tmp_path / "report.json"
    with pytest.raises(ValueError, match=f"^{re.escape(f'config {cfg_path}: ')}{message}"):
        cmd_rm_experiment(str(cfg_path), str(out))
    with pytest.raises(SystemExit) as err:
        main(["rm-experiment", "--config", str(cfg_path), "--out", str(out)])
    assert err.value.code == 2
    assert "error: rm-experiment: " in capsys.readouterr().err
    assert not out.exists()


def test_rm_experiment_negative_seed_flag_exits_2(tmp_path, capsys):
    # numpy's own SeedSequence error used to be the message, naming no field
    cfg_path = tmp_path / "cfg.json"
    write_rm_config(cfg_path, settings=20)
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as err:
        main(["rm-experiment", "--config", str(cfg_path), "--out", str(out), "--seed", "-1"])
    assert err.value.code == 2
    assert "error: rm-experiment: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_rm_experiment_negative_state_seed_exits_2(tmp_path, capsys):
    # numpy's "expected non-negative integer" used to be the message
    cfg_path = tmp_path / "cfg.json"
    write_rm_config(cfg_path, settings=20)
    cfg = json.loads(cfg_path.read_text())
    cfg["sigma"] = {"family": "random-pure", "params": {"dims": [4, 4]}, "seed": -1}
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as err:
        main(["rm-experiment", "--config", str(cfg_path), "--out", str(out)])
    assert err.value.code == 2
    assert "error: rm-experiment: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_rm_experiment_ghz_local_dimension_one_exits_2(tmp_path, capsys):
    # d = 1 used to end in a ZeroDivisionError traceback, exit 1, the code of
    # a failed examples check
    cfg_path = tmp_path / "cfg.json"
    write_rm_config(cfg_path, settings=20)
    cfg = json.loads(cfg_path.read_text())
    cfg["rho"] = {"family": "ghz-noisy", "params": {"n": 4, "d": 1, "p": 0.5}}
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as err:
        main(["rm-experiment", "--config", str(cfg_path), "--out", str(out)])
    assert err.value.code == 2
    assert ("error: rm-experiment: local dimension must be >= 2"
            in capsys.readouterr().err)
    assert not out.exists()


def test_rm_experiment_unreadable_config_exits_2(tmp_path, capsys):
    # a missing file used to end in a FileNotFoundError traceback, exit 1
    missing = tmp_path / "nope.json"
    with pytest.raises(ValueError, match=f"cannot read config {missing}"):
        cmd_rm_experiment(str(missing), str(tmp_path / "report.json"))
    with pytest.raises(SystemExit) as err:
        main(["rm-experiment", "--config", str(missing), "--out", str(tmp_path / "r.json")])
    assert err.value.code == 2
    assert f"error: rm-experiment: cannot read config {missing}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, out, written", [
    ("fig1", "no/out.csv", "no/out.csv"),
    ("rm-experiment", "no/out.json", "no/out.json.records.jsonl"),
    ("rm-experiment", "out.json", "out.json"),
], ids=["csv", "records", "report"])
def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys, command, out, written):
    # an output that cannot be written used to end in a traceback, exit 1;
    # a missing directory stops the first file, a directory as --out the
    # rm-experiment report after its records
    cfg_path = tmp_path / "cfg.json"
    write_rm_config(cfg_path, settings=4, shots=8)
    (tmp_path / "out.json").mkdir()
    argv = (["fig1", "--d", "3", "--grid", "2"] if command == "fig1"
            else ["rm-experiment", "--config", str(cfg_path)])
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path / out)])
    assert err.value.code == 2
    assert f"error: {command}: cannot write {tmp_path / written}: " in capsys.readouterr().err


def test_readme_rm_config_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("An `rm-experiment` config holds")[1].split("```json")[1]
    cfg = json.loads(block.split("```")[0])
    for side in ("rho", "sigma"):
        assert build_density(StateSpec.from_json(cfg[side])).dims == (4, 4)


def test_failed_examples_check_exits_1(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_ghz_threshold", lambda n: 0.0)
    out = tmp_path / "examples.json"
    assert main(["examples", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["failures"] == ["ghz n=3", "ghz n=4", "ghz n=5"]
