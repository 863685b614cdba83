"""Tests of the benchmark's own code.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import sim  # noqa: E402
from overlapcert import cli, randomized  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("n_qubits", [2, 3, 6])
@pytest.mark.parametrize("p", [0.0, 0.8, 1.0])
def test_simulator_matches_dense_conjugation(n_qubits, p):
    dim = 2**n_qubits
    ghz = np.zeros(dim)
    ghz[[0, -1]] = 1.0 / np.sqrt(2.0)
    rho = p * np.outer(ghz, ghz) + (1.0 - p) * np.eye(dim) / dim
    sigma = np.outer(ghz, ghz)
    rng = np.random.default_rng(11)
    for _ in range(5):
        us = [sim.haar_unitary(rng) for _ in range(n_qubits)]
        u = us[0]
        for v in us[1:]:
            u = np.kron(u, v)
        p_rho, p_sigma = sim.ghz_outcome_probs(ghz, us, p)
        np.testing.assert_allclose(p_rho, np.diag(u @ rho @ u.conj().T).real,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(p_sigma, np.diag(u @ sigma @ u.conj().T).real,
                                   rtol=0, atol=1e-12)


def test_simulated_counts_repeat_per_seed():
    ghz = np.zeros(8)
    ghz[[0, -1]] = 1.0 / np.sqrt(2.0)
    a = sim.simulate_ghz_counts(ghz, 3, 4, 50, 0.8, seed=5)
    b = sim.simulate_ghz_counts(ghz, 3, 4, 50, 0.8, seed=5)
    c = sim.simulate_ghz_counts(ghz, 3, 4, 50, 0.8, seed=6)
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    assert not all(np.array_equal(x[1], y[1]) for x, y in zip(a, c))
    assert all(x[1].sum() == 50 and x[2].sum() == 50 for x in a)


def _ghz_records(n_qubits: int, settings: int, shots: int, seed: int):
    ghz = np.zeros(2**n_qubits)
    ghz[[0, -1]] = 1.0 / np.sqrt(2.0)
    simulated = sim.simulate_ghz_counts(ghz, n_qubits, settings, shots, 0.8, seed)
    records = [randomized.MeasurementRecord(
        setting=k, unitaries_a=tuple(us[:2]), unitaries_b=tuple(us[2:]),
        rho_counts=a, sigma_counts=b) for k, (us, a, b) in enumerate(simulated)]
    return simulated, records


def test_reestimate_check_rejects_estimate_moved_by_ten_se():
    m, n = 2, 2
    simulated, records = _ghz_records(m + n, 40, 200, seed=3)
    cfg = randomized.ProtocolConfig(local_dim=2, m=m, n=n, n_unitaries=40,
                                    shots_per_setting=200)
    ests = [randomized.estimate_overlaps(records, cfg),
            randomized.estimate_self_overlaps(records, cfg, "rho"),
            randomized.estimate_self_overlaps(records, cfg, "sigma")]
    assert checks.check_reestimate(records, *ests, simulated, m, n) == []
    moved = replace(ests[1], overlap_a=ests[1].overlap_a + 10 * ests[1].se_a)
    errs = checks.check_reestimate(records, ests[0], moved, ests[2], simulated, m, n)
    assert len(errs) == 1 and "rho.rho a" in errs[0]
    other = _ghz_records(m + n, 40, 200, seed=4)[0]
    assert checks.check_reestimate(records, *ests, other, m, n)


@pytest.fixture(scope="module")
def rm_run(tmp_path_factory):
    """One small rm-experiment: isotropic(4, 0.9) vs isotropic(4, 1), 2+2 qubits."""
    tmp = tmp_path_factory.mktemp("rm")
    config = {"rho": {"family": "isotropic", "params": {"d": 4, "x": 0.9}},
              "sigma": {"family": "isotropic", "params": {"d": 4, "x": 1.0}},
              "protocol": {"local_dim": 2, "m": 2, "n": 2, "n_unitaries": 40,
                           "shots_per_setting": 200, "seed": 5}}
    (tmp / "rm.json").write_text(json.dumps(config))
    out = tmp / "report.json"
    assert cli.main(["rm-experiment", "--config", str(tmp / "rm.json"),
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    lines = Path(report["records_path"]).read_text().splitlines()
    return report, lines


def _rm_errors(report, lines):
    return checks.check_rm_report(report, lines, 4, 0.9, 1.0, 2, 2, 40, 200)


def test_rm_check_accepts_program_output(rm_run):
    assert _rm_errors(*rm_run) == []


def test_rm_check_rejects_estimate_moved_by_ten_se(rm_run):
    report, lines = rm_run
    est = report["estimate"]
    for key, se in (("overlap_ab", "se_ab"), ("overlap_b", "se_b")):
        bad = dict(report, estimate=dict(est, **{key: est[key] + 10 * est[se]}))
        errs = _rm_errors(bad, lines)
        assert len(errs) == 1 and "program" in errs[0]


def test_rm_check_rejects_wrong_certificate_and_records(rm_run):
    report, lines = rm_run
    assert len(_rm_errors(dict(report, sn_bound_minus_2se=5), lines)) == 1
    assert len(_rm_errors(dict(report, exact_ratio=3.6 + 1e-6), lines)) == 1
    assert _rm_errors(report, lines[:-1])
    rec = json.loads(lines[1])
    rec["rho_counts"] = {k: v + 1 for k, v in rec["rho_counts"].items()}
    assert any("sum to" in e for e in _rm_errors(report, [lines[0], json.dumps(rec)] + lines[2:]))


def test_shot_residual_check_rejects_biased_terms():
    rng = np.random.default_rng(2)
    expected = rng.exponential(1.0, 300)
    noisy = expected + rng.normal(0.0, 0.05, 300)
    assert checks.shot_residual_errors("t", noisy, expected) == []
    assert checks.shot_residual_errors("t", noisy + 0.05, expected)


def test_reference_estimator_matches_dense_hamming_weights():
    rng = np.random.default_rng(0)
    n_qubits = 3
    f, g = rng.dirichlet(np.ones(8), size=(2, 5))
    digits = (np.arange(8)[:, None] >> np.arange(n_qubits)[::-1]) & 1
    dist = (digits[:, None, :] != digits[None, :, :]).sum(axis=2)
    w = (-2.0) ** (-dist)
    terms = checks.cross_terms(f, g, 1, 2)
    np.testing.assert_allclose(terms["ab"], 8 * np.einsum("ui,ij,uj->u", f, w, g),
                               rtol=1e-13)


def test_fig1_check_rejects_row_off_by_1e6(tmp_path):
    out = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--d", "4", "--grid", "6", "--out", str(out)]) == 0
    rows = checks.read_csv(out)
    assert checks.check_fig1(rows, d=4, grid=6) == []
    rows[7][2] += 1e-6
    assert len(checks.check_fig1(rows, d=4, grid=6)) == 1


def test_scan_checks_accept_program_output_and_reject_moved_boundaries(tmp_path):
    rfbc, fig3 = tmp_path / "rfbc.csv", tmp_path / "fig3"
    assert cli.main(["rfbc-tightness", "--d-min", "3", "--d-max", "5",
                     "--r-max", "3", "--out", str(rfbc)]) == 0
    assert cli.main(["fig3", "--d-min", "3", "--d-max", "5", "--r-max", "3",
                     "--out", str(fig3)]) == 0
    rows = checks.read_csv(rfbc)
    rows_a = checks.read_csv(str(fig3) + ".a.csv")
    rows_b = checks.read_csv(str(fig3) + ".b.csv")
    assert checks.check_rfbc(rows) == []
    assert checks.check_fig3(rows_a, rows_b) == []
    inside = next(k for k, r in enumerate(rows) if 0 < r[2] < 1)
    rows[inside][2] += 1e-4
    rows[0][3] += 1e-9
    assert len(checks.check_rfbc(rows)) == 2


def test_examples_check_rejects_report_with_ok_false(tmp_path):
    out = tmp_path / "examples.json"
    code = cli.main(["examples", "--out", str(out)])
    report = json.loads(out.read_text())
    assert checks.check_examples(report, code) == []
    assert len(checks.check_examples(dict(report, ok=False), 0)) == 1
    assert len(checks.check_examples(report, 1)) == 1


def test_variational_check_rejects_values_outside_the_bounds():
    ident = {"s_hat": 2.1, "rel_dev": 0.0}
    assert checks.check_variational(2.5, 2.0, 3, ident, 2.1) == []
    assert len(checks.check_variational(1.9, 2.0, 3, ident, 2.1)) == 1
    assert len(checks.check_variational(3.1, 2.0, 3, ident, 2.1)) == 1
    assert len(checks.check_variational(2.5, 2.0, 3, dict(ident, s_hat=2.1 + 1e-5), 2.1)) == 1
    assert len(checks.check_variational(2.5, 2.0, 3, dict(ident, rel_dev=1e-5), 2.1)) == 1


def test_plain_ratio_matches_isotropic_closed_form():
    d, x = 4, 0.6
    psi = np.zeros(d * d)
    psi[[i * d + i for i in range(d)]] = 1 / np.sqrt(d)
    iso = (1 - x) / (d * d - 1) * np.eye(d * d) + (d * d * x - 1) / (d * d - 1) * np.outer(psi, psi)
    target = np.outer(psi, psi)
    assert abs(checks.plain_ratio(iso, target, d, d) - d * x) < 1e-12


def test_self_time_is_duration_minus_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap(inner, "demo.inner", "demo")

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    tracer.wrap(outer, "other.outer", "other")()
    st = tracer.new_op()
    assert st.calls["demo.inner"] == 2 and st.outer_calls["demo"] == 2
    assert st.self_time["other"] == pytest.approx(st.total["other.outer"] - st.total["demo.inner"])
    assert 0.009 < st.self_time["other"] < 0.02
    parents = list(tracer.span_parent)
    assert parents == [-1, 0, 0]


def test_smoke_runs_every_workload_with_checks():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 4 and result["failed"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scans", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0 and proc.stdout == ""
