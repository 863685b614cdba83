"""Output checks of the four workloads.

Every check compares a program output with a value computed here, apart
from overlapcert, or with a property the method must have.  Each returns
a list of messages; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from sim import apply_local, corner_matrix, isotropic_overlap

TOL_SN = 1e-9  # the package's tolerance on strict inequalities
N_SE = 5.0  # estimates must lie within this many standard errors


def read_csv(path):
    """Data rows of a CSV written by the CLI (config comment and header skipped)."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _kernel(v: np.ndarray, n_qudits: int, d: int = 2) -> np.ndarray:
    """W v for every row of v, with W = (x)_k ((1 + 1/d) I - (1/d) J).

    W[s, t] = (-d)^(-Hamming(s, t)) factorizes over the qudits, which is
    the cross-correlation estimator of Elben et al., PRL 124, 010504
    (2020), without the dense D x D matrix the program builds.
    """
    t = v.reshape((v.shape[0],) + (d,) * n_qudits)
    for axis in range(1, n_qudits + 1):
        t = (1.0 + 1.0 / d) * t - t.sum(axis=axis, keepdims=True) / d
    return t.reshape(v.shape)


def _jackknife(y: np.ndarray) -> tuple[float, float]:
    n = len(y)
    loo = (y.sum() - y) / (n - 1)
    return float(y.mean()), float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


def _sides(v: np.ndarray, m: int, n: int) -> dict:
    cube = v.reshape(v.shape[0], 2**m, 2**n)
    return {"ab": (v, m + n), "a": (cube.sum(axis=2), m), "b": (cube.sum(axis=1), n)}


def cross_terms(f_rho: np.ndarray, f_sigma: np.ndarray, m: int, n: int) -> dict:
    """Per-setting d_X f_X . W_X g_X for X in {AB, A, B}; rows are settings."""
    sides_r, sides_s = _sides(f_rho, m, n), _sides(f_sigma, m, n)
    return {k: 2**q * np.einsum("ui,ui->u", sides_r[k][0], _kernel(sides_s[k][0], q))
            for k, (_, q) in sides_r.items()}


def self_terms(counts: np.ndarray, m: int, n: int) -> dict:
    """Per-setting distinct-pair purity terms from one state's counts."""
    shots = counts.sum(axis=1)
    norm = shots * (shots - 1)
    return {k: 2**q * (np.einsum("ui,ui->u", c, _kernel(c, q)) - shots) / norm
            for k, (c, q) in _sides(counts.astype(float), m, n).items()}


def check_estimate(label: str, est, terms: dict) -> list[str]:
    """The program's overlaps and jackknife errors against a recomputation."""
    errs = []
    for k, y in terms.items():
        mean, se = _jackknife(y)
        got_mean, got_se = _field(est, f"overlap_{k}"), _field(est, f"se_{k}")
        if (abs(got_mean - mean) > 1e-9 * max(1.0, abs(mean))
                or abs(got_se - se) > 1e-9 * max(1.0, se)):
            errs.append(f"{label} {k}: program {got_mean!r} +- {got_se!r}, "
                        f"recomputed {mean!r} +- {se!r}")
    return errs


def _field(est, name: str) -> float:
    return est[name] if isinstance(est, dict) else getattr(est, name)


def shot_residual_errors(label: str, y: np.ndarray, expected: np.ndarray) -> list[str]:
    """Shot noise only: per-setting terms minus their exact mean given U.

    Conditioning on the sampled unitaries removes the heavy-tailed Haar
    part of the spread, so the jackknife error of the residual is
    reliable and a 5-se bound holds on every seed.
    """
    mean, se = _jackknife(y - expected)
    if not abs(mean) <= N_SE * se:
        return [f"{label}: terms exceed their exact means by {mean!r} "
                f"({abs(mean) / se:.2f} se)"]
    return []


def _unflat(values) -> np.ndarray:
    a = np.asarray(values, dtype=float).reshape(-1, 2)
    return (a[:, 0] + 1j * a[:, 1]).reshape(2, 2)


def parse_records(record_lines: list[str], dim: int):
    """Unitaries and dense counts of a records file written by the CLI."""
    unitaries = []
    c_rho = np.zeros((len(record_lines) - 1, dim))
    c_sigma = np.zeros_like(c_rho)
    for u, line in enumerate(record_lines[1:]):
        rec = json.loads(line)
        unitaries.append([_unflat(v) for v in rec["unitaries_a"] + rec["unitaries_b"]])
        for key, dense in (("rho_counts", c_rho), ("sigma_counts", c_sigma)):
            for outcome, c in rec[key].items():
                dense[u, int(outcome)] = c
    return unitaries, c_rho, c_sigma


# ---------------------------------------------------------------------------
# rm-pipeline


def check_rm_report(report: dict, record_lines: list[str], d: int, x: float,
                    y: float, m: int, n: int, settings: int,
                    shots: int) -> list[str]:
    errs = []
    exact_ratio = d * isotropic_overlap(d, x, y)  # both reduced states are I/d
    if abs(report["exact_ratio"] - exact_ratio) > 1e-9:
        errs.append(f"exact_ratio {report['exact_ratio']!r} != {exact_ratio!r}")
    sn_true = math.ceil(d * x - TOL_SN)
    if report["sn_bound_minus_2se"] > sn_true:
        errs.append(f"sn_bound_minus_2se {report['sn_bound_minus_2se']} exceeds "
                    f"the Schmidt number {sn_true} of isotropic({d}, {x})")
    if len(record_lines) != settings + 1:  # protocol header + one per setting
        return errs + [f"records file has {len(record_lines)} lines, not {settings + 1}"]
    unitaries, c_rho, c_sigma = parse_records(record_lines, 2 ** (m + n))
    for label, c in (("rho", c_rho), ("sigma", c_sigma)):
        bad = np.flatnonzero(c.sum(axis=1) != shots)
        if bad.size:
            errs.append(f"{label} counts of setting {bad[0]} sum to "
                        f"{c[bad[0]].sum():.0f}, not {shots}")
    terms = cross_terms(c_rho / shots, c_sigma / shots, m, n)
    errs += check_estimate("rm", report["estimate"], terms)
    # Exact outcome probabilities under the program's own unitaries: for
    # the isotropic state a I + b |Psi><Psi| they are a + b |U Psi|^2.
    psi = np.zeros(d * d)
    psi[[i * d + i for i in range(d)]] = 1.0 / math.sqrt(d)
    q = np.array([np.abs(apply_local(psi, us)) ** 2 for us in unitaries])
    p = {label: (1.0 - xx) / (d * d - 1) + (d * d * xx - 1.0) / (d * d - 1) * q
         for label, xx in (("rho", x), ("sigma", y))}
    expected = cross_terms(p["rho"], p["sigma"], m, n)
    for k in terms:
        errs += shot_residual_errors(f"rm {k}", terms[k], expected[k])
    return errs


# ---------------------------------------------------------------------------
# reestimate


def check_reestimate(records, cross, self_rho, self_sigma, simulated, m: int,
                     n: int) -> list[str]:
    if len(records) != len(simulated):
        return [f"read {len(records)} records, simulated {len(simulated)}"]
    for rec, (_, sim_rho, sim_sigma) in zip(records, simulated):
        if not (np.array_equal(rec.rho_counts, sim_rho)
                and np.array_equal(rec.sigma_counts, sim_sigma)):
            return [f"setting {rec.setting}: counts read back differ"]
    c_rho = np.array([s[1] for s in simulated])
    c_sigma = np.array([s[2] for s in simulated])
    shots = c_rho.sum(axis=1, keepdims=True)
    return (check_estimate("rho.sigma", cross, cross_terms(c_rho / shots, c_sigma / shots, m, n))
            + check_estimate("rho.rho", self_rho, self_terms(c_rho, m, n))
            + check_estimate("sigma.sigma", self_sigma, self_terms(c_sigma, m, n)))


# ---------------------------------------------------------------------------
# scans


def check_fig1(rows, d: int, grid: int) -> list[str]:
    xs = np.linspace(1.0 / d**2, 1.0, grid)
    expect = [(float(x), float(y)) for x in xs for y in xs]
    if len(rows) != len(expect):
        return [f"fig1 has {len(rows)} rows, not {len(expect)}"]
    errs = []
    for (x, y, s, level), (ex, ey) in zip(rows, expect):
        s_exact = d * isotropic_overlap(d, ex, ey)
        level_exact = min(max(0, math.ceil(s_exact - TOL_SN) - 1), d)
        if (abs(x - ex) > 1e-12 or abs(y - ey) > 1e-12
                or abs(s - s_exact) > 1e-9 or level != level_exact):
            errs.append(f"fig1 row ({x}, {y}, {s}, {level}) != "
                        f"({ex}, {ey}, {s_exact}, {level_exact})")
    return errs


def _spectrum_boundary_errors(label: str, d: int, r: int, x: float) -> list[str]:
    if not 0.0 < x < 1.0:
        return []
    top = np.linalg.eigvalsh(corner_matrix(d, x))[-1]
    if abs(top - r / d) > 1e-6:
        return [f"{label} d={d} r={r}: top eigenvalue {top!r} at x={x!r}, "
                f"not r/d={r / d!r}"]
    return []


def check_rfbc(rows) -> list[str]:
    errs = []
    for d, r, x_spectrum, x_witness in rows:
        d, r = int(d), int(r)
        exact = (r * (d - 1) - 1) / (d * d - d - 1)
        if abs(x_witness - exact) > 1e-12:
            errs.append(f"rfbc d={d} r={r}: x_witness_boundary {x_witness!r} != {exact!r}")
        errs += _spectrum_boundary_errors("rfbc", d, r, x_spectrum)
    return errs


def check_fig3(rows_a, rows_b) -> list[str]:
    errs = []
    for d, r, _, x_upper in rows_a:
        errs += _spectrum_boundary_errors("fig3", int(d), int(r), x_upper)
    for d, _, _, x_fbc, _ in rows_b:
        exact = (d - 2) / (d * d - d - 1)
        if abs(x_fbc - exact) > 1e-12:
            errs.append(f"fig3 d={int(d)}: x_fbc_boundary {x_fbc!r} != {exact!r}")
    return errs


def check_examples(report: dict, exit_code: int) -> list[str]:
    errs = []
    if exit_code != 0 or report.get("ok") is not True:
        errs.append(f"examples exit {exit_code}, ok={report.get('ok')!r}, "
                    f"failures={report.get('failures')!r}")
    sn3 = report["rank2_sn3_state"]
    if abs(sn3["peak_ratio"] - 12 / 5) > 1e-8 or abs(sn3["peak_parameter"] - 7 / 54) > 1e-6:
        errs.append(f"examples peak {sn3['peak_ratio']!r} at {sn3['peak_parameter']!r}, "
                    "not 12/5 at 7/54")
    ghz = report["ghz_thresholds"]
    if [c["n"] for c in ghz] != [3, 4, 5]:
        errs.append(f"examples GHZ thresholds for n={[c['n'] for c in ghz]}")
    for c in ghz:
        exact = 1.0 / (2 ** (c["n"] - 1) + 1)
        if abs(c["threshold"] - exact) > 1e-6:
            errs.append(f"examples GHZ n={c['n']}: {c['threshold']!r} != {exact!r}")
    return errs


# ---------------------------------------------------------------------------
# variational


def plain_ratio(rho_m: np.ndarray, sigma_m: np.ndarray, d_a: int, d_b: int) -> float:
    """max(s_A, s_B) of two d_a x d_b states, by reshaping the matrices."""
    r4 = rho_m.reshape(d_a, d_b, d_a, d_b)
    s4 = sigma_m.reshape(d_a, d_b, d_a, d_b)
    g = np.vdot(sigma_m, rho_m).real  # Tr[rho sigma] for Hermitian sigma
    la = np.vdot(np.einsum("ajbj->ab", s4), np.einsum("ajbj->ab", r4)).real
    lb = np.vdot(np.einsum("iaib->ab", s4), np.einsum("iaib->ab", r4)).real
    return max(g / la, g / lb)


def check_variational(value: float, unrotated: float, sn_rho: int,
                      identity: dict, identity_exact: float) -> list[str]:
    errs = []
    if value < unrotated - 1e-12:
        errs.append(f"s_hat {value!r} below the unrotated ratio {unrotated!r}")
    if value > sn_rho + TOL_SN:
        errs.append(f"s_hat {value!r} exceeds the Schmidt number {sn_rho}")
    if abs(identity["s_hat"] - identity_exact) > 1e-6:
        errs.append(f"identity s_hat {identity['s_hat']!r} != d*x = {identity_exact!r}")
    if not identity["rel_dev"] <= 1e-6:
        errs.append(f"identity rel_dev {identity['rel_dev']!r} > 1e-6")
    return errs
