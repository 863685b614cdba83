"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Criterion 9b checks where the inversion map's value
on noisy GHZ changes sign against the threshold derived from the map's
own overlap expansion; the paper's quoted threshold agrees with it only
at p = 1, where 9b checks it too (see README, Known discrepancies).
"""

import numpy as np

from corpus import (
    memoize_partner_sup,
    random_low_schmidt_mixture,
    random_separable,
)
from overlapcert import (
    OptConfig,
    ProtocolConfig,
    QState,
    apply_lambda_map,
    corner_delta,
    corner_isotropic,
    corner_isotropic_closed_forms,
    estimate_overlaps,
    extract_ipc_witness,
    fbc_spectrum_bound,
    fbc_witness_value,
    ghz_noisy,
    ghz_pure,
    hs_inner,
    ipc_bound,
    isotropic,
    lambda_map_verdict,
    multipartite_ipc,
    overlap_ratio,
    p3_ppt_check,
    partial_trace_matrix,
    pt_moments,
    purity_check,
    random_mixed,
    random_pure,
    reduction_check,
    run_protocol,
    sn3_probe_state,
    sn3_unfaithful_state,
    sn_bound_from_ratio,
    verify_shat_fef_identity,
)
from overlapcert.cli import cmd_fig3
from search import bisect_root, golden_section_max

EPS = 1e-9


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_isotropic_ratio_formula():
    worst = 0.0
    for d in range(2, 11):
        target = isotropic(d, 1.0)
        for x in np.linspace(1.0 / d**2, 1.0, 20):
            s = overlap_ratio(isotropic(d, float(x)), target).s
            worst = max(worst, abs(s - d * float(x)))
    report("criterion 1 (isotropic pairs, s = d*x)", worst <= 1e-9,
           f"max deviation {worst:.2e}")


def test_criterion_02_rank2_sn3_state():
    rho = sn3_unfaithful_state()

    def ratio(t):
        return overlap_ratio(rho, sn3_probe_state(t).projector()).s

    t_best, s_best = golden_section_max(ratio, 0.0, 1.0 / 6.0, tol=1e-12)
    blocked = fbc_spectrum_bound(rho, 2)
    bound = sn_bound_from_ratio(s_best)
    ok = (
        abs(s_best - 12.0 / 5.0) <= 1e-8
        and abs(t_best - 7.0 / 54.0) <= 1e-6
        and blocked
        and bound == 3
    )
    report(
        "criterion 2 (peak 12/5 at 7/54, rank-2 witnesses blocked, bound 3)",
        ok,
        f"peak {s_best:.10f} at {t_best:.8f}, blocked={blocked}, bound={bound}",
    )


def test_criterion_03_top_eigenvalue_closed_form():
    worst = 0.0
    for d in range(3, 8):
        for x in np.linspace(0.0, 1.0, 20):
            top = np.linalg.eigvalsh(corner_isotropic(d, float(x)).matrix)[-1]
            worst = max(worst, abs(top - corner_delta(d, float(x))))
    report("criterion 3 (corner top eigenvalue matches closed form)",
           worst <= 1e-10, f"max deviation {worst:.2e}")


def test_criterion_04_moment_gap_polynomial():
    worst = 0.0
    for d in range(3, 7):
        for x in np.arange(0.05, 0.951, 0.05):
            p = pt_moments(corner_isotropic(d, float(x)))
            gap = p[1] ** 2 - p[2]
            poly = corner_isotropic_closed_forms(d, float(x))["p2sq_minus_p3"]
            worst = max(worst, abs(gap - poly))
    report("criterion 4 (third-moment gap matches polynomial)",
           worst <= 1e-9, f"max deviation {worst:.2e}")


def test_criterion_05_reduction_witness_equivalence(monkeypatch):
    memoize_partner_sup(monkeypatch)
    rng = np.random.default_rng(20260809)
    dims_cycle = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]
    mismatches = 0
    weak_witnesses = 0
    detections = 0
    for trial in range(1000):
        dims = dims_cycle[trial % len(dims_cycle)]
        rank = int(rng.integers(1, dims[0] * dims[1] + 1))
        rho = random_mixed(dims, rank=rank, seed=int(rng.integers(1 << 62)))
        for r in (1, 2, 3):
            detected = reduction_check(rho, r).detected
            witness = extract_ipc_witness(rho, r)
            if detected != (witness is not None):
                mismatches += 1
            if witness is not None:
                detections += 1
                if not overlap_ratio(rho, witness).s > r + EPS:
                    weak_witnesses += 1
    ok = mismatches == 0 and weak_witnesses == 0 and detections > 0
    report(
        "criterion 5 (reduction detection <=> extractable partner, 1000 states)",
        ok,
        f"{detections} detections, {mismatches} mismatches, "
        f"{weak_witnesses} weak witnesses",
    )


def test_criterion_06_soundness_suites():
    rng = np.random.default_rng(31415926)
    dims_cycle = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]
    violations_sep = 0
    worst_sep = 0.0
    for trial in range(10_000):
        d_a, d_b = dims_cycle[trial % len(dims_cycle)]
        rho = random_separable(d_a, d_b, rng)
        sig = random_mixed((d_a, d_b), seed=int(rng.integers(1 << 62)))
        s = overlap_ratio(rho, sig).s
        worst_sep = max(worst_sep, s)
        if s > 1.0 + EPS:
            violations_sep += 1
    violations_r2 = 0
    worst_r2 = 0.0
    for trial in range(1000):
        d_a, d_b = dims_cycle[trial % len(dims_cycle)]
        rho = random_low_schmidt_mixture(d_a, d_b, 2, rng)
        sig = random_mixed((d_a, d_b), seed=int(rng.integers(1 << 62)))
        s = overlap_ratio(rho, sig).s
        worst_r2 = max(worst_r2, s)
        if s > 2.0 + EPS:
            violations_r2 += 1
    ok = violations_sep == 0 and violations_r2 == 0
    report(
        "criterion 6 (soundness: 10^4 separable <= 1, 10^3 rank-2 mixtures <= 2)",
        ok,
        f"max separable ratio {worst_sep:.6f}, max rank-2 ratio {worst_r2:.6f}",
    )


def test_criterion_07_containments():
    rng = np.random.default_rng(27182818)
    fbc_hits = fbc_misses = 0
    pc_hits = 0
    counterexamples = []
    for trial in range(1000):
        phi = random_pure((3, 3), seed=int(rng.integers(1 << 62)))
        if trial % 2:
            rho = random_mixed((3, 3), rank=int(rng.integers(1, 6)),
                               seed=int(rng.integers(1 << 62)))
        else:
            # align half the corpus with its witness so detections occur
            q = rng.uniform(0.4, 1.0)
            noise = random_mixed((3, 3), seed=int(rng.integers(1 << 62)))
            rho = QState((3, 3), q * phi.projector().matrix + (1 - q) * noise.matrix)
        if fbc_witness_value(rho, phi, 1).detected:
            fbc_hits += 1
            if not ipc_bound(rho, phi.projector()).detected:
                counterexamples.append(("fbc", trial))
        else:
            fbc_misses += 1
        if purity_check(rho).detected:
            pc_hits += 1
            if not ipc_bound(rho, rho).detected:
                counterexamples.append(("pc", trial))
    ok = not counterexamples and fbc_hits > 0 and pc_hits > 0
    report(
        "criterion 7 (fidelity and purity detections imply ratio detections)",
        ok,
        f"fbc {fbc_hits} hits / pc {pc_hits} hits, "
        f"counterexamples {counterexamples!r}",
    )


def test_criterion_08_ghz_thresholds():
    worst = 0.0
    for n in (3, 4, 5):
        sig = ghz_pure(n, 2).projector()

        def margin(p):
            v = multipartite_ipc(ghz_noisy(n, 2, p), sig)
            return v.global_overlap - v.min_value

        p_star = bisect_root(margin, 1e-9, 0.999, tol=1e-10)
        worst = max(worst, abs(p_star - 1.0 / (2 ** (n - 1) + 1)))
    report("criterion 8 (noisy-GHZ detection thresholds, n in {3,4,5})",
           worst <= 1e-6, f"max threshold deviation {worst:.2e}")


def test_criterion_09a_inversion_map_closed_vs_explicit():
    worst = 0.0
    for d in (2, 3, 4):
        sig = ghz_pure(3, d).projector()
        for p in np.linspace(0.0, 1.0, 6):
            rho = ghz_noisy(3, d, float(p))
            for r in (1, 2, 3):
                closed = lambda_map_verdict(rho, sig, r).value
                explicit = hs_inner(apply_lambda_map(rho, r), sig.matrix)
                worst = max(worst, abs(closed - explicit))
    report("criterion 9a (inversion map closed form vs explicit matrix)",
           worst <= 1e-9, f"max deviation {worst:.2e}")


def test_criterion_09b_inversion_map_quoted_sign_flip():
    # Derived threshold.  For sigma = |GHZ><GHZ| the marginals are
    # sigma_C = I/d and sigma_BC = sigma_AC = (1/d) sum_i |ii><ii|, so with
    # rho = p sigma + (1-p) I/d^3 the overlaps are
    #   <rho_C, sigma_C>   = 1/d
    #   <rho_BC, sigma_BC> = <rho_AC, sigma_AC> = p/d + (1-p)/d^2
    #   <rho, sigma>       = p + (1-p)/d^3
    # and the map value is
    #   p [2/d - (1/r)(1/d + 1)] + (1-p) (1/d)(1 + 1/d)(1 - 1/(r d)),
    # which changes sign at
    #   r* = (d+1)(p d^2 + 1 - p) / (d ((1+p) d + 1 - p)).
    # The quoted threshold (d+1) / ((1-p)/p d + 2) is the root with the
    # white-noise coefficient set to 1 instead; it equals r* only at p = 1.
    worst = 0.0
    worst_quoted = 0.0
    for d in (2, 3, 4):
        sig = ghz_pure(3, d).projector()
        for p in (0.0, 0.3, 0.8, 0.9, 0.95, 1.0):
            rho = ghz_noisy(3, d, p)

            def value_at(r_cont):
                dims = rho.dims
                t_c = hs_inner(
                    partial_trace_matrix(rho.matrix, dims, [2]),
                    partial_trace_matrix(sig.matrix, dims, [2]),
                )
                t_bc = hs_inner(
                    partial_trace_matrix(rho.matrix, dims, [1, 2]),
                    partial_trace_matrix(sig.matrix, dims, [1, 2]),
                )
                t_ac = hs_inner(
                    partial_trace_matrix(rho.matrix, dims, [0, 2]),
                    partial_trace_matrix(sig.matrix, dims, [0, 2]),
                )
                return t_c + t_bc - (t_ac + hs_inner(rho, sig)) / r_cont

            r_flip = bisect_root(value_at, 0.05, 64.0, tol=1e-10)
            derived = (d + 1) * (p * d * d + 1 - p) / (d * ((1 + p) * d + 1 - p))
            worst = max(worst, abs(r_flip - derived))
            if p == 1.0:
                quoted = (d + 1) / ((1 - p) / p * d + 2)
                worst_quoted = max(worst_quoted, abs(quoted - derived))
    report(
        "criterion 9b (sign flip at the derived threshold; "
        "quoted threshold holds at p = 1)",
        worst <= 1e-6 and worst_quoted <= 1e-12,
        f"max |actual flip - derived| = {worst:.2e}, "
        f"p = 1: |quoted - derived| = {worst_quoted:.2e}",
    )


def test_criterion_10_randomized_measurement_consistency():
    rho = isotropic(4, 0.9)
    sig = isotropic(4, 1.0)
    hits = 0
    for rep in range(100):
        cfg = ProtocolConfig(local_dim=2, m=2, n=2, n_unitaries=1000,
                             seed=40_000 + rep)
        est = estimate_overlaps(run_protocol(rho, sig, cfg), cfg)
        if est.reliable and abs(est.s - 3.6) <= 4.0 * est.se_s:
            hits += 1
    cfg_shots = ProtocolConfig(local_dim=2, m=2, n=2, n_unitaries=1000,
                               shots_per_setting=1000, seed=91)
    est_shots = estimate_overlaps(run_protocol(rho, sig, cfg_shots), cfg_shots)
    shots_ok = abs(est_shots.s - 3.6) <= 4.0 * est_shots.se_s
    ok = hits >= 95 and shots_ok
    report(
        "criterion 10 (measurement estimator: coverage and finite shots)",
        ok,
        f"{hits}/100 exact-mode repetitions in band; finite-shot "
        f"s={est_shots.s:.4f} +- {est_shots.se_s:.4f}",
    )


def test_criterion_11_optimized_ratio_equals_d_times_fef():
    worst = 0.0
    cases = 0
    for d in (2, 3):
        for x in (1.0 / d**2, 0.4, 0.7, 0.95):
            out = verify_shat_fef_identity(
                isotropic(d, x), OptConfig(restarts=4, seed=100 + cases)
            )
            worst = max(worst, out["rel_dev"])
            cases += 1
    for k in range(20):
        rho = random_mixed((2, 2), seed=777 + k)
        out = verify_shat_fef_identity(rho, OptConfig(restarts=4, seed=200 + k))
        worst = max(worst, out["rel_dev"])
        cases += 1
    report(
        "criterion 11 (optimized ratio vs d * entangled fraction, "
        f"{cases} states)",
        worst <= 1e-3,
        f"max relative deviation {worst:.2e}",
    )


def test_criterion_12_corner_boundaries_at_d10(tmp_path):
    out = tmp_path / "fig3"
    cmd_fig3(str(out), d_min=10, d_max=10, r_max=1)
    lines = (tmp_path / "fig3.b.csv").read_text().splitlines()
    row = dict(zip(lines[1].split(","), (float(v) for v in lines[2].split(","))))
    fbc_ok = abs(row["x_fbc_boundary"] - 8.0 / 89.0) < 1e-15

    ipc_ok = all(
        reduction_check(corner_isotropic(10, float(x)), 1).detected
        for x in np.linspace(0.005, 1.0, 25)
    )

    x_pc = row["x_pc_boundary"]
    pc_ok = (
        not purity_check(corner_isotropic(10, x_pc - 1e-4)).detected
        and purity_check(corner_isotropic(10, x_pc + 1e-4)).detected
    )
    x_p3 = row["x_p3ppt_boundary"]
    p3_ok = (
        not p3_ppt_check(corner_isotropic(10, x_p3 - 1e-4)).detected
        and p3_ppt_check(corner_isotropic(10, x_p3 + 1e-4)).detected
    )
    ok = fbc_ok and ipc_ok and pc_ok and p3_ok
    report(
        "criterion 12 (d=10 boundaries: fidelity 8/89, ratio everywhere, "
        "purity and moment roots verified by sign change)",
        ok,
        f"fbc={fbc_ok} ipc={ipc_ok} pc={pc_ok} p3={p3_ok}",
    )
