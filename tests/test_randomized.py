"""Randomized-measurement protocol: sampling, estimation, persistence."""

import functools
import json
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcert import (
    ProtocolConfig,
    PureVec,
    Records,
    estimate_overlaps,
    estimate_self_overlaps,
    ghz_noisy,
    ghz_pure,
    hs_inner,
    isotropic,
    max_entangled,
    random_mixed,
    randomized,
    read_records,
    run_protocol,
    sample_local_unitary,
    write_records,
)
from overlapcert.randomized import (
    MeasurementRecord,
    _apply_hamming_kernel,
    _basis_coefficients,
    _draw_local,
    _hermitian_basis,
    _local_unitaries,
    _outcome_probs,
    _setting_terms,
    _single_qubit_cliffords,
    _summarize,
)


# ---------------------------------------------------------------------------
# unitary sampling


def test_haar_samples_are_unitary():
    rng = np.random.default_rng(0)
    for ell in (2, 3):
        for _ in range(500):
            u = sample_local_unitary(ell, rng)
            assert np.abs(u @ u.conj().T - np.eye(ell)).max() <= 1e-10


def test_haar_first_moment_is_depolarizing():
    # Monte Carlo check of the 1-design property: E[U|0><0|U^dag] = I/l
    rng = np.random.default_rng(1)
    ell, n = 2, 10_000
    acc = np.zeros((ell, ell, n), dtype=complex)
    for k in range(n):
        u = sample_local_unitary(ell, rng)
        acc[:, :, k] = np.outer(u[:, 0], u[:, 0].conj())
    mean = acc.mean(axis=2)
    se = acc.std(axis=2) / math.sqrt(n)
    assert (np.abs(mean - np.eye(ell) / ell) <= 3 * se + 1e-12).all()


def _twirl_two_copies(x, ell):
    """Exact two-fold Haar twirl via the symmetric/antisymmetric projectors."""
    swap = np.zeros((ell * ell, ell * ell))
    for i in range(ell):
        for j in range(ell):
            swap[i * ell + j, j * ell + i] = 1.0
    p_sym = (np.eye(ell * ell) + swap) / 2
    p_anti = (np.eye(ell * ell) - swap) / 2
    d_sym = ell * (ell + 1) // 2
    d_anti = ell * (ell - 1) // 2
    out = np.trace(x @ p_sym) / d_sym * p_sym
    if d_anti:
        out = out + np.trace(x @ p_anti) / d_anti * p_anti
    return out


def test_haar_second_moment_weingarten_oracle():
    # E[Tr[UAU'B] Tr[UCU'D]] = Tr[twirl(A x C) (B x D)] for Haar U
    rng = np.random.default_rng(2)
    ell = 2
    mats = []
    for _ in range(4):
        g = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
        mats.append((g + g.conj().T) / 2)
    a, b, c, d = mats
    oracle = np.trace(_twirl_two_copies(np.kron(a, c), ell) @ np.kron(b, d)).real
    n = 20_000
    samples = np.empty(n)
    for k in range(n):
        u = sample_local_unitary(ell, rng)
        samples[k] = (
            np.trace(u @ a @ u.conj().T @ b) * np.trace(u @ c @ u.conj().T @ d)
        ).real
    se = samples.std() / math.sqrt(n)
    assert abs(samples.mean() - oracle) <= 4 * se


def test_clifford_group_closure():
    group = _single_qubit_cliffords()
    assert len(group) == 24
    for u in group:
        assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-10


def test_clifford_elements_are_unitary_to_machine_precision():
    # the group holds products of H and S, not copies rounded to 12 digits
    for u in _single_qubit_cliffords():
        assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-15
    rho = random_mixed((2, 2, 2, 2), seed=7)
    sig = random_mixed((2, 2, 2, 2), seed=8)
    cfg = ProtocolConfig(local_dim=2, m=2, n=2, n_unitaries=200, seed=1,
                         design="clifford")
    for rec in run_protocol(rho, sig, cfg):
        assert abs(rec.rho_probs.sum() - 1.0) <= 1e-14
        assert abs(rec.sigma_probs.sum() - 1.0) <= 1e-14


def test_clifford_design_also_unbiased():
    # single-qubit Cliffords form a 2-design, so the estimator stays valid
    rho = random_mixed((2, 2), seed=5)
    sig = random_mixed((2, 2), seed=6)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=3000, seed=11,
                         design="clifford")
    est = estimate_overlaps(run_protocol(rho, sig, cfg), cfg)
    truth = hs_inner(rho, sig)
    assert abs(est.overlap_ab - truth) <= 4 * est.se_ab


def test_clifford_requires_qubits():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="clifford"):
        sample_local_unitary(3, rng, design="clifford")
    with pytest.raises(ValueError, match="clifford"):
        ProtocolConfig(local_dim=3, m=1, n=1, n_unitaries=5, design="clifford")


@pytest.mark.parametrize("design, local_dim", [("haar", 2), ("haar", 3), ("clifford", 2)])
def test_batched_draw_consumes_stream_like_single_draws(design, local_dim):
    # one draw of five unitaries equals five successive one-unitary draws
    # of the explicit samplers, and leaves the stream at the same point
    batched, single = np.random.default_rng(17), np.random.default_rng(17)
    got = _local_unitaries(_draw_local(local_dim, batched, design, 5), design)
    for u in got:
        if design == "haar":
            z = single.standard_normal((local_dim, local_dim)) \
                + 1j * single.standard_normal((local_dim, local_dim))
            q, r = np.linalg.qr(z)
            want = q * (np.diag(r) / np.abs(np.diag(r)))
        else:
            want = _single_qubit_cliffords()[int(single.integers(24))]
        assert np.array_equal(u, want)
    assert batched.bit_generator.state == single.bit_generator.state


# ---------------------------------------------------------------------------
# protocol runs


def test_probabilities_normalized():
    rho = random_mixed((2, 2, 2, 2), seed=7)
    sig = random_mixed((2, 2, 2, 2), seed=8)
    cfg = ProtocolConfig(local_dim=2, m=2, n=2, n_unitaries=20, seed=1)
    for rec in run_protocol(rho, sig, cfg):
        assert rec.rho_probs.min() > -1e-12
        assert abs(rec.rho_probs.sum() - 1.0) < 1e-10
        assert abs(rec.sigma_probs.sum() - 1.0) < 1e-10


def test_identical_states_identical_distributions():
    rho = random_mixed((2, 2), seed=9)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=10, seed=2)
    for rec in run_protocol(rho, rho, cfg):
        np.testing.assert_allclose(rec.rho_probs, rec.sigma_probs, atol=1e-14)


def test_outcome_concentrates_without_rotation():
    # both states in one call, |00> and |11>, so a swapped state axis shows
    states = [PureVec((2, 2), v).projector().matrix for v in ([1, 0, 0, 0], [0, 0, 0, 1])]
    identity = np.broadcast_to(np.eye(2, dtype=complex), (1, 2, 2, 2))
    probs = _outcome_probs(identity, _basis_coefficients(states, 2, 2))[0]
    np.testing.assert_allclose(probs.T, [[1, 0, 0, 0], [0, 0, 0, 1]], atol=1e-14)


@pytest.mark.parametrize("local_dim, q", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                          (3, 1), (3, 2), (3, 3)])
def test_outcome_probs_match_kron_product_unitary(local_dim, q):
    # the qudit-by-qudit kernel against diag(U rho U^dag) with U = np.kron chain
    states = [random_mixed((local_dim,) * q, seed=seed).matrix for seed in (40 + q, 60 + q)]
    rng = np.random.default_rng(q)
    factors = np.array([[sample_local_unitary(local_dim, rng) for _ in range(q)]
                        for _ in range(6)])
    got = _outcome_probs(factors, _basis_coefficients(states, local_dim, q))
    assert got.shape == (6, local_dim**q, 2)
    for p, fs in zip(got, factors):
        u = fs[0]
        for f in fs[1:]:
            u = np.kron(u, f)
        for k, rho in enumerate(states):
            want = np.einsum("ij,jk,ik->i", u, rho, u.conj()).real
            assert np.abs(p[:, k] - want).max() <= 1e-15


@pytest.mark.parametrize("local_dim", [2, 3, 4])
def test_hermitian_basis_is_orthonormal(local_dim):
    h = _hermitian_basis(local_dim)
    mats = h.reshape(-1, local_dim, local_dim)
    assert np.array_equal(mats, mats.conj().transpose(0, 2, 1))
    assert np.abs(h.conj() @ h.T - np.eye(local_dim**2)).max() <= 1e-15


@pytest.mark.parametrize("local_dim, q", [(2, 1), (2, 2), (2, 3), (2, 4),
                                          (3, 1), (3, 2), (3, 3)])
def test_basis_coefficients_rebuild_the_states(local_dim, q):
    # rho = sum_a c_a H_a0 (x) ... (x) H_a(q-1), for each stacked state
    states = [random_mixed((local_dim,) * q, seed=seed).matrix for seed in (80 + q, 90 + q)]
    c = _basis_coefficients(states, local_dim, q).reshape((local_dim**2,) * q + (2,))
    h = _hermitian_basis(local_dim).reshape(-1, local_dim, local_dim)
    for k, rho in enumerate(states):
        got = sum(c[idx + (k,)] * functools.reduce(np.kron, h[list(idx)])
                  for idx in np.ndindex(c.shape[:-1]))
        assert np.abs(got - rho).max() <= 1e-15


def test_counts_sum_to_shots():
    rho = random_mixed((2, 2), seed=13)
    sig = random_mixed((2, 2), seed=14)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=15,
                         shots_per_setting=64, seed=3)
    for rec in run_protocol(rho, sig, cfg):
        assert rec.rho_counts.sum() == 64
        assert rec.sigma_counts.sum() == 64


def _reference_protocol(rho, sigma, cfg):
    """The per-setting protocol: one stream per setting, one sampler call
    per qudit, an np.kron chain, the three-operand einsum, then the counts."""
    out = []
    for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.n_unitaries):
        rng = np.random.default_rng(seq)
        factors = [sample_local_unitary(cfg.local_dim, rng, cfg.design)
                   for _ in range(cfg.m + cfg.n)]
        u = factors[0]
        for f in factors[1:]:
            u = np.kron(u, f)
        probs = [np.einsum("ij,jk,ik->i", u, s.matrix, u.conj()).real
                 for s in (rho, sigma)]
        counts = None
        if not cfg.exact:
            counts = [rng.multinomial(cfg.shots_per_setting,
                                      np.clip(p, 0.0, None) / np.clip(p, 0.0, None).sum())
                      for p in probs]
        out.append((factors, probs, counts))
    return out


@pytest.mark.parametrize("design, local_dim, m, n, shots, dims", [
    ("haar", 2, 1, 3, None, (2, 8)),
    ("haar", 2, 1, 3, 50, (2, 2, 2, 2)),
    ("haar", 2, 2, 2, 1000, (2, 2, 2, 2)),
    ("haar", 3, 2, 1, None, (9, 3)),
    ("haar", 3, 2, 1, 50, (3, 3, 3)),
    ("clifford", 2, 1, 3, None, (2, 2, 2, 2)),
    ("clifford", 2, 2, 2, 1000, (4, 4)),
    ("clifford", 2, 3, 1, 50, (8, 2)),
])
def test_protocol_matches_per_setting_reference(design, local_dim, m, n, shots, dims):
    # 140 settings span more than one probability block at D = 16 and D = 27
    rho = random_mixed(dims, seed=31)
    sig = random_mixed(dims, seed=32)
    cfg = ProtocolConfig(local_dim=local_dim, m=m, n=n, n_unitaries=140,
                         shots_per_setting=shots, seed=8, design=design)
    records = run_protocol(rho, sig, cfg)
    reference = _reference_protocol(rho, sig, cfg)
    assert len(records) == len(reference)
    for rec, (factors, probs, counts) in zip(records, reference):
        got = rec.unitaries_a + rec.unitaries_b
        assert len(got) == m + n
        assert all(np.array_equal(a, b) for a, b in zip(got, factors))
        if shots is None:
            for p, want in zip((rec.rho_probs, rec.sigma_probs), probs):
                assert np.abs(p - want).max() <= 1e-15
        else:
            assert np.array_equal(rec.rho_counts, counts[0])
            assert np.array_equal(rec.sigma_counts, counts[1])


def test_protocol_allocates_within_block_budget():
    rho = isotropic(8, 0.9)
    sig = isotropic(8, 1.0)
    cfg = ProtocolConfig(local_dim=2, m=3, n=3, n_unitaries=300,
                         shots_per_setting=1000, seed=0)
    tracemalloc.start()
    try:
        records = run_protocol(rho, sig, cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 300
    # beyond what the records keep, the run needs its probability blocks
    assert peak - held <= 2**20


def test_ten_qubit_probabilities_match_local_application():
    # an independent oracle: each local factor applied to psi's tensor
    psi = ghz_pure(10, 2)
    cfg = ProtocolConfig(local_dim=2, m=5, n=5, n_unitaries=20, seed=4)
    records = run_protocol(ghz_noisy(10, 2, 0.8), psi.projector(), cfg)
    assert len(records) == 20
    for rec in records:
        amp = psi.vec.reshape((2,) * 10)
        for k, u in enumerate(rec.unitaries_a + rec.unitaries_b):
            amp = np.moveaxis(np.tensordot(u, amp, axes=(1, k)), 0, k)
        want = np.abs(amp.ravel()) ** 2
        assert np.abs(rec.sigma_probs - want).max() <= 1e-14
        for probs in (rec.rho_probs, rec.sigma_probs):
            assert abs(probs.sum() - 1.0) <= 1e-12


def test_protocol_rejects_wrong_dimensions():
    cfg = ProtocolConfig(local_dim=2, m=2, n=2, n_unitaries=3)
    with pytest.raises(ValueError, match="dimension"):
        run_protocol(random_mixed((2, 2), seed=0), random_mixed((2, 2), seed=1), cfg)


def test_records_deterministic_under_seed():
    rho = random_mixed((2, 2), seed=15)
    sig = random_mixed((2, 2), seed=16)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=8,
                         shots_per_setting=32, seed=99)
    rec1 = run_protocol(rho, sig, cfg)
    rec2 = run_protocol(rho, sig, cfg)
    for a, b in zip(rec1, rec2):
        assert all(np.array_equal(x, y) for x, y in zip(a.unitaries_a, b.unitaries_a))
        assert np.array_equal(a.rho_counts, b.rho_counts)
        assert np.array_equal(a.sigma_counts, b.sigma_counts)
    e1 = estimate_overlaps(rec1, cfg)
    e2 = estimate_overlaps(rec2, cfg)
    assert e1 == e2


# ---------------------------------------------------------------------------
# estimation, exact mode


def test_exact_mode_recovers_unity_overlap():
    rho = max_entangled(4).projector()
    cfg = ProtocolConfig(local_dim=2, m=2, n=2, n_unitaries=500, seed=21)
    est = estimate_overlaps(run_protocol(rho, rho, cfg), cfg)
    assert abs(est.overlap_ab - 1.0) <= 3 * est.se_ab
    assert abs(est.overlap_a - 0.25) <= 3 * est.se_a


def test_exact_mode_orthogonal_states():
    a = PureVec((2, 2), [1, 0, 0, 0]).projector()  # |00>
    b = PureVec((2, 2), [0, 0, 0, 1]).projector()  # |11>
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=400, seed=22)
    est = estimate_overlaps(run_protocol(a, b, cfg), cfg)
    assert abs(est.overlap_ab) <= max(4 * est.se_ab, 1e-3)
    # local overlaps vanish as well; the ratio must be flagged, not huge
    assert not est.reliable
    assert est.s == 0.0


def test_exact_mode_isotropic_ratio_near_truth():
    rho = isotropic(4, 0.9)
    sig = isotropic(4, 1.0)
    cfg = ProtocolConfig(local_dim=2, m=2, n=2, n_unitaries=1000, seed=23)
    est = estimate_overlaps(run_protocol(rho, sig, cfg), cfg)
    assert est.reliable
    assert abs(est.s - 3.6) <= 4 * est.se_s


def test_exact_mode_estimates_match_ground_truth_all_parts():
    rho = random_mixed((2, 2), seed=31)
    sig = random_mixed((2, 2), seed=32)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=2000, seed=24)
    est = estimate_overlaps(run_protocol(rho, sig, cfg), cfg)
    from overlapcert import Bipartition, partial_trace

    truth_ab = hs_inner(rho, sig)
    truth_a = hs_inner(
        partial_trace(rho, Bipartition((0,))), partial_trace(sig, Bipartition((0,)))
    )
    truth_b = hs_inner(
        partial_trace(rho, Bipartition((1,))), partial_trace(sig, Bipartition((1,)))
    )
    assert abs(est.overlap_ab - truth_ab) <= 4 * est.se_ab
    assert abs(est.overlap_a - truth_a) <= 4 * est.se_a
    assert abs(est.overlap_b - truth_b) <= 4 * est.se_b


# ---------------------------------------------------------------------------
# estimation, finite shots


def test_shot_mode_unbiased_cross_overlap():
    rho = random_mixed((2, 2), seed=41)
    sig = random_mixed((2, 2), seed=42)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=800,
                         shots_per_setting=100, seed=25)
    est = estimate_overlaps(run_protocol(rho, sig, cfg), cfg)
    assert abs(est.overlap_ab - hs_inner(rho, sig)) <= 4 * est.se_ab


def test_shot_mode_self_overlap_needs_ustat():
    # the distinct-pair correction: purity estimate is unbiased even at
    # few shots, where the naive plug-in would inflate by ~1/shots
    rho = random_mixed((2, 2), rank=2, seed=43)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=1500,
                         shots_per_setting=16, seed=26)
    records = run_protocol(rho, rho, cfg)
    est = estimate_self_overlaps(records, cfg, which="rho")
    truth = rho.purity()
    assert abs(est.overlap_ab - truth) <= 4 * est.se_ab
    # naive plug-in bias at 16 shots would be on the order of 1/16, far
    # outside the band checked above
    assert est.se_ab < 1.0 / 32


def test_exact_mode_self_overlap_matches_purity():
    rho = random_mixed((2, 2), seed=44)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=1200, seed=27)
    records = run_protocol(rho, rho, cfg)
    est = estimate_self_overlaps(records, cfg, which="rho")
    assert abs(est.overlap_ab - rho.purity()) <= 4 * est.se_ab


def test_estimation_needs_two_settings():
    rho = random_mixed((2, 2), seed=45)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=1, seed=1)
    with pytest.raises(ValueError, match="two settings"):
        estimate_overlaps(run_protocol(rho, rho, cfg), cfg)


def test_variance_scales_inversely_with_settings():
    rho = isotropic(2, 0.8)
    sig = isotropic(2, 1.0)
    sizes = [100, 400, 1600]
    variances = []
    for n_u in sizes:
        vals = []
        for rep in range(30):
            cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=n_u,
                                 seed=1000 * n_u + rep)
            est = estimate_overlaps(run_protocol(rho, sig, cfg), cfg)
            vals.append(est.overlap_ab)
        variances.append(np.var(vals))
    slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
    assert abs(slope + 1.0) < 0.2


# ---------------------------------------------------------------------------
# estimation against the dense (-l)^(-Hamming) reference


def _dense_hamming(local_dim, n_qudits):
    """W[s, t] = (-l)^(-Hamming(s, t)) over all outcome pairs, as a matrix."""
    shape = (local_dim,) * n_qudits
    dist = np.zeros((local_dim**n_qudits,) * 2, dtype=np.int8)
    for digit in np.unravel_index(np.arange(local_dim**n_qudits), shape):
        dist += digit[:, None] != digit[None, :]
    return (-float(local_dim)) ** (-dist.astype(float))


# one group of qudits, a full group, a partial group and up to three groups
@pytest.mark.parametrize("local_dim,n_qudits", [
    (2, 1), (2, 4), (2, 5), (2, 6), (2, 10), (2, 11),
    (3, 1), (3, 3), (3, 4), (3, 6),
])
def test_hamming_kernel_matches_explicit_weights(local_dim, n_qudits):
    rows = np.random.default_rng(n_qudits).random((3, local_dim**n_qudits))
    want = rows @ _dense_hamming(local_dim, n_qudits)
    got = _apply_hamming_kernel(rows, local_dim, n_qudits)
    # entries cancel to near zero, so the error is taken relative to the largest
    assert got.shape == rows.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _dense_terms(records, cfg, which=None):
    """Per-setting AB, A, B terms: cross-state when ``which`` is None, else
    one state's purity terms (distinct shot pairs in shot mode)."""
    sides = ((cfg.m + cfg.n, cfg.d_a * cfg.d_b), (cfg.m, cfg.d_a), (cfg.n, cfg.d_b))
    weights = [_dense_hamming(cfg.local_dim, q) for q, _ in sides]

    def parts(v):
        cube = np.asarray(v, dtype=float).reshape(cfg.d_a, cfg.d_b)
        return cube.ravel(), cube.sum(axis=1), cube.sum(axis=0)

    def freqs(rec, name):
        probs = getattr(rec, name + "_probs")
        if probs is not None:
            return probs
        counts = getattr(rec, name + "_counts")
        return counts / counts.sum()

    y = np.zeros((3, len(records)))
    for u, rec in enumerate(records):
        counts = None if which is None else getattr(rec, which + "_counts")
        if counts is not None:
            shots = counts.sum()
            for k, (c, w) in enumerate(zip(parts(counts), weights)):
                y[k, u] = sides[k][1] * (c @ w @ c - shots) / (shots * (shots - 1))
        else:
            f = parts(freqs(rec, which or "rho"))
            g = parts(freqs(rec, which or "sigma"))
            for k, w in enumerate(weights):
                y[k, u] = sides[k][1] * f[k] @ w @ g[k]
    return y


def _loo_ratio_se(y, sides):
    """Jackknife error of max over ``sides`` (1 = A, 2 = B) of AB/X."""
    n = y.shape[1]
    loo = (y.sum(axis=1, keepdims=True) - y) / (n - 1)
    theta = np.max([loo[0] / loo[k] for k in sides], axis=0)
    return math.sqrt((n - 1) / n * np.sum((theta - theta.mean()) ** 2))


def _per_call_terms(records, cfg, which=None):
    """The per-setting AB, A, B terms of one pair, computed call by call as
    the reference for the cached term table: stack the rows, divide them by
    their shots, and apply the kernel to the second state of the pair."""
    kind = "_probs" if records[0].rho_probs is not None else "_counts"

    def freqs(name):
        data = np.asarray([getattr(rec, name + kind) for rec in records], dtype=float)
        shots = data.sum(axis=1)
        return (data, None) if kind == "_probs" else (data / shots[:, None], shots)

    (f, shots), g = freqs(which or "rho"), freqs(which or "sigma")[0]
    cube_f, cube_g = (x.reshape(len(x), cfg.d_a, cfg.d_b) for x in (f, g))
    sides = ((f, g, cfg.m + cfg.n), (cube_f.sum(axis=2), cube_g.sum(axis=2), cfg.m),
             (cube_f.sum(axis=1), cube_g.sum(axis=1), cfg.n))
    y = np.array([np.einsum("ui,ui->u", fx, _apply_hamming_kernel(gx, cfg.local_dim, q))
                  for fx, gx, q in sides])
    if which is not None and shots is not None:
        y = (shots * y - 1.0) / (shots - 1.0)
    return np.array([[cfg.d_a * cfg.d_b], [cfg.d_a], [cfg.d_b]]) * y


@pytest.mark.parametrize("local_dim,m,n", [(2, 2, 2), (2, 3, 1), (3, 1, 1), (3, 2, 1),
                                           (2, 3, 3), (3, 2, 2)])
@pytest.mark.parametrize("shots", [None, 200])
@pytest.mark.parametrize("which", [None, "rho", "sigma"])
def test_estimators_match_dense_reference(monkeypatch, local_dim, m, n, shots, which):
    monkeypatch.setattr(randomized, "SNR_GUARD", 0.0)
    dims = (local_dim,) * (m + n)
    rho = random_mixed(dims, rank=2, seed=81)
    sig = random_mixed(dims, rank=2, seed=82)
    cfg = ProtocolConfig(local_dim=local_dim, m=m, n=n, n_unitaries=40,
                         shots_per_setting=shots, seed=7)
    records = run_protocol(rho, sig, cfg)
    assert isinstance(records, Records)

    def estimate(recs):
        if which is None:
            return estimate_overlaps(recs, cfg)
        return estimate_self_overlaps(recs, cfg, which)

    # the Records' term table, the same rows as a list, and the per-call path
    est, rows = estimate(records), list(records)
    for other in (estimate(rows), _summarize(_per_call_terms(rows, cfg, which))):
        np.testing.assert_allclose(list(other.to_json().values()),
                                   list(est.to_json().values()), rtol=1e-12, atol=0.0)
    y = _dense_terms(records, cfg, which)
    means = y.mean(axis=1)
    ses = y.std(axis=1, ddof=1) / math.sqrt(y.shape[1])
    got = [est.overlap_ab, est.overlap_a, est.overlap_b,
           est.se_ab, est.se_a, est.se_b, est.s_a, est.s_b, est.s, est.se_s]
    want = [*means, *ses, means[0] / means[1], means[0] / means[2],
            max(means[0] / means[1], means[0] / means[2]), _loo_ratio_se(y, (1, 2))]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert est.reliable and est.n_settings == 40


def test_se_s_jackknifes_only_the_sides_that_pass_the_guard():
    # two qutrits on A, one on B: at 50 shots the A overlap fails the
    # guard while B passes, so s = s_B and se_s must be the spread of s_B
    rho = random_mixed((3, 3, 3), rank=1, seed=1)
    sig = random_mixed((3, 3, 3), rank=1, seed=51)
    cfg = ProtocolConfig(local_dim=3, m=2, n=1, n_unitaries=60,
                         shots_per_setting=50, seed=1)
    records = run_protocol(rho, sig, cfg)
    est = estimate_overlaps(records, cfg)
    assert est.overlap_a <= 10 * est.se_a and est.overlap_b > 10 * est.se_b
    assert est.reliable and est.s == est.s_b
    y = _dense_terms(records, cfg)
    assert est.se_s == pytest.approx(_loo_ratio_se(y, (2,)), rel=1e-12)
    assert est.se_s != pytest.approx(_loo_ratio_se(y, (1, 2)), rel=1e-3)


def test_no_side_passing_the_guard_reports_zero(monkeypatch):
    monkeypatch.setattr(randomized, "SNR_GUARD", 1e6)
    rho = random_mixed((2, 2), seed=91)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=10,
                         shots_per_setting=2, seed=4)
    est = estimate_self_overlaps(run_protocol(rho, rho, cfg), cfg, "rho")
    assert not est.reliable
    assert (est.s, est.se_s) == (0.0, 0.0)


def test_estimation_allocates_no_dense_weight_matrix():
    cfg = ProtocolConfig(local_dim=2, m=5, n=5, n_unitaries=8,
                         shots_per_setting=100, seed=0)
    dim = cfg.d_a * cfg.d_b
    rng = np.random.default_rng(5)
    uniform = np.full(dim, 1.0 / dim)
    eye = (np.eye(2),) * 5
    records = [
        MeasurementRecord(setting=u, unitaries_a=eye, unitaries_b=eye,
                          rho_counts=rng.multinomial(100, uniform),
                          sigma_counts=rng.multinomial(100, uniform))
        for u in range(cfg.n_unitaries)
    ]
    tracemalloc.start()
    try:
        estimate_overlaps(records, cfg)
        estimate_self_overlaps(records, cfg, "sigma")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a D x D float64 matrix alone would take 8 * dim**2 bytes
    assert peak < dim * dim


# ---------------------------------------------------------------------------
# persistence


def test_records_roundtrip_exact(tmp_path):
    rho = random_mixed((2, 2), seed=61)
    sig = random_mixed((2, 2), seed=62)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=25, seed=5)
    records = run_protocol(rho, sig, cfg)
    path = tmp_path / "records.jsonl"
    write_records(path, cfg, records)
    cfg2, records2 = read_records(path)
    assert cfg2 == cfg
    e1 = estimate_overlaps(records, cfg)
    e2 = estimate_overlaps(records2, cfg2)
    assert abs(e1.overlap_ab - e2.overlap_ab) < 1e-12
    assert abs(e1.s - e2.s) < 1e-12


def test_records_roundtrip_counts(tmp_path):
    rho = random_mixed((2, 2), seed=63)
    sig = random_mixed((2, 2), seed=64)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=25,
                         shots_per_setting=50, seed=6)
    records = run_protocol(rho, sig, cfg)
    path = tmp_path / "records.jsonl"
    write_records(path, cfg, records)
    cfg2, records2 = read_records(path)
    for a, b in zip(records, records2):
        assert np.array_equal(a.rho_counts, b.rho_counts)
        for ua, ub in zip(a.unitaries_a, b.unitaries_a):
            assert np.abs(ua - ub).max() < 1e-9
    assert estimate_overlaps(records2, cfg2) == estimate_overlaps(records, cfg)


_PINNED_UNITARIES = (
    '"unitaries_a": [[0.6, 0.0, -0.0, -0.8, -0.0, -0.8, 0.6, 0.0]], '
    '"unitaries_b": [[0.6, 0.0, 0.8, 0.0, -0.8, 0.0, 0.6, 0.0]]}\n')
_PINNED_RECORDS = {
    None: ['"rho_probs": [0.1, 0.2, 0.3, 0.4], "setting": 0, "sigma_probs": '
           '[0.3333333333333333, 0.16666666666666666, 0.5, 0.0], ',
           '"rho_probs": [0.25, 0.25, 0.25, 0.25], "setting": 1, '
           '"sigma_probs": [0.0, 1.0, 0.0, 0.0], '],
    5: ['"rho_counts": {"1": 2, "3": 3}, "setting": 0, "sigma_counts": {"0": 5}, ',
        '"rho_counts": {"0": 1, "1": 1, "2": 1, "3": 2}, "setting": 1, '
        '"sigma_counts": {"2": 4, "3": 1}, '],
}


@pytest.mark.parametrize("shots", [None, 5])
def test_write_records_bytes_are_pinned(tmp_path, shots):
    # the expected text is what write_records wrote before its unitaries
    # and counts were vectorized; the -0.0 entries, a real transposed
    # unitary and zero counts are the cases a conversion could change
    u = np.array([[0.6, -0.8j], [complex(-0.0, -0.8), 0.6]])
    v = np.array([[0.6, -0.8], [0.8, 0.6]]).T
    if shots is None:
        data = [{"rho_probs": np.array([0.1, 0.2, 0.3, 0.4]),
                 "sigma_probs": np.array([1 / 3, 1 / 6, 0.5, 0.0])},
                {"rho_probs": np.full(4, 0.25),
                 "sigma_probs": np.array([0.0, 1.0, 0.0, 0.0])}]
    else:
        data = [{"rho_counts": np.array([0, 2, 0, 3]),
                 "sigma_counts": np.array([5, 0, 0, 0])},
                {"rho_counts": np.array([1, 1, 1, 2]),
                 "sigma_counts": np.array([0, 0, 4, 1])}]
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=2,
                         shots_per_setting=shots, seed=3)
    path = tmp_path / "records.jsonl"
    write_records(path, cfg, [MeasurementRecord(setting=k, unitaries_a=(u,),
                                                unitaries_b=(v,), **d)
                              for k, d in enumerate(data)])
    mode = '"exact"' if shots is None else str(shots)
    header = ('{"protocol": {"design": "haar", "local_dim": 2, "m": 1, "n": 1, '
              '"n_unitaries": 2, "seed": 3, "shots_per_setting": ' + mode + "}}\n")
    want = header + "".join("{" + line + _PINNED_UNITARIES
                            for line in _PINNED_RECORDS[shots])
    assert path.read_text() == want


@pytest.mark.parametrize("design, local_dim, shots", [
    ("haar", 2, 1000), ("clifford", 2, 1000), ("haar", 3, 50), ("haar", 2, None),
    ("haar", 3, None),
])
def test_write_records_lines_are_sorted_json(tmp_path, design, local_dim, shots):
    # every line is json.dumps of its own parse with sorted keys, count
    # objects included (keys sorted as strings: "10" before "2")
    dims = (local_dim,) * 4 if local_dim == 2 else (local_dim,) * 3
    rho = random_mixed(dims, seed=71)
    sig = random_mixed(dims, seed=72)
    cfg = ProtocolConfig(local_dim=local_dim, m=2, n=len(dims) - 2, n_unitaries=30,
                         shots_per_setting=shots, seed=9, design=design)
    path = tmp_path / "records.jsonl"
    write_records(path, cfg, run_protocol(rho, sig, cfg))
    lines = path.read_text().splitlines()
    assert len(lines) == 31
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)
    if shots is not None:
        assert any(len(json.loads(line)["rho_counts"]) > 10 for line in lines[1:])


@pytest.mark.parametrize("local_dim, shots", [(2, 1000), (3, 50), (2, None), (3, None)])
def test_write_records_takes_records_or_rows(tmp_path, local_dim, shots):
    dims = (local_dim,) * 3
    cfg = ProtocolConfig(local_dim=local_dim, m=2, n=1, n_unitaries=30,
                         shots_per_setting=shots, seed=9)
    records = run_protocol(random_mixed(dims, seed=71), random_mixed(dims, seed=72), cfg)
    write_records(tmp_path / "a.jsonl", cfg, records)
    write_records(tmp_path / "b.jsonl", cfg, list(records))
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def _one_setting(shots, **fields):
    """A 1+1-qubit record of setting 0, with ``fields`` replaced."""
    data = ({"rho_probs": np.full(4, 0.25), "sigma_probs": np.full(4, 0.25)}
            if shots is None else
            {"rho_counts": np.array([1, 2, 0, 2]), "sigma_counts": np.array([5, 0, 0, 0])})
    eye = (np.eye(2, dtype=complex),)
    return MeasurementRecord(**{"setting": 0, "unitaries_a": eye, "unitaries_b": eye,
                                **data, **fields})


@pytest.mark.parametrize("shots, fields, message", [
    # each would otherwise be written without some of its counts, fail
    # with an error that names no setting, or give a file that
    # read_records refuses
    (5, {"rho_counts": np.array([1, 2, 0, 2, 3])}, "setting 0: rho_counts must hold 4 "),
    (5, {"sigma_counts": np.array([5, 0, 0])}, "setting 0: sigma_counts must hold 4 "),
    (5, {"unitaries_a": (np.eye(2),) * 2}, "setting 0: unitaries_a must be 1 2 x 2 unitaries"),
    (5, {"unitaries_b": (np.eye(3),)}, "setting 0: unitaries_b must be 1 2 x 2 unitaries"),
    (5, {"rho_counts": np.full(4, 1.25)}, "setting 0: rho_counts must hold 4 integer counts"),
    (5, {"unitaries_a": (np.full((2, 2), np.nan),)},
     "setting 0: unitaries_a holds a value that is not finite"),
    (None, {"rho_probs": [0.5, 0.5]}, "setting 0: rho_probs must hold 4 probabilities"),
    (5, {"unitaries_a": ([[1, 0], [0]],)}, "setting 0: unitaries_a must be 1 2 x 2 unitaries"),
    (5, {"sigma_counts": None, "sigma_probs": np.full(4, 0.25)},
     "setting 0 has no sigma_counts"),
], ids=["counts-longer", "counts-shorter", "two-unitaries-on-a", "qutrit-unitary-on-b",
        "counts-not-integer", "unitary-nan", "probs-shorter", "unitary-ragged",
        "one-kind-of-data"])
def test_write_records_rejects_malformed_records(tmp_path, shots, fields, message):
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=2, shots_per_setting=shots)
    records = [_one_setting(shots, setting=1), _one_setting(shots, **fields)]
    path = tmp_path / "records.jsonl"
    with pytest.raises(ValueError, match=message):
        write_records(path, cfg, records)
    assert not path.exists()
    with pytest.raises(ValueError, match=message):
        estimate_overlaps(records, cfg)


def test_write_records_rejects_no_records(tmp_path):
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=2)
    with pytest.raises(ValueError, match="there are no records"):
        write_records(tmp_path / "records.jsonl", cfg, [])


def _assert_same_record(got, want):
    assert type(got) is MeasurementRecord and got.setting == want.setting
    for name in ("unitaries_a", "unitaries_b"):
        assert len(getattr(got, name)) == len(getattr(want, name))
        assert all(np.array_equal(a, b) for a, b in zip(getattr(got, name),
                                                        getattr(want, name)))
    for name in ("rho_probs", "sigma_probs", "rho_counts", "sigma_counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None and b is None) or np.array_equal(a, b)


def _file_records(path, cfg):
    """The records of a written file, parsed line by line through json."""
    out = []
    for line in path.read_text().splitlines()[1:]:
        obj = json.loads(line)
        us = [np.array(u).view(complex).reshape(cfg.local_dim, cfg.local_dim)
              for u in obj["unitaries_a"] + obj["unitaries_b"]]
        data = {}
        for name in ("rho", "sigma"):
            if cfg.exact:
                data[name + "_probs"] = np.array(obj[name + "_probs"])
            else:
                dense = np.zeros(cfg.d_a * cfg.d_b, dtype=np.int64)
                for key, count in obj[name + "_counts"].items():
                    dense[int(key)] = count
                data[name + "_counts"] = dense
        out.append(MeasurementRecord(setting=obj["setting"], unitaries_a=tuple(us[:cfg.m]),
                                     unitaries_b=tuple(us[cfg.m:]), **data))
    return out


@pytest.mark.parametrize("source", ["run_protocol", "read_records"])
@pytest.mark.parametrize("local_dim, m, n, shots", [(2, 2, 1, None), (2, 1, 2, 40),
                                                    (3, 1, 1, None), (3, 1, 1, 40)])
def test_records_rows_are_measurement_records(tmp_path, source, local_dim, m, n, shots):
    dims = (local_dim,) * (m + n)
    rho, sig = random_mixed(dims, seed=21), random_mixed(dims, seed=22)
    cfg = ProtocolConfig(local_dim=local_dim, m=m, n=n, n_unitaries=12,
                         shots_per_setting=shots, seed=5)
    records = run_protocol(rho, sig, cfg)
    if source == "run_protocol":  # the per-setting reference protocol
        want = [MeasurementRecord(
            setting=u, unitaries_a=tuple(factors[:m]), unitaries_b=tuple(factors[m:]),
            **({"rho_probs": probs[0], "sigma_probs": probs[1]} if shots is None else
               {"rho_counts": counts[0], "sigma_counts": counts[1]}))
            for u, (factors, probs, counts) in enumerate(_reference_protocol(rho, sig, cfg))]
        if shots is None:  # probabilities agree to rounding, the rest exactly
            for rec, ref in zip(records, want):
                assert np.abs(rec.rho_probs - ref.rho_probs).max() <= 1e-15
                assert np.abs(rec.sigma_probs - ref.sigma_probs).max() <= 1e-15
            want = [MeasurementRecord(setting=ref.setting, unitaries_a=ref.unitaries_a,
                                      unitaries_b=ref.unitaries_b, rho_probs=rec.rho_probs,
                                      sigma_probs=rec.sigma_probs)
                    for rec, ref in zip(records, want)]
    else:
        # a file whose lines are out of setting order reads in file order
        path = tmp_path / "records.jsonl"
        write_records(path, cfg, records)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1] + lines[:0:-1]))
        cfg2, records = read_records(path)
        assert cfg2 == cfg
        want = _file_records(path, cfg)
        assert [rec.setting for rec in want] == list(range(11, -1, -1))
    assert isinstance(records, Records) and len(records) == len(want) == 12
    for got, ref in zip(records, want):  # iteration
        _assert_same_record(got, ref)
    for j in (0, 5, 11, -1, -12):
        _assert_same_record(records[j], want[j])
    for part in (slice(None), slice(3, 7), slice(None, None, -2), slice(10, 40)):
        rows = records[part]
        assert type(rows) is list and len(rows) == len(want[part])
        for got, ref in zip(rows, want[part]):
            _assert_same_record(got, ref)
    with pytest.raises(IndexError):
        records[12]


def test_reestimation_holds_two_blocks():
    # the three estimates of a 5+5-qubit Records build one term table, whose
    # kernel pass over the full outcome rows runs in two (N, D) float blocks
    cfg = ProtocolConfig(local_dim=2, m=5, n=5, n_unitaries=300,
                         shots_per_setting=1000, seed=0)
    settings, dim = cfg.n_unitaries, cfg.d_a * cfg.d_b
    rng = np.random.default_rng(5)
    data = rng.multinomial(1000, np.full(dim, 1.0 / dim), size=(2, settings))
    eye = np.broadcast_to(np.eye(2, dtype=complex), (settings, 10, 2, 2)).copy()
    records = Records(cfg, np.arange(settings), eye, data)
    tracemalloc.start()
    try:
        estimate_overlaps(records, cfg)
        estimate_self_overlaps(records, cfg, "rho")
        estimate_self_overlaps(records, cfg, "sigma")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the two blocks: each state's A and B outcome marginals, (N, 32)
    # floats each, and half a MiB for the ufuncs' buffers; a third block
    # would add 2.4 MiB
    assert peak <= 8 * settings * (2 * dim + 2 * (cfg.d_a + cfg.d_b)) + 2**19


def test_mean_errors_match_extended_precision():
    # se_b / overlap_b is about 9e-5 here; differencing leave-one-out
    # replicates lost three to four digits of se_b to cancellation
    dims = (3, 3, 3)
    rho = random_mixed(dims, seed=0)
    sig = random_mixed(dims, seed=100)
    cfg = ProtocolConfig(local_dim=3, m=2, n=1, n_unitaries=2000, seed=0)
    records = run_protocol(rho, sig, cfg)
    est = estimate_overlaps(records, cfg)
    y = _setting_terms(records, cfg, 0).astype(np.longdouble)
    n = y.shape[1]
    want = np.sqrt(np.sum((y - y.mean(axis=1, keepdims=True)) ** 2, axis=1)
                   / (n * (n - 1)))
    assert est.se_b / est.overlap_b < 1e-4
    got = np.array([est.se_ab, est.se_a, est.se_b], dtype=np.longdouble)
    assert float(np.max(np.abs(got - want) / want)) <= 1e-14


def _records_lines(path, shots):
    """The parsed lines of a 1+1-qubit, three-setting records file."""
    rho = random_mixed((2, 2), seed=63)
    sig = random_mixed((2, 2), seed=64)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=3,
                         shots_per_setting=shots, seed=6)
    write_records(path, cfg, run_protocol(rho, sig, cfg))
    return [json.loads(line) for line in path.read_text().splitlines()]


def _write_lines(path, lines):
    path.write_text("".join(json.dumps(obj, sort_keys=True) + "\n" for obj in lines))
    return path


def _tampered_counts_file(tmp_path, edit):
    """A shot-mode records file whose second setting's rho counts are edited:
    parsed, in place, or as written when ``edit`` is the text to put in front
    of the body (a repeated key, which no parsed dict holds)."""
    path = tmp_path / "records.jsonl"
    lines = _records_lines(path, 50)
    if callable(edit):
        edit(lines[2]["rho_counts"])
        return _write_lines(path, lines)
    text = path.read_text().splitlines(keepends=True)
    text[2] = text[2].replace('"rho_counts": {', '"rho_counts": {' + edit)
    path.write_text("".join(text))
    return path


@pytest.mark.parametrize("edit,message", [
    (lambda c: c.update({"-1": 3}), "setting 1: rho outcome key '-1' is outside 0..3"),
    (lambda c: c.update({"4": 3}), "setting 1: rho outcome key '4' is outside 0..3"),
    (lambda c: c.update({"2": -5}), "setting 1: rho outcome key '2' has a negative"),
    # three counts whose int64 sum wraps around to exactly the 50 shots
    (lambda c: (c.clear(), c.update(dict.fromkeys("012", 6148914691236517222))),
     "setting 1: rho outcome key '0' has a count above shots_per_setting"),
    (lambda c: c.update({"3": 51}),
     "setting 1: rho outcome key '3' has a count above shots_per_setting"),
    # numpy would read this count as 2**63 - 1, above the shots
    (lambda c: c.update({"3": 10**19 - 1}),
     "setting 1: rho_counts holds a value that is not a 64-bit integer"),
    # a key is decimal text as the writer writes it, or it names no outcome,
    # even where int would read it as one; the counts still sum to 50
    (lambda c: c.update({"00": c["0"]}), "setting 1: rho outcome key '00' is outside 0..3"),
    (lambda c: c.update({"\u0663": c["3"]}),
     "setting 1: rho outcome key '\u0663' is outside 0..3"),
    (lambda c: c.update({"0_2": c.pop("2")}), "setting 1: rho outcome key '0_2' is outside"),
    (lambda c: c.update({" 2 ": c.pop("2")}), "setting 1: rho outcome key ' 2 ' is outside"),
    (lambda c: c.update({"+2": c.pop("2")}), r"setting 1: rho outcome key '\+2' is outside"),
    (lambda c: c.update({"02": c.pop("2")}), "setting 1: rho outcome key '02' is outside"),
    # one key text twice, in the writer's layout and in a compact one: json
    # would keep the later count, and these still sum to 50
    ('"0": 99, ', "setting 1: rho outcome 0 is named by two keys, '0' and '0'"),
    ('"0":99,', "setting 1: rho outcome 0 is named by two keys, '0' and '0'"),
], ids=["negative-key", "key-past-dimension", "negative-count", "sum-wraps-to-shots",
        "count-above-shots", "count-past-int64", "outcome-named-twice",
        "outcome-named-by-a-digit-variant", "key-underscore", "key-spaces", "key-plus",
        "key-leading-zero", "key-repeated", "key-repeated-compact"])
def test_read_records_rejects_bad_counts(tmp_path, edit, message):
    path = _tampered_counts_file(tmp_path, edit)
    with pytest.raises(ValueError, match=message):
        read_records(path)


def _set(line, key, value):
    return lambda lines: lines[line].__setitem__(key, value)


@pytest.mark.parametrize("shots,edit,message", [
    (None, lambda ls: ls[2]["rho_probs"].pop(),
     "setting 1: rho_probs must hold 4 probabilities"),
    (None, lambda ls: ls[3].pop("sigma_probs"), "setting 2: sigma_probs is missing"),
    (50, lambda ls: ls[2]["unitaries_a"].append(ls[2]["unitaries_a"][0]),
     r"setting 1: unitaries_a must be a 1 x 8 array of floats"),
    (50, lambda ls: ls[1]["unitaries_b"][0].pop(),
     r"setting 0: unitaries_b must be a 1 x 8 array of floats"),
    (50, lambda ls: ls[2]["sigma_counts"].update({"0": 0}),
     "setting 1: sigma counts sum to 4[0-9], not shots_per_setting 50"),
    (50, lambda ls: ls[2]["rho_counts"].update({"3": 1.5}),
     "setting 1: rho_counts holds a value that is not a 64-bit integer"),
    (50, _set(2, "rho_counts", [3, 47]), "setting 1: rho_counts is not a JSON object"),
    (50, lambda ls: ls[1].pop("rho_counts"), "setting 0: rho_counts is missing"),
    (50, _set(3, "setting", 1), "setting 1 appears more than once"),
    (50, lambda ls: ls.pop(2), "setting 1 is missing"),
    (50, _set(3, "setting", 3), r"record 2: setting 3 is not an integer in 0..2"),
    (50, _set(3, "setting", True), r"record 2: setting True is not an integer"),
    (None, _set(0, "protocol", {"local_dim": 2, "m": 1, "n": 1}),
     r"missing keys \['n_unitaries'\]"),
    (None, lambda ls: ls[0]["protocol"].update({"m": 1.5}),
     "m must be an integer, not 1.5"),
    (None, lambda ls: ls[0]["protocol"].update({"seed": -1}), "seed must be >= 0"),
    (None, _set(2, "rho_probs", [math.nan] * 4),
     "setting 1: rho_probs holds a value that is not finite"),
    (None, _set(3, "sigma_probs", [5, -3, 0, 0]),
     r"setting 2: sigma_probs has an entry -3.000e\+00 below -1e-09"),
    (None, _set(1, "rho_probs", [0.5, 0.5, 0.5, 0.0]),
     "setting 0: rho_probs sums to 1.5, not 1"),
    (None, lambda ls: ls[2]["unitaries_b"][0].__setitem__(3, math.inf),
     "setting 1: unitaries_b holds a value that is not finite"),
    (50, lambda ls: ls[1]["unitaries_a"][0].__setitem__(0, math.nan),
     "setting 0: unitaries_a holds a value that is not finite"),
], ids=["probs-length", "probs-missing", "unitaries-count", "unitary-length",
        "count-sum", "count-not-integer", "counts-not-object", "counts-missing",
        "setting-repeated", "setting-missing", "setting-past-range", "setting-not-integer",
        "header-key-missing", "header-not-integer", "header-negative-seed", "probs-nan",
        "probs-negative", "probs-sum", "unitary-inf", "unitary-nan-shots"])
def test_read_records_rejects_malformed_files(tmp_path, shots, edit, message):
    path = tmp_path / "records.jsonl"
    lines = _records_lines(path, shots)
    edit(lines)
    with pytest.raises(ValueError, match=message):
        read_records(_write_lines(path, lines))


def _bump(counts, by):
    """Add ``by`` to the first count of a parsed count body."""
    counts[next(iter(counts))] += by


def _lead_zero(counts):
    """Write the first key of a parsed count body with a leading zero."""
    key = next(iter(counts))
    counts["0" + key] = counts.pop(key)


@pytest.mark.parametrize("shots,edit,message", [
    # a line that fails to parse raises as it is read, before the checks
    # that run once per file, of earlier lines too
    (50, lambda ls: (ls[1]["rho_counts"].update({"3": 51}),
                     ls[3]["sigma_counts"].update({"0": 1.5})),
     "setting 2: sigma_counts holds a value that is not a 64-bit integer"),
    (None, lambda ls: (ls[1].__setitem__("rho_probs", [0.5, 0.5, 0.5, 0.0]),
                       ls[3].pop("sigma_probs")),
     "setting 2: sigma_probs is missing"),
    # each check runs over the whole file in turn and names the first line
    # it fails: the settings first, key ranges before signs
    (50, lambda ls: (_bump(ls[1]["rho_counts"], 1), ls[3].__setitem__("setting", 1)),
     "setting 1 appears more than once"),
    (50, lambda ls: (ls[1]["rho_counts"].update({"3": -1}),
                     ls[3]["rho_counts"].update({"4": 1})),
     "setting 2: rho outcome key '4' is outside 0..3"),
    (50, lambda ls: (_bump(ls[3]["sigma_counts"], -1), _bump(ls[2]["sigma_counts"], -1)),
     "setting 1: sigma counts sum to 49, not shots_per_setting 50"),
    (None, lambda ls: (ls[3].__setitem__("rho_probs", [0.5, 0.5, 0.5, 0.0]),
                       ls[2].__setitem__("rho_probs", [1.0, 1.0, 0.0, 0.0])),
     "setting 1: rho_probs sums to 2.0, not 1"),
    # a fault on any line sends the whole file through json, which raises
    # the faults of earlier lines, in the writer's layout, first
    (50, lambda ls: (ls[1]["rho_counts"].update({"0": 10**19 - 1}),
                     ls[2].__setitem__("setting", 7)),
     "setting 0: rho_counts holds a value that is not a 64-bit integer"),
    (50, lambda ls: (_lead_zero(ls[1]["rho_counts"]),
                     ls[3]["unitaries_a"][0].__setitem__(0, True)),
     "setting 2: a value is a JSON boolean"),
], ids=["parse-after-count-fault", "missing-after-probs-fault", "settings-first",
        "range-before-sign", "first-line-of-a-sum", "first-line-of-a-probs-sum",
        "19-digits-before-setting", "boolean-before-key-leading-zero"])
def test_read_records_orders_faults_on_two_lines(tmp_path, shots, edit, message):
    path = tmp_path / "records.jsonl"
    lines = _records_lines(path, shots)
    edit(lines)
    with pytest.raises(ValueError, match=message):
        read_records(_write_lines(path, lines))


def test_read_records_accepts_exact_mode_rounding(tmp_path):
    # computed probabilities carry rounding: an entry of -1e-17 and a sum
    # off 1 in the last digits must still read
    path = tmp_path / "records.jsonl"
    lines = _records_lines(path, None)
    probs = lines[1]["rho_probs"]
    probs[1] += probs[0] + 3e-16
    probs[0] = -1e-17
    _, records = read_records(_write_lines(path, lines))
    assert records[0].rho_probs[0] == -1e-17
    assert records[0].rho_probs.tolist() == probs


# Values that are never a valid field, count or header integer: no array of
# the right shape, no integer, no object whose counts sum to the shots.
# Only _NOT_NUMBER may replace one entry of a probability vector or unitary.
_NOT_NUMBER = st.one_of(
    st.none(), st.booleans(), st.text(alphabet="xyz", max_size=3),
    st.just([]), st.just([[1.0], []]), st.just({}),
)
_JUNK = st.one_of(_NOT_NUMBER, st.floats().filter(lambda x: not x.is_integer()))


@st.composite
def _mutations(draw):
    """A function that breaks one field, entry or line of a well-formed file
    of the drawn mode, or one key of its header."""
    shots = draw(st.sampled_from([None, 50]))
    data = "_probs" if shots is None else "_counts"
    line = draw(st.integers(1, 3))
    field = draw(st.sampled_from(["setting", "unitaries_a", "unitaries_b",
                                  "rho" + data, "sigma" + data]))
    required = ["local_dim", "m", "n", "n_unitaries"] + ["shots_per_setting"] * bool(shots)
    key = draw(st.sampled_from(required))
    kind = draw(st.sampled_from(["replace", "delete", "entry", "line",
                                 "header", "header-delete"]))
    junk = draw(_JUNK)
    not_number = draw(_NOT_NUMBER)
    bump = draw(st.integers(-3, 3).filter(bool))

    def mutate(lines):
        obj = lines[line]
        if kind == "replace":
            obj[field] = junk
        elif kind == "delete":
            del obj[field]
        elif kind == "line":
            lines[line] = junk
        elif kind == "header":  # a required integer, or the design
            lines[0]["protocol"][key if bump > 0 else "design"] = junk
        elif kind == "header-delete":
            del lines[0]["protocol"][key]
        elif field == "setting":  # another setting's number, or out of range
            obj[field] = (obj[field] + bump) % 3 if bump % 3 else obj[field] + 3 * bump
        elif field.endswith("_counts"):
            first = next(iter(obj[field]))
            obj[field][first] = obj[field][first] + bump if bump > 0 else junk
        else:
            target = obj[field][0] if field.startswith("unitaries") else obj[field]
            target[0] = not_number
    return shots, mutate


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_mutations())
def test_read_records_fuzz_raises_only_value_errors(tmp_path_factory, mutation):
    shots, mutate = mutation
    path = tmp_path_factory.mktemp("fuzz") / "records.jsonl"
    lines = _records_lines(path, shots)
    mutate(lines)
    with pytest.raises(ValueError):
        read_records(_write_lines(path, lines))


def _compact(path, lines, sort_keys):
    """The parsed lines rewritten without spaces, a layout read through json."""
    path.write_text("".join(json.dumps(json.loads(line), sort_keys=sort_keys,
                                       separators=(",", ":")) + "\n" for line in lines))
    return path


def _read_or_fault(path):
    try:
        return read_records(path)
    except ValueError as err:
        return f"ValueError: {err}"


def _read_through_json(path):
    """_read_or_fault with every line off the writer's layout: the json pass."""
    with mock.patch.object(randomized, "_WRITTEN", re.compile("(?!)")):
        return _read_or_fault(path)


def _assert_same_reads(got, want):
    """Equal faults, or the same config and bit-identical records."""
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    assert got[0] == want[0] and len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert a.setting == b.setting
        for name in ("rho_counts", "sigma_counts", "unitaries_a", "unitaries_b"):
            x, y = (np.asarray(getattr(r, name)) for r in (a, b))
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


# (design, local_dim, m, n, settings, shots) by test id; 5+5 qubits has
# four-digit keys
_DECODE_CASES = {f"{m}-{design}-{local_dim}": (design, local_dim, m, 1, 40, 300)
                 for m in (2, 3) for design, local_dim in
                 (("clifford", 2), ("haar", 2), ("haar", 3))}
_DECODE_CASES["5+5-haar-2"] = ("haar", 2, 5, 5, 20, 1000)


@pytest.mark.parametrize("design, local_dim, m, n, settings, shots",
                         list(_DECODE_CASES.values()), ids=list(_DECODE_CASES))
def test_read_records_decode_paths_agree(monkeypatch, tmp_path, design, local_dim, m, n,
                                         settings, shots):
    # the writer's own file is decoded by numpy, a compact one through json
    dims = (local_dim,) * (m + n)
    rho = random_mixed(dims, seed=81)
    sig = random_mixed(dims, seed=82)
    cfg = ProtocolConfig(local_dim=local_dim, m=m, n=n, n_unitaries=settings,
                         shots_per_setting=shots, seed=4, design=design)
    path = tmp_path / "records.jsonl"
    write_records(path, cfg, run_protocol(rho, sig, cfg))
    lines = path.read_text().splitlines(keepends=True)
    compact = _compact(tmp_path / "compact.jsonl", lines, sort_keys=True)
    passes, read_lines = [], randomized._read_lines
    monkeypatch.setattr(randomized, "_read_lines", lambda lines, cfg, written: (
        passes.append(written), read_lines(lines, cfg, written))[1])
    got = read_records(path)
    assert passes == [True]
    want = read_records(compact)
    assert passes == [True, True, False]
    _assert_same_reads(got, want)
    assert estimate_overlaps(got[1], cfg) == estimate_overlaps(want[1], cfg)
    for which in ("rho", "sigma"):
        assert (estimate_self_overlaps(got[1], cfg, which)
                == estimate_self_overlaps(want[1], cfg, which))


@pytest.mark.parametrize("where", ["setting", "end"])
def test_read_records_repeated_count_field_reads_as_json_does(tmp_path, where):
    # json keeps the later of two rho_counts fields, whatever the layout
    path = tmp_path / "records.jsonl"
    _records_lines(path, 50)
    lines = path.read_text().splitlines(keepends=True)
    extra = '"rho_counts": {"2": 50}'
    old, new = (('"setting": 0', f'"setting": 0, {extra}') if where == "setting"
                else ("]]}\n", f"]], {extra}}}\n"))
    lines[1] = lines[1].replace(old, new)
    path.write_text("".join(lines))
    got = read_records(path)
    assert got[1][0].rho_counts.tolist() == [0, 0, 50, 0]
    _assert_same_reads(got, read_records(_compact(tmp_path / "c.jsonl", lines, False)))


@pytest.mark.parametrize("body,message", [
    ('"": 5', "setting 2: rho outcome key '' is outside 0..3"),
    ('"3": , "4": 1', "Expecting value: line 1 column 22 (char 21)"),
    ('"0": 50, "3": ', "Expecting value: line 1 column 31 (char 30)"),
], ids=["empty-key", "empty-count", "empty-last-count"])
def test_read_records_empty_number_reads_as_json_does(tmp_path, body, message):
    # a body whose digits are gone is a skeleton of the writer's layout; its
    # empty number sends the file through json, and numpy warns of nothing;
    # the last line's body ends the joined numbers, where numpy reads an
    # empty last number as none
    path = tmp_path / "records.jsonl"
    _records_lines(path, 50)
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = re.sub(r'"rho_counts": \{[^}]*\}', '"rho_counts": {' + body + '}', lines[3])
    path.write_text("".join(lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _read_or_fault(path)
    assert got.startswith(f"ValueError: {message}")
    assert got == _read_through_json(path)


def test_read_records_places_a_json_fault_in_the_line_as_written(tmp_path):
    # a written line broken after its count bodies reports json's own
    # message for that line, with the column in the line as written
    path = tmp_path / "records.jsonl"
    _records_lines(path, 50)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace("]]}", "]],}")
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as fault:
        json.loads(lines[2])
    with pytest.raises(ValueError) as err:
        read_records(path)
    assert str(err.value) == str(fault.value)


# Edits of one "key": count pair of a written count body, as (key, sep, value)
# texts; "append" and "copy" add a pair, "trail" leaves a trailing ", ".
_PAIR_EDITS = {
    "value-leading-zero": lambda k, s, v, n: (k, s, "0" + v),
    "key-leading-zero": lambda k, s, v, n: ("0" + k, s, v),
    "value-19-digits": lambda k, s, v, n: (k, s, str(n)),
    "value-plus": lambda k, s, v, n: (k, s, "+" + v),
    "value-minus": lambda k, s, v, n: (k, s, "-" + v),
    "value-float": lambda k, s, v, n: (k, s, v + ".0"),
    "value-one-point-zero": lambda k, s, v, n: (k, s, "1.0"),
    "no-space": lambda k, s, v, n: (k, ":", v),
    "extra-space": lambda k, s, v, n: (k, ":  ", v),
    "key-arabic-digit": lambda k, s, v, n: ("\u0663", s, v),
    "key-empty": lambda k, s, v, n: ("", s, v),
    "value-above-shots": lambda k, s, v, n: (k, s, str(50 + n % 3)),
    "key-18-digits": lambda k, s, v, n: (str(n // 10), s, v),
}


@st.composite
def _body_edit(draw, line):
    """A function that edits the text of one count body of written line
    ``line`` and returns the line."""
    which = draw(st.sampled_from(["rho", "sigma"]))
    kind = draw(st.sampled_from(sorted(_PAIR_EDITS) + ["append", "copy", "trail",
                                                       "comma-no-space"]))
    pick = draw(st.integers(0, 2**16))
    number = draw(st.integers(10**18, 10**19 - 1))

    def edit(lines):
        counts = json.loads(lines[line])[f"{which}_counts"]
        old = ", ".join(f'"{k}": {v}' for k, v in counts.items())
        assert f'"{which}_counts": {{{old}}}' in lines[line]
        pairs = [(k, ": ", str(v)) for k, v in counts.items()]
        i = pick % len(pairs)
        if kind in _PAIR_EDITS:
            pairs[i] = _PAIR_EDITS[kind](*pairs[i], number)
        elif kind == "append":  # an outcome written nowhere, counted once
            pairs.append((str(number % 4), ": ", "1"))
        elif kind == "copy":  # a repeated key; json keeps the later count
            pairs.insert(i + number % 2, (pairs[i][0], ": ", str(51 + number % 9)))
        new = ", ".join(f'"{k}"{s}{v}' for k, s, v in pairs)
        if kind == "trail":
            new += ", "
        elif kind == "comma-no-space":
            new = new.replace(", ", ",", 1)
        lines[line] = lines[line].replace(f'"{which}_counts": {{{old}}}',
                                          f'"{which}_counts": {{{new}}}')
        return lines[line]
    return edit


@st.composite
def _body_edits(draw):
    """A function that edits one count body of one written line, or of each
    of two lines, and returns the edited lines."""
    targets = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
    edits = [draw(_body_edit(line)) for line in targets]
    return lambda lines: [edit(lines) for edit in edits]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_body_edits())
def test_read_records_edited_count_body_reads_as_json_does(tmp_path_factory, edit):
    # the oracles: the file reads as its json pass does; a line json rejects
    # is a fault; a count body that repeats a key is a fault, the only one
    # if it is the one edit; and any other file reads as its parse rewritten
    # in a layout that always goes through json, the key order kept, as two
    # keys such as "3" and "\u0663" name one outcome
    folder = tmp_path_factory.mktemp("body")
    path = folder / "records.jsonl"
    _records_lines(path, 50)
    lines = path.read_text().splitlines(keepends=True)
    edited = edit(lines)
    path.write_text("".join(lines))
    got = _read_or_fault(path)
    _assert_same_reads(got, _read_through_json(path))
    bodies = []
    try:
        for line in edited:
            json.loads(line, object_pairs_hook=lambda pairs: bodies.append(pairs) or {})
    except ValueError:
        assert isinstance(got, str)
        return
    if any(len({key for key, _ in pairs}) < len(pairs) for pairs in bodies):
        assert isinstance(got, str)
        assert len(edited) > 1 or "is named by two keys" in got
        return
    _assert_same_reads(got, _read_or_fault(_compact(folder / "compact.jsonl", lines,
                                                    sort_keys=False)))


def test_estimators_name_the_setting_that_lacks_data():
    rho = random_mixed((2, 2), seed=63)
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=4,
                         shots_per_setting=50, seed=6)
    records = run_protocol(rho, rho, cfg)
    exact = run_protocol(rho, rho, ProtocolConfig(local_dim=2, m=1, n=1,
                                                  n_unitaries=4, seed=6))
    mixed = records[:2] + exact[2:]
    with pytest.raises(ValueError, match="setting 2 has no rho_counts"):
        estimate_overlaps(mixed, cfg)
    with pytest.raises(ValueError, match="setting 1 has no sigma_probs"):
        estimate_self_overlaps(exact[:1] + records[1:], cfg, "sigma")


def test_config_json_roundtrip():
    cfg = ProtocolConfig(local_dim=2, m=2, n=1, n_unitaries=10,
                         shots_per_setting=None, seed=7, design="clifford")
    assert ProtocolConfig.from_json(cfg.to_json()) == cfg
    assert cfg.to_json()["shots_per_setting"] == "exact"
    shots = ProtocolConfig(local_dim=3, m=1, n=2, n_unitaries=4, shots_per_setting=100)
    assert ProtocolConfig.from_json(shots.to_json()) == shots


def test_config_rejects_unknown_keys():
    # a misspelt key would otherwise run exact mode with the Haar design
    obj = {"local_dim": 2, "m": 1, "n": 1, "n_unitaries": 10, "shots": 1000,
           "desing": "clifford"}
    with pytest.raises(ValueError,
                       match=r"unknown keys \['desing', 'shots'\].*'shots_per_setting'"):
        ProtocolConfig.from_json(obj)


def test_protocol_rejects_misaligned_cut():
    # total dimension matches but no subsystem prefix forms side A
    rho = random_mixed((8, 2), seed=71)
    sig = random_mixed((8, 2), seed=72)
    cfg = ProtocolConfig(local_dim=2, m=2, n=2, n_unitaries=3)
    with pytest.raises(ValueError, match="cut"):
        run_protocol(rho, sig, cfg)
