"""Bipartition-scan criterion and the tripartite inversion-map test."""

import itertools

import numpy as np
import pytest

from corpus import random_separable, random_tripartite_separable
from overlapcert import (
    QState,
    apply_lambda_map,
    bipartitions,
    ghz_noisy,
    ghz_pure,
    hs_inner,
    lambda_map_verdict,
    multipartite_ipc,
    permute_subsystems_matrix,
    random_mixed,
)

EPS = 1e-9


def lambda_map_oracle(rho: QState, r: int) -> np.ndarray:
    """Independent construction: apply the single-site maps to matrix units."""
    d_a, d_b, d_c = rho.dims
    out = np.zeros_like(rho.matrix)
    cube = rho.matrix.reshape(rho.dims + rho.dims)
    for ia, ja in itertools.product(range(d_a), repeat=2):
        ea = np.zeros((d_a, d_a), dtype=complex)
        ea[ia, ja] = 1.0
        la = np.trace(ea) * np.eye(d_a) - ea / r
        for ib, jb in itertools.product(range(d_b), repeat=2):
            eb = np.zeros((d_b, d_b), dtype=complex)
            eb[ib, jb] = 1.0
            lb = np.trace(eb) * np.eye(d_b) + eb
            block_c = cube[ia, ib, :, ja, jb, :]
            out += np.kron(np.kron(la, lb), block_c)
    return out


# ---------------------------------------------------------------------------
# bipartition enumeration


def test_bipartition_count_and_canonical_form():
    for n in (3, 4, 5, 6):
        cuts = bipartitions(n)
        assert len(cuts) == 2 ** (n - 1) - 1
        seen = set()
        for kept in cuts:
            assert 0 in kept
            assert 0 < len(kept) < n
            assert kept not in seen
            seen.add(kept)


def test_bipartitions_are_sorted_kept_tuples():
    # each cut is its kept side as a plain sorted tuple holding subsystem 0,
    # one per subset of the other subsystems bar all of them, in mask order
    for n in (3, 4, 5):
        cuts = bipartitions(n)
        assert all(type(kept) is tuple and kept == tuple(sorted(set(kept))) and kept[0] == 0
                   for kept in cuts)
        assert set(cuts) == {kept for size in range(1, n)
                             for kept in itertools.combinations(range(n), size) if 0 in kept}
    assert bipartitions(3) == [(0,), (0, 1), (0, 2)]


def test_bipartition_size_limits():
    with pytest.raises(ValueError):
        bipartitions(1)
    with pytest.raises(ValueError):
        bipartitions(13)


# ---------------------------------------------------------------------------
# bipartition-scan criterion


def test_ghz_detection_thresholds():
    for n in (3, 4, 5):
        p_star = 1.0 / (2 ** (n - 1) + 1)
        sig = ghz_pure(n, 2).projector()
        for dp in (-1e-3, 1e-3):
            rho = ghz_noisy(n, 2, p_star + dp)
            verdict = multipartite_ipc(rho, sig)
            assert verdict.detected == (dp > 0)


def test_ghz_cut_overlap_values():
    n, p = 4, 0.3
    rho = ghz_noisy(n, 2, p)
    sig = ghz_pure(n, 2).projector()
    verdict = multipartite_ipc(rho, sig)
    assert abs(verdict.global_overlap - ((1 - p) / 2**n + p)) < 1e-12
    for cut in verdict.cut_table:
        k = len(cut.kept)
        assert abs(cut.overlap_kept - ((1 - p) / 2**k + p / 2)) < 1e-12
        assert abs(cut.overlap_rest - ((1 - p) / 2 ** (n - k) + p / 2)) < 1e-12
    # the binding cut keeps all but one party
    assert abs(verdict.min_value - ((1 - p) / 2 ** (n - 1) + p / 2)) < 1e-12


def test_fully_separable_never_detected():
    rng = np.random.default_rng(301)
    for trial in range(1000):
        rho = random_tripartite_separable((2, 2, 2), rng)
        sig = random_mixed((2, 2, 2), seed=int(rng.integers(1 << 30)))
        assert not multipartite_ipc(rho, sig).detected


def test_multipartite_requires_three_parties():
    rho = random_mixed((2, 2), seed=0)
    with pytest.raises(ValueError, match="bipartite"):
        multipartite_ipc(rho, rho)


def test_multiverdict_holds_full_table():
    rho = ghz_noisy(3, 2, 0.9)
    sig = ghz_pure(3, 2).projector()
    verdict = multipartite_ipc(rho, sig)
    assert verdict.detected is True
    assert [cut.kept for cut in verdict.cut_table] == bipartitions(3)
    assert verdict.min_cut in bipartitions(3)


# ---------------------------------------------------------------------------
# inversion-map value


def test_lambda_closed_form_matches_explicit_matrix():
    rng = np.random.default_rng(302)
    for dims in [(2, 2, 2), (2, 3, 2), (3, 2, 4)]:
        rho = random_mixed(dims, seed=int(rng.integers(1 << 30)))
        sig = random_mixed(dims, seed=int(rng.integers(1 << 30)))
        for r in (1, 2, 3):
            closed = lambda_map_verdict(rho, sig, r).value
            explicit = hs_inner(apply_lambda_map(rho, r), sig.matrix)
            assert abs(closed - explicit) < 1e-10


def test_lambda_explicit_matches_single_site_oracle():
    rng = np.random.default_rng(303)
    for dims in [(2, 2, 2), (2, 2, 3)]:
        rho = random_mixed(dims, seed=int(rng.integers(1 << 30)))
        for r in (1, 2):
            np.testing.assert_allclose(
                apply_lambda_map(rho, r), lambda_map_oracle(rho, r), atol=1e-11
            )


def test_lambda_symmetry_between_arguments():
    rng = np.random.default_rng(304)
    for _ in range(5):
        rho = random_mixed((2, 2, 2), seed=int(rng.integers(1 << 30)))
        sig = random_mixed((2, 2, 2), seed=int(rng.integers(1 << 30)))
        lhs = lambda_map_verdict(rho, sig, 2).value
        rhs = hs_inner(rho.matrix, apply_lambda_map(sig, 2))
        assert abs(lhs - rhs) < 1e-10


def test_lambda_noisy_ghz_closed_form():
    # affine in p: the pure part contributes 2/d - (1/r)(1/d + 1) and the
    # white-noise part (1/d)(1 + 1/d)(1 - 1/(r d)); both follow from the
    # overlap expansion and are confirmed by the explicit matrix here
    for d in (2, 3, 4):
        sig = ghz_pure(3, d).projector()
        for p in (0.0, 0.3, 0.7, 1.0):
            rho = ghz_noisy(3, d, p)
            for r in (1, 2, 3):
                pure_part = 2.0 / d - (1.0 / r) * (1.0 / d + 1.0)
                noise_part = (1.0 / d) * (1.0 + 1.0 / d) * (1.0 - 1.0 / (r * d))
                expect = p * pure_part + (1 - p) * noise_part
                assert abs(lambda_map_verdict(rho, sig, r).value - expect) < 1e-12
                explicit = hs_inner(apply_lambda_map(rho, r), sig.matrix)
                assert abs(explicit - expect) < 1e-12


def test_lambda_requires_three_parties():
    rho = random_mixed((2, 2), seed=0)
    with pytest.raises(ValueError, match="three"):
        lambda_map_verdict(rho, rho, 1).value


# ---------------------------------------------------------------------------
# verdicts


def brute_r_op(rho, sig, cap=64):
    out = 0
    for r in range(1, cap):
        if lambda_map_verdict(rho, sig, r).value < -EPS:
            out = r
        else:
            break
    return out


def test_verdict_r_op_matches_brute_scan():
    rng = np.random.default_rng(305)
    cases = [
        (ghz_noisy(3, 2, 0.9), ghz_pure(3, 2).projector()),
        (ghz_noisy(3, 3, 0.99), ghz_pure(3, 3).projector()),
        (ghz_noisy(3, 4, 0.95), ghz_pure(3, 4).projector()),
        (random_mixed((2, 2, 2), seed=1), random_mixed((2, 2, 2), seed=2)),
    ]
    for rho, sig in cases:
        verdict = lambda_map_verdict(rho, sig, 1)
        assert verdict.r_op == brute_r_op(rho, sig)


def test_verdict_noisy_ghz_d4_reaches_level_two():
    rho = ghz_noisy(3, 4, 0.95)
    sig = ghz_pure(3, 4).projector()
    assert lambda_map_verdict(rho, sig, 2).r_op >= 2


def test_verdict_reports_disjunction_only_when_detected():
    rho = ghz_noisy(3, 2, 0.9)
    sig = ghz_pure(3, 2).projector()
    hit = lambda_map_verdict(rho, sig, 1)
    assert hit.detected and hit.conclusion is not None
    assert len(hit.conclusion) == 2
    miss = lambda_map_verdict(ghz_noisy(3, 2, 0.0), sig, 1)
    assert not miss.detected and miss.conclusion is None


def test_product_structures_never_negative():
    # the three product arrangements the map is positive on
    rng = np.random.default_rng(306)
    d = 2
    dims = (d, d, d)
    for trial in range(30):
        sig = random_mixed(dims, seed=int(rng.integers(1 << 30)))
        kind = trial % 3
        if kind == 0:
            # separable across A|C, times B: layout (A, C, B) -> (A, B, C)
            m_ac = random_separable(d, d, rng).matrix
            m_b = random_mixed((d,), seed=int(rng.integers(1 << 30))).matrix
            m = np.kron(m_ac, m_b)
            m = permute_subsystems_matrix(m, (d, d, d), [0, 2, 1])
        elif kind == 1:
            m_ab = random_mixed((d, d), seed=int(rng.integers(1 << 30))).matrix
            m_c = random_mixed((d,), seed=int(rng.integers(1 << 30))).matrix
            m = np.kron(m_ab, m_c)
        else:
            m_bc = random_mixed((d, d), seed=int(rng.integers(1 << 30))).matrix
            m_a = random_mixed((d,), seed=int(rng.integers(1 << 30))).matrix
            m = np.kron(m_a, m_bc)
        rho = QState(dims, m)
        assert lambda_map_verdict(rho, sig, 1).value >= -EPS
