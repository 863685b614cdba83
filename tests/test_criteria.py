"""Detection criteria: closed-form values, oracles, and containments."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import memoize_partner_sup, random_low_schmidt_mixture, random_separable
from overlapcert import (
    PureVec,
    QState,
    apply_lambda_map,
    corner_delta,
    corner_fbc_psi_boundary,
    corner_isotropic,
    corner_isotropic_closed_forms,
    extract_ipc_witness,
    fbc_spectrum_bound,
    fbc_witness_value,
    ghz_noisy,
    hs_inner,
    ipc_bound,
    isotropic,
    lambda_map_verdict,
    max_entangled,
    overlap_ratio,
    overlap_ratio_table,
    p3_ppt_check,
    partner_sup,
    permute_subsystems_matrix,
    pt_moments,
    purity_check,
    random_mixed,
    random_pure,
    reduction_check,
    schmidt_decompose,
    sn3_probe_state,
    sn3_unfaithful_state,
    sn_bound_from_ratio,
    tensor,
    verifier_state,
)

EPS = 1e-9


# ---------------------------------------------------------------------------
# overlap ratio


def test_isotropic_pair_ratio_is_d_times_x():
    for d in (2, 3, 5, 10):
        target = isotropic(d, 1.0)
        for x in np.linspace(1.0 / d**2, 1.0, 7):
            s = overlap_ratio(isotropic(d, x), target).s
            assert abs(s - d * x) < 1e-9


def test_product_pair_ratio_at_most_one():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = random_mixed((3,), seed=int(rng.integers(1 << 30)))
        b = random_mixed((3,), seed=int(rng.integers(1 << 30)))
        prod = tensor(a, b)
        assert overlap_ratio(prod, prod).s <= 1.0 + EPS


def test_sn3_state_peak_ratio():
    rho = sn3_unfaithful_state()
    sig = sn3_probe_state(7.0 / 54.0).projector()
    assert abs(overlap_ratio(rho, sig).s - 12.0 / 5.0) < 1e-9


def test_ratio_zero_denominator_convention():
    # orthogonal product states: global and local overlaps all vanish
    a = PureVec((2, 2), [1, 0, 0, 0]).projector()  # |00>
    b = PureVec((2, 2), [0, 0, 0, 1]).projector()  # |11>
    r = overlap_ratio(a, b)
    assert r.s == 0.0 and r.s_a == 0.0 and r.s_b == 0.0


def test_ratio_requires_matching_dims():
    with pytest.raises(ValueError, match="mismatch"):
        overlap_ratio(random_mixed((2, 2), seed=0), random_mixed((2, 3), seed=0))


_NOT_BIPARTITE = {
    "overlap_ratio": lambda rho, phi: overlap_ratio(rho, rho),
    "overlap_ratio_table": lambda rho, phi: overlap_ratio_table([rho], [rho]),
    "ipc_bound": lambda rho, phi: ipc_bound(rho, rho),
    "partner_sup": lambda rho, phi: partner_sup(rho),
    "reduction_check": lambda rho, phi: reduction_check(rho),
    "extract_ipc_witness": lambda rho, phi: extract_ipc_witness(rho),
    "purity_check": lambda rho, phi: purity_check(rho),
    "fbc_witness_value": lambda rho, phi: fbc_witness_value(rho, phi),
    "fbc_spectrum_bound": lambda rho, phi: fbc_spectrum_bound(rho),
    "pt_moments": lambda rho, phi: pt_moments(rho),
    "p3_ppt_check": lambda rho, phi: p3_ppt_check(rho),
    "schmidt_decompose": lambda rho, phi: schmidt_decompose(phi),
}


@pytest.mark.parametrize("name", sorted(_NOT_BIPARTITE))
def test_criteria_reject_a_state_not_bipartite_as_laid_out(name):
    rho, phi = random_mixed((2, 3, 2), seed=5), random_pure((2, 3, 2), seed=6)
    with pytest.raises(ValueError, match=r"^dims \(2, 3, 2\) are not bipartite as "
                       r"laid out; regroup the subsystems first with "
                       r"permute_subsystems_matrix$"):
        _NOT_BIPARTITE[name](rho, phi)


def _regrouped(state, cut):
    """``state`` as the bipartite state of the subsystem groups ``cut`` =
    (A, B) in that order; unchanged when ``cut`` is None."""
    if cut is None:
        return state
    dims = tuple(math.prod(state.dims[i] for i in side) for side in cut)
    return QState(dims, permute_subsystems_matrix(state.matrix, state.dims,
                                                  cut[0] + cut[1]))


@pytest.mark.parametrize("dims,cut", [
    ((3, 3), None),
    ((2, 3, 2), ((0, 2), (1,))),
    ((2, 3, 2), ((1,), (0, 2))),
], ids=["3x3", "2x3x2-split-0-2", "2x3x2-split-1"])
def test_ratio_table_equals_pairwise_ratios(dims, cut):
    rhos = [_regrouped(random_mixed(dims, seed=s), cut) for s in range(4)]
    sigmas = [_regrouped(random_mixed(dims, seed=20 + s), cut)
              for s in range(3)] + [rhos[0]]
    table = overlap_ratio_table(rhos, sigmas)
    pairwise = [[overlap_ratio(rho, sig).s for sig in sigmas] for rho in rhos]
    assert np.array_equal(table, pairwise)


@pytest.mark.parametrize("dims,cut", [
    ((3, 3), None),
    ((2, 3, 2), ((0, 2), (1,))),
], ids=["3x3", "2x3x2-split-0-2"])
def test_ratio_table_of_mixtures_equals_table_of_built_mixtures(dims, cut):
    rhos = [_regrouped(random_mixed(dims, seed=s), cut) for s in range(3)]
    sigmas = [_regrouped(random_mixed(dims, seed=30 + s), cut) for s in range(2)]
    dims = rhos[0].dims
    rng = np.random.default_rng(4)
    w = np.vstack([np.eye(3), rng.dirichlet(np.ones(3), size=5)])
    v = np.vstack([np.eye(2), rng.dirichlet(np.ones(2), size=4)])

    def mixtures(weights, states):
        return [QState(dims, sum(c * st.matrix for c, st in zip(row, states)))
                for row in weights]

    table = overlap_ratio_table(rhos, sigmas, rho_weights=w, sigma_weights=v)
    built = overlap_ratio_table(mixtures(w, rhos), mixtures(v, sigmas))
    assert np.allclose(table, built, rtol=1e-12, atol=0.0)
    # identity weights give the unweighted table exactly
    assert np.array_equal(overlap_ratio_table(rhos, sigmas, np.eye(3), np.eye(2)),
                          overlap_ratio_table(rhos, sigmas))


def test_ratio_table_keeps_the_zero_denominator_convention():
    a = PureVec((2, 2), [1, 0, 0, 0]).projector()  # |00>
    b = PureVec((2, 2), [0, 0, 0, 1]).projector()  # |11>
    assert np.array_equal(overlap_ratio_table([a, b], [a, b]), [[1.0, 0.0], [0.0, 1.0]])


def test_ratio_table_requires_matching_dims():
    with pytest.raises(ValueError, match="mismatch"):
        overlap_ratio_table([random_mixed((2, 2), seed=0)],
                            [random_mixed((2, 2), seed=1), random_mixed((2, 3), seed=0)])


# ---------------------------------------------------------------------------
# certified bound


def test_bound_isotropic_d10():
    v = ipc_bound(isotropic(10, 0.35), isotropic(10, 1.0))
    assert v.sn_lower_bound == 4  # ceil(3.5)
    assert v.detected


def test_bound_pure_state_with_verifier_is_exact_rank():
    for dims, seed in [((3, 3), 0), ((4, 4), 5)]:
        v = random_pure(dims, seed=seed)
        rank = schmidt_decompose(v).rank
        verdict = ipc_bound(v.projector(), verifier_state(v).projector())
        # a ratio of exactly r must certify r, not r+1
        assert verdict.sn_lower_bound == rank


def test_bound_separable_is_one():
    rng = np.random.default_rng(12)
    rho = random_separable(3, 3, rng)
    sig = random_mixed((3, 3), seed=77)
    v = ipc_bound(rho, sig)
    assert v.sn_lower_bound == 1
    assert not v.detected


def test_bound_ceiling_monotone_in_ratio():
    grid = np.linspace(0.0, 6.0, 1201)
    bounds = [sn_bound_from_ratio(s) for s in grid]
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert sn_bound_from_ratio(2.0) == 2  # exact integer stays put
    assert sn_bound_from_ratio(2.0 + 1e-6) == 3
    # an array takes the same rule elementwise; a float gives a Python int
    assert sn_bound_from_ratio(grid).tolist() == bounds
    assert type(sn_bound_from_ratio(2.0)) is int


def test_bound_isotropic_d3():
    v = ipc_bound(isotropic(3, 0.9), isotropic(3, 1.0))
    assert v.detected is True
    assert v.sn_lower_bound == 3  # ceil(2.7)


# ---------------------------------------------------------------------------
# reduction check and witness extraction


def test_reduction_detects_max_entangled():
    # oracle: whitened by rho_A = I/3, |Psi><Psi| has top eigenvalue 3
    verdict = reduction_check(max_entangled(3).projector(), 1)
    assert verdict.detected
    assert abs(verdict.values["sup"] - 3.0) < 1e-10
    assert verdict.sn_lower_bound == 2


def test_reduction_never_fires_on_white_noise():
    from overlapcert import QState

    rho = QState((3, 3), np.eye(9) / 9)
    for r in (1, 2, 3):
        assert not reduction_check(rho, r).detected


def test_reduction_detects_corner_for_every_positive_x():
    for d in (3, 4):
        for x in (1e-3, 0.2, 0.7, 1.0):
            assert reduction_check(corner_isotropic(d, x), 1).detected
    assert not reduction_check(corner_isotropic(3, 0.0), 1).detected


def test_witness_extraction_on_max_entangled():
    rho = max_entangled(3).projector()
    sig = extract_ipc_witness(rho, 1)
    assert sig is not None
    assert overlap_ratio(rho, sig).s > 1.0 + EPS


def test_witness_absent_for_separable():
    rng = np.random.default_rng(5)
    rho = random_separable(2, 2, rng)
    assert extract_ipc_witness(rho, 1) is None


def test_witness_agreement_with_reduction_level2():
    rho = corner_isotropic(4, 0.5)
    detected = reduction_check(rho, 2).detected
    wit = extract_ipc_witness(rho, 2)
    assert detected == (wit is not None)
    if wit is not None:
        assert overlap_ratio(rho, wit).s > 2.0 + EPS


def test_witness_equivalence_random_corpus(monkeypatch):
    memoize_partner_sup(monkeypatch)
    rng = np.random.default_rng(101)
    for trial in range(60):
        d_a, d_b = rng.choice([2, 3, 4], size=2)
        rho = random_mixed((int(d_a), int(d_b)), seed=int(rng.integers(1 << 30)))
        # reference: the eigenvalues of r rho_A x I - rho and r I x rho_B - rho
        t = rho.matrix.reshape(d_a, d_b, d_a, d_b)
        rho_a, rho_b = np.einsum("ajbj->ab", t), np.einsum("iaib->ab", t)
        for r in (1, 2, 3):
            detected = reduction_check(rho, r).detected
            wit = extract_ipc_witness(rho, r)
            assert detected == (wit is not None)
            ops = (r * np.kron(rho_a, np.eye(d_b)) - rho.matrix,
                   r * np.kron(np.eye(d_a), rho_b) - rho.matrix)
            assert detected == any(np.linalg.eigvalsh(op)[0] < -EPS for op in ops)
            if wit is not None:
                assert overlap_ratio(rho, wit).s > r + EPS


@pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10, 1e-11])
def test_no_certificate_for_separable_with_near_singular_marginal(eps):
    # whitening by a rho_X with eigenvalue eps scales rounding errors in the
    # sup by 1/eps; the verdict must not follow them over the tolerance
    rng = np.random.default_rng(17)
    for d_a, d_b in ((2, 2), (3, 3), (2, 4)):
        for _ in range(10):
            g = rng.normal(size=(d_a, d_a)) + 1j * rng.normal(size=(d_a, d_a))
            u = np.linalg.qr(g)[0][:, :2]
            a = u @ np.diag([1.0 - eps, eps]) @ u.conj().T
            b = random_pure((d_b,), seed=int(rng.integers(1 << 30))).projector().matrix
            for dims, m in (((d_a, d_b), np.kron(a, b)), ((d_b, d_a), np.kron(b, a))):
                rho = QState(dims, (m + m.conj().T) / 2)
                assert not reduction_check(rho, 1).detected
                assert extract_ipc_witness(rho, 1) is None


# ---------------------------------------------------------------------------
# partner supremum

_SEEDS = st.integers(0, 2**31 - 1)
_SIDES = st.sampled_from([2, 3, 4])
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(_SIDES, _SIDES, st.integers(1, 3), _SEEDS)
def test_partner_sup_at_most_r_below_schmidt_number_r(d_a, d_b, r, seed):
    rho = random_low_schmidt_mixture(d_a, d_b, r, np.random.default_rng(seed))
    assert partner_sup(rho).sup <= r + 1e-9


@_PROPERTY
@given(_SIDES, _SIDES, _SEEDS, _SEEDS)
def test_ratio_at_most_both_partner_sups(d_a, d_b, seed_rho, seed_sigma):
    dims = (d_a, d_b)
    rank = np.random.default_rng(seed_rho).integers(1, d_a * d_b + 1)
    rho = random_mixed(dims, rank=int(rank), seed=seed_rho)
    sigma = random_mixed(dims, seed=seed_sigma)
    bound = min(partner_sup(rho).sup, partner_sup(sigma).sup)
    assert overlap_ratio(rho, sigma).s <= bound + 1e-12


@_PROPERTY
@given(_SEEDS, st.integers(1, 12))
def test_partner_sup_sigma_attains_the_sup(seed, rank):
    for dims, cut in (((3, 4), None), ((2, 3, 2), ((0, 2), (1,)))):
        rho = _regrouped(random_mixed(dims, rank=rank, seed=seed), cut)
        best = partner_sup(rho)
        for side, sup in enumerate((best.sup_a, best.sup_b)):
            sigma = best.vecs[side].projector()
            assert sigma.dims == rho.dims
            ratio = overlap_ratio(rho, sigma)
            assert abs((ratio.s_a, ratio.s_b)[side] - sup) <= 1e-10 * sup


def test_partner_sup_closed_forms():
    for d in (2, 3, 5, 8):
        assert abs(partner_sup(max_entangled(d).projector()).sup - d) <= 1e-12 * d
        for x in np.linspace(1.0 / d**2, 1.0, 9):
            assert abs(partner_sup(isotropic(d, x)).sup - d * x) <= 1e-12 * d


def test_partner_sup_is_the_corner_pencil_top():
    from overlapcert.cli import _corner_pencil, _pencil_top

    for d in range(3, 11):
        for x in np.geomspace(1e-3, 1.0, 50):
            top = _pencil_top(*_corner_pencil(d, x))
            assert abs(partner_sup(corner_isotropic(d, x)).sup - top) <= 1e-12 * top


# ---------------------------------------------------------------------------
# purity check


def test_purity_detects_pure_entangled():
    v = purity_check(max_entangled(3).projector())
    assert v.detected
    assert v.sn_lower_bound == 3  # ratio 1 / (1/3)


def test_purity_ignores_white_noise():
    from overlapcert import QState

    assert not purity_check(QState((3, 3), np.eye(9) / 9)).detected


def test_purity_corner_boundary_matches_closed_form():
    for d in (3, 5):
        for x in np.linspace(0.01, 0.99, 25):
            forms = corner_isotropic_closed_forms(d, x)
            expect = forms["purity_global"] > forms["purity_local"] + EPS
            assert purity_check(corner_isotropic(d, x)).detected == expect


def test_purity_detects_exactly_when_it_certifies():
    # isotropic(4, x) has Tr rho_A^2 = 1/4; at this x, Tr rho^2 = 1/4 + 5e-10,
    # a purity ratio of 1 + 2e-9.  The absolute gap test said "not detected"
    # beside a bound of 2
    x = (1.0 + math.sqrt(240.0 * (0.25 + 5e-10) - 15.0)) / 16.0
    v = purity_check(isotropic(4, x))
    assert abs(v.values["purity_global"] - v.values["purity_a"] - 5e-10) <= 1e-15
    assert abs(v.values["purity_ratio"] - (1.0 + 2e-9)) <= 1e-14
    assert v.sn_lower_bound == 2
    assert v.detected


def test_bounds_are_capped_at_the_smaller_dimension():
    # validation slack can push a ratio past min(d_A, d_B), which no state of
    # these dimensions exceeds (ROADMAP item 1); the bound stops there.  A
    # product rho against a sigma with eigenvalues -1e-9 gives s = 21
    rho = QState((2, 2), np.diag([1.0, 0.0, 0.0, 0.0]))
    sigma = QState((2, 2), np.diag([1.05e-9, -1e-9, -1e-9, 1.0 - 1.05e-9 + 2e-9]))
    v = ipc_bound(rho, sigma)
    assert abs(v.values["s"] - 21.0) <= 1e-6
    assert v.sn_lower_bound == 2
    assert ipc_bound(sigma, rho).sn_lower_bound == 2
    # (1 + 3e)|Phi><Phi| - e(I - |Phi><Phi|) has Tr rho^2 = 1 + 6e + 12e^2 and
    # rho_A = I/2: a purity ratio above 2 + 1e-9
    e, phi = 0.9e-9, max_entangled(2).projector().matrix
    v = purity_check(QState((2, 2), (1.0 + 4.0 * e) * phi - e * np.eye(4)))
    assert v.values["purity_ratio"] > 2.0 + 1e-8
    assert v.sn_lower_bound == 2
    assert v.detected


def test_purity_matches_self_ratio_bound():
    rho = isotropic(4, 0.9)
    assert (
        purity_check(rho).sn_lower_bound
        == ipc_bound(rho, rho).sn_lower_bound
    )


# ---------------------------------------------------------------------------
# fidelity witnesses


def test_fbc_isotropic_threshold():
    d = 4
    psi = max_entangled(d)
    for x in (0.1, 1.0 / d - 0.01, 1.0 / d + 0.01, 0.9):
        verdict = fbc_witness_value(isotropic(d, x), psi, 1)
        assert verdict.detected == (x > 1.0 / d)


def test_fbc_corner_threshold():
    for d in (3, 4, 6):
        x_star = corner_fbc_psi_boundary(d, 1)
        assert abs(x_star - (d - 2) / (d * d - d - 1)) < 1e-15
        psi = max_entangled(d)
        for dx in (-0.02, 0.02):
            verdict = fbc_witness_value(corner_isotropic(d, x_star + dx), psi, 1)
            assert verdict.detected == (dx > 0)


def test_fbc_pure_state_self_witness():
    v = random_pure((4, 4), seed=3)
    rank = schmidt_decompose(v).rank
    for r in range(1, rank):
        verdict = fbc_witness_value(v.projector(), v, r)
        top = float(np.sum(schmidt_decompose(v).coeffs[:r]))
        assert abs(verdict.values["witness_value"] - (top - 1.0)) < 1e-12
        assert verdict.detected


def test_fbc_rejects_low_rank_witness():
    phi = PureVec((3, 3), np.eye(9)[0])  # |00>
    with pytest.raises(ValueError, match="rank"):
        fbc_witness_value(random_mixed((3, 3), seed=1), phi, 2)


def test_spectrum_bound_sn3_state():
    assert fbc_spectrum_bound(sn3_unfaithful_state(), 2)


def test_spectrum_bound_corner_tracks_delta():
    for d in (3, 5):
        for r in (1, 2):
            for x in (0.05, 0.3, 0.8):
                expect = corner_delta(d, x) <= r / d + EPS
                assert fbc_spectrum_bound(corner_isotropic(d, x), r) == expect


def test_spectrum_bound_white_noise():
    from overlapcert import QState

    assert fbc_spectrum_bound(QState((3, 3), np.eye(9) / 9), 1)


def test_spectrum_bound_blocks_all_witnesses():
    # when the bound holds, sampled witnesses must all fail to detect
    rng = np.random.default_rng(19)
    states = [corner_isotropic(4, 0.15), sn3_unfaithful_state()]
    levels = [1, 2]
    for rho, r in zip(states, levels):
        assert fbc_spectrum_bound(rho, r)
        for _ in range(200):
            phi = random_pure(rho.dims, seed=int(rng.integers(1 << 30)))
            if schmidt_decompose(phi).rank < r:
                continue
            assert not fbc_witness_value(rho, phi, r).detected


# ---------------------------------------------------------------------------
# partial-transpose moments


def test_pt_moments_product_state_factorize():
    a = random_mixed((3,), seed=21)
    b = random_mixed((3,), seed=22)
    joint = tensor(a, b)
    p = pt_moments(joint)
    for k in (2, 3):
        ea = np.linalg.eigvalsh(a.matrix)
        eb = np.linalg.eigvalsh(b.matrix)
        expect = float((ea**k).sum() * (eb**k).sum())
        assert abs(p[k - 1] - expect) < 1e-10
    assert abs(p[0] - 1.0) < 1e-10


def test_pt_moments_bell():
    p = pt_moments(max_entangled(2).projector())
    assert abs(p[1] - 1.0) < 1e-12
    assert abs(p[2] - 0.25) < 1e-12


def test_pt_moment_gap_corner_polynomial():
    for d in (3, 4, 5, 6):
        for x in np.arange(0.1, 0.95, 0.2):
            p = pt_moments(corner_isotropic(d, float(x)))
            gap = p[1] ** 2 - p[2]
            forms = corner_isotropic_closed_forms(d, float(x))
            assert abs(gap - forms["p2sq_minus_p3"]) < 1e-10


def test_p3_ppt_detects_max_entangled():
    v = p3_ppt_check(max_entangled(2).projector())
    assert v.detected
    assert abs(v.values["gap"] - 0.75) < 1e-12


def test_p3_ppt_ignores_white_noise_and_small_x():
    from overlapcert import QState

    assert not p3_ppt_check(QState((3, 3), np.eye(9) / 9)).detected
    for d in (3, 4):
        assert not p3_ppt_check(corner_isotropic(d, 0.05)).detected


# ---------------------------------------------------------------------------
# corner closed forms vs numerics


def test_corner_delta_matches_spectrum():
    for d in (3, 4, 6):
        for x in np.linspace(0.0, 1.0, 9):
            top = np.linalg.eigvalsh(corner_isotropic(d, float(x)).matrix)[-1]
            assert abs(top - corner_delta(d, float(x))) < 1e-10


def test_corner_delta_pure_limit_is_one():
    # at x=1 the state is the maximally entangled projector, top eigenvalue 1
    assert abs(corner_delta(3, 1.0) - 1.0) < 1e-12
    top = np.linalg.eigvalsh(corner_isotropic(3, 1.0).matrix)[-1]
    assert abs(top - 1.0) < 1e-12


_CORNER_REFUSALS = [
    # corner_delta(2, 0.5) gave 0.854 and corner_fbc_psi_boundary(5, 0)
    # -0.0526, (5, 9) 1.84 and (2, 1) 0.0, for a family that needs d >= 3
    (lambda: corner_delta(2, 0.5), "corner-isotropic family needs d >= 3"),
    (lambda: corner_delta(5, -0.1), "x=-0.1 outside [0, 1]"),
    (lambda: corner_delta(5, 1.5), "x=1.5 outside [0, 1]"),
    (lambda: corner_isotropic_closed_forms(2, 0.5), "corner-isotropic family needs d >= 3"),
    (lambda: corner_isotropic_closed_forms(5, 1.5), "x=1.5 outside [0, 1]"),
    (lambda: corner_fbc_psi_boundary(5, 0), "r must be an integer >= 1, not 0"),
    (lambda: corner_fbc_psi_boundary(5, 2.0), "r must be an integer >= 1, not 2.0"),
    (lambda: corner_fbc_psi_boundary(5, True), "r must be an integer >= 1, not True"),
    (lambda: corner_fbc_psi_boundary(5, 9),
     "corner-isotropic family needs d >= 3 and r <= d, not d=5, r=9"),
    (lambda: corner_fbc_psi_boundary(2, 1),
     "corner-isotropic family needs d >= 3 and r <= d, not d=2, r=1"),
]


@pytest.mark.parametrize("call, message", _CORNER_REFUSALS,
                         ids=[m for _, m in _CORNER_REFUSALS])
def test_corner_closed_forms_refuse_what_the_family_lacks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_corner_closed_forms_take_their_whole_range():
    # both ends of x, r = d (witness detection only at x = 1), and a numpy level
    assert corner_delta(3, 0.0) == 0.25 and abs(corner_delta(3, 1.0) - 1.0) < 1e-12
    assert corner_fbc_psi_boundary(5, 5) == 1.0
    assert corner_fbc_psi_boundary(5, np.int64(2)) == corner_fbc_psi_boundary(5, 2)


def test_corner_closed_forms_match_numerics():
    for d in (3, 5):
        for x in (0.2, 0.6):
            rho = corner_isotropic(d, x)
            forms = corner_isotropic_closed_forms(d, x)
            assert abs(forms["purity_global"] - hs_inner(rho, rho)) < 1e-9
            local = purity_check(rho).values["purity_a"]
            assert abs(forms["purity_local"] - local) < 1e-9


# ---------------------------------------------------------------------------
# soundness and containment (small corpora; the full sizes run in acceptance)


def test_soundness_separable_small():
    rng = np.random.default_rng(77)
    for trial in range(200):
        d_a, d_b = rng.choice([2, 3], size=2)
        rho = random_separable(int(d_a), int(d_b), rng)
        sig = random_mixed((int(d_a), int(d_b)), seed=int(rng.integers(1 << 30)))
        assert overlap_ratio(rho, sig).s <= 1.0 + EPS


def test_soundness_low_schmidt_small():
    rng = np.random.default_rng(78)
    for trial in range(60):
        rho = random_low_schmidt_mixture(3, 3, 2, rng)
        sig = random_mixed((3, 3), seed=int(rng.integers(1 << 30)))
        assert overlap_ratio(rho, sig).s <= 2.0 + EPS


def test_fbc_detection_implies_ratio_detection():
    # half the corpus is aligned with the sampled witness so detections
    # actually occur; the containment must hold on every detection
    rng = np.random.default_rng(79)
    hits = 0
    for trial in range(150):
        phi = random_pure((3, 3), seed=int(rng.integers(1 << 30)))
        if trial % 2:
            rho = random_mixed((3, 3), rank=int(rng.integers(1, 5)),
                               seed=int(rng.integers(1 << 30)))
        else:
            q = rng.uniform(0.5, 1.0)
            noise = random_mixed((3, 3), seed=int(rng.integers(1 << 30)))
            from overlapcert import QState

            rho = QState((3, 3), q * phi.projector().matrix + (1 - q) * noise.matrix)
        if fbc_witness_value(rho, phi, 1).detected:
            hits += 1
            assert ipc_bound(rho, phi.projector()).detected
    assert hits > 0  # the corpus must actually exercise the containment


def test_purity_detection_implies_ratio_detection():
    rng = np.random.default_rng(80)
    hits = 0
    for trial in range(150):
        rho = random_mixed((2, 3), rank=int(rng.integers(1, 4)),
                           seed=int(rng.integers(1 << 30)))
        if purity_check(rho).detected:
            hits += 1
            assert ipc_bound(rho, rho).detected
    assert hits > 0


# ---------------------------------------------------------------------------
# the Schmidt-number level r


_ISO, _GHZ = isotropic(3, 0.9), ghz_noisy(3, 2, 0.8)
_LEVEL_CALLS = {
    "certificate": lambda r: partner_sup(_ISO).certificate(r),
    "reduction_check": lambda r: reduction_check(_ISO, r),
    "extract_ipc_witness": lambda r: extract_ipc_witness(_ISO, r),
    "fbc_witness_value": lambda r: fbc_witness_value(_ISO, max_entangled(3), r),
    "fbc_spectrum_bound": lambda r: fbc_spectrum_bound(_ISO, r),
    "apply_lambda_map": lambda r: apply_lambda_map(_GHZ, r),
    "lambda_map_verdict": lambda r: lambda_map_verdict(_GHZ, _GHZ, r),
}


def _same_result(a, b):
    if a is None or b is None:
        return a is b
    for attr in ("vec", "matrix"):  # PureVec, QState
        if hasattr(a, attr):
            return np.array_equal(getattr(a, attr), getattr(b, attr))
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("call", list(_LEVEL_CALLS.values()), ids=list(_LEVEL_CALLS))
def test_level_r_is_an_integer_at_least_one(call):
    # r = 2.5 gave reduction_check an sn_lower_bound of 3.5, and
    # fbc_witness_value a TypeError from a slice
    for bad in (0, -1, 2.5, 2.0, True, np.True_, np.float64(2.0), "2", None):
        message = f"r must be an integer >= 1, not {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)
    # a numpy integer is the same level as the int
    assert _same_result(call(np.int64(2)), call(2))
    assert _same_result(call(np.int32(1)), call(1))
