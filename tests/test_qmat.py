"""Core linear-algebra operations against independent oracles."""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest

from overlapcert import (
    PureVec,
    QState,
    embed_operator,
    hs_inner,
    partial_trace_matrix,
    partial_transpose_matrix,
    permute_subsystems_matrix,
    schmidt_decompose,
    tensor,
)
from overlapcert.multipartite import bipartitions
from overlapcert.multipartite import apply_lambda_map
from overlapcert.qmat import (_from_json, _load_json, _overlap_table, _overlaps, _reductions,
                              _trace_product)
from overlapcert.cli import main
from overlapcert.randomized import ProtocolConfig, read_records, run_protocol, write_records
from overlapcert.states import (StateSpec, build_density, ghz_noisy, isotropic,
                                max_entangled, random_mixed, random_pure)
from overlapcert.variational import OptConfig, _objective


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def one_trace_at_a_time(m, dims, keep):
    """Partial trace onto ``keep``, one np.trace per traced subsystem, the
    last subsystem first as in the package's walk, with nothing shared."""
    t, n = m.reshape(dims + dims), len(dims)
    for i in range(n - 1, -1, -1):
        if i not in keep:
            t, n = np.trace(t, axis1=i, axis2=i + n), n - 1
    side = math.prod(t.shape[:n])
    return t.reshape(side, side)


def einsum_partial_trace(m, dims, keep):
    """Partial trace onto ``keep`` as one np.einsum contraction."""
    n = len(dims)
    cols = [n + i if i in keep else i for i in range(n)]
    side = math.prod(dims[i] for i in keep)
    out = np.einsum(m.reshape(dims + dims), list(range(n)) + cols,
                    list(keep) + [n + i for i in keep])
    return out.reshape(side, side)


def counting_traces(monkeypatch) -> list:
    """A list that gains one entry per np.trace call from here on."""
    calls, trace = [], np.trace
    monkeypatch.setattr(np, "trace", lambda *a, **kw: calls.append(1) or trace(*a, **kw))
    return calls


# ---------------------------------------------------------------------------
# type invariants


def test_qstate_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.5
    with pytest.raises(ValueError, match="Hermitian"):
        QState((2, 2), m)


def test_qstate_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        QState((2, 2), np.eye(4) / 2)


def test_qstate_rejects_negative_operator():
    m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(ValueError, match="positive"):
        QState((2, 2), m)


def test_qstate_rejects_dims_mismatch():
    with pytest.raises(ValueError, match="shape"):
        QState((2, 3), np.eye(4) / 4)


@pytest.mark.parametrize("m", [np.eye(3), np.ones(16), np.ones((2, 8))],
                         ids=["3x3", "vector", "2x8"])
@pytest.mark.parametrize("call", [
    lambda m: partial_trace_matrix(m, (2, 2), [0]),
    lambda m: partial_transpose_matrix(m, (2, 2), [1]),
    lambda m: permute_subsystems_matrix(m, (2, 2), [1, 0]),
], ids=["partial_trace", "partial_transpose", "permute"])
def test_matrix_functions_refuse_a_matrix_off_the_layout(call, m):
    # a 16-vector used to come back from permute as a 4 x 4 matrix, and a
    # 3 x 3 matrix failed in numpy's reshape; QState's wording names both
    with pytest.raises(ValueError, match=re.escape(f"matrix shape {m.shape} does not "
                                                   "match dims (2, 2)")):
        call(m)


def test_purevec_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        PureVec((2,), np.array([1.0, 1.0]))


def test_state_matrices_are_immutable():
    s = random_mixed((2, 2), seed=3)
    with pytest.raises(ValueError):
        s.matrix[0, 0] = 99.0


# ---------------------------------------------------------------------------
# tensor


def test_tensor_basis_product():
    v = tensor(PureVec((2,), [1, 0]), PureVec((2,), [1, 0]))
    assert v.dims == (2, 2)
    np.testing.assert_allclose(v.vec, [1, 0, 0, 0])


def test_tensor_maximally_mixed():
    half = QState((2,), np.eye(2) / 2)
    out = tensor(half, half)
    np.testing.assert_allclose(out.matrix, np.eye(4) / 4)


def test_tensor_against_multiply_out_oracle():
    rng = np.random.default_rng(11)
    rho = random_mixed((3,), seed=1)
    sig = random_mixed((3,), seed=2)
    out = tensor(rho, sig)
    # oracle: explicit double loop over index blocks
    expect = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            expect[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] = (
                rho.matrix[i, j] * sig.matrix
            )
    np.testing.assert_allclose(out.matrix, expect, atol=1e-14)
    assert abs(np.trace(out.matrix) - 1) < 1e-12


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        tensor(random_mixed((2,), seed=0), random_pure((2,), seed=0))


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_max_entangled_gives_white_noise():
    for d in (2, 3, 4):
        rho = max_entangled(d).projector()
        red = partial_trace_matrix(rho.matrix, rho.dims, (0,))
        np.testing.assert_allclose(red, np.eye(d) / d, atol=1e-12)


def test_partial_trace_product_marginal():
    rho = random_mixed((3,), seed=5)
    sig = random_mixed((2,), seed=6)
    joint = tensor(rho, sig)
    np.testing.assert_allclose(
        partial_trace_matrix(joint.matrix, joint.dims, (0,)), rho.matrix, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace_matrix(joint.matrix, joint.dims, (1,)), sig.matrix, atol=1e-12
    )


def test_partial_trace_corner_isotropic_reduction():
    # reduced state is (1-x)/(d-1) on the first d-1 levels plus x/d of identity
    from overlapcert.states import corner_isotropic

    d, x = 5, 0.37
    red = partial_trace_matrix(corner_isotropic(d, x).matrix, (d, d), (1,))
    expect = np.zeros((d, d))
    expect[: d - 1, : d - 1] = (1 - x) / (d - 1) * np.eye(d - 1)
    expect += x / d * np.eye(d)
    np.testing.assert_allclose(red, expect, atol=1e-12)


def test_partial_trace_preserves_trace_many_cuts():
    rng = np.random.default_rng(7)
    for dims in [(2, 2), (2, 3), (2, 2, 3)]:
        s = random_mixed(dims, seed=int(rng.integers(1000)))
        n = len(dims)
        for k in range(1, 2**n - 1):
            kept = tuple(i for i in range(n) if k >> i & 1)
            red = partial_trace_matrix(s.matrix, dims, kept)
            assert abs(np.trace(red) - 1) < 1e-10


def test_partial_trace_bad_index():
    s = random_mixed((2, 2), seed=0)
    with pytest.raises(ValueError):
        partial_trace_matrix(s.matrix, s.dims, (0, 5))


# ---------------------------------------------------------------------------
# partial transpose


def test_partial_transpose_product_state_stays_psd():
    rho = random_mixed((2,), seed=8)
    sig = random_mixed((3,), seed=9)
    joint = tensor(rho, sig)
    pt = partial_transpose_matrix(joint.matrix, joint.dims, [0])
    np.testing.assert_allclose(pt, np.kron(rho.matrix.T, sig.matrix), atol=1e-12)
    assert np.linalg.eigvalsh(pt)[0] > -1e-12


def test_partial_transpose_bell_eigenvalues():
    bell = max_entangled(2).projector()
    pt = partial_transpose_matrix(bell.matrix, bell.dims, [0])
    eigs = np.linalg.eigvalsh(pt)
    np.testing.assert_allclose(sorted(eigs), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_max_entangled_is_swap_over_d():
    # (|Psi><Psi|)^T_A = S/d with S built from symmetric/antisymmetric pairs
    for d in (2, 3):
        rho = max_entangled(d).projector()
        pt = partial_transpose_matrix(rho.matrix, rho.dims, [0])
        expect = np.zeros((d * d, d * d), dtype=complex)
        def ket(i, j):
            v = np.zeros(d * d)
            v[i * d + j] = 1.0
            return v
        for i in range(d):
            for j in range(i, d):
                v = (ket(i, j) + ket(j, i))
                v = v / np.linalg.norm(v)
                expect += np.outer(v, v) / d
        for k in range(d):
            for l in range(k + 1, d):
                w = (ket(k, l) - ket(l, k)) / math.sqrt(2)
                expect -= np.outer(w, w) / d
        np.testing.assert_allclose(pt, expect, atol=1e-12)


def test_partial_transpose_involution_and_invariants():
    rng = np.random.default_rng(21)
    for dims in [(2, 2), (3, 2), (3, 3)]:
        s = random_mixed(dims, seed=int(rng.integers(1000)))
        pt = partial_transpose_matrix(s.matrix, dims, [0])
        again = partial_transpose_matrix(pt, dims, [0])
        np.testing.assert_allclose(again, s.matrix, atol=1e-13)
        assert abs(np.trace(pt) - 1) < 1e-12
        assert abs(np.linalg.norm(pt) - np.linalg.norm(s.matrix)) < 1e-12


# ---------------------------------------------------------------------------
# inner product


def test_hs_inner_purity_of_pure_state():
    rho = random_pure((3, 3), seed=13).projector()
    assert abs(hs_inner(rho, rho) - 1.0) < 1e-12


def test_hs_inner_white_noise():
    for d in (2, 3, 5):
        eye = QState((d,), np.eye(d) / d)
        assert abs(hs_inner(eye, eye) - 1.0 / d) < 1e-14


def test_hs_inner_against_double_loop_oracle():
    from overlapcert.states import isotropic

    a = isotropic(3, 0.4)
    b = isotropic(3, 1.0)
    total = 0.0
    for i in range(9):
        for j in range(9):
            total += (a.matrix[i, j] * b.matrix[j, i]).real
    assert abs(hs_inner(a, b) - total) < 1e-12


def test_hs_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        hs_inner(np.eye(2), np.eye(3))


@pytest.mark.parametrize("shape", [(4,), (2, 3)], ids=["vector", "2x3"])
def test_hs_inner_refuses_two_arrays_of_one_shape_off_d_by_d(shape):
    with pytest.raises(ValueError, match=re.escape(
            f"matrix shapes {shape} and {shape} are not one D x D shape")):
        hs_inner(np.ones(shape), np.ones(shape))


def _all_kept_sets(n):
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 2**n)]


def _multipartite_kept_sets(n):
    # the kept sets multipartite_ipc asks for: the full set, then both
    # sides of every cut
    sets = [tuple(range(n))]
    for kept in bipartitions(n):
        sets += [kept, tuple(i for i in range(n) if i not in kept)]
    return sets


@pytest.mark.parametrize("dims,kept_sets", [
    ((3, 3), [(0, 1), (0,), (1,)]),
    ((2, 3, 2), _all_kept_sets(3)),
    ((2, 2, 2), _multipartite_kept_sets(3)),
    ((2,) * 4, _multipartite_kept_sets(4)),
    ((2,) * 5, _multipartite_kept_sets(5)),
], ids=["3x3", "2x3x2", "3-qubit", "4-qubit", "5-qubit"])
def test_overlap_table_equals_pairwise_overlaps(dims, kept_sets):
    rhos = [random_mixed(dims, seed=s).matrix for s in range(3)]
    sigmas = [random_mixed(dims, seed=10 + s).matrix for s in range(2)]
    table = _overlap_table(rhos, sigmas, dims, kept_sets)
    assert table.shape == (len(kept_sets), 3, 2)
    for i, rho in enumerate(rhos):
        for j, sigma in enumerate(sigmas):
            pairwise = [hs_inner(partial_trace_matrix(rho, dims, k),
                                 partial_trace_matrix(sigma, dims, k))
                        for k in kept_sets]
            assert np.array_equal(table[:, i, j], pairwise)
            assert _overlaps(rho, sigma, dims, kept_sets) == pairwise


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2,) * 5],
                         ids=["3-qubit", "2x3x2", "5-qubit"])
def test_shared_walk_is_bit_identical_to_one_reduce_per_set(dims, monkeypatch):
    # the table reduces each state onto all its kept sets in one walk; each
    # reduced matrix must be bit for bit the one a walk of its own set gives
    rng = np.random.default_rng(len(dims) * 10 + dims[1])
    side = math.prod(dims)
    rhos = [random_hermitian(side, rng) for _ in range(2)]
    sigmas = [random_hermitian(side, rng) for _ in range(3)]
    kept_sets = _multipartite_kept_sets(len(dims))
    expected = np.array([[[_trace_product(one_trace_at_a_time(rho, dims, k),
                                          one_trace_at_a_time(sigma, dims, k))
                           for sigma in sigmas] for rho in rhos] for k in kept_sets])
    calls = counting_traces(monkeypatch)
    assert (_overlap_table(rhos, sigmas, dims, kept_sets) == expected).all()
    # each traced suffix once per state: every nonempty proper subset of
    # the subsystems is one, so 5 qubits take 30 traces, not 75
    assert len(calls) == (2 ** len(dims) - 2) * (len(rhos) + len(sigmas))


@pytest.mark.parametrize("dims", [(2, 3, 2), (2,) * 5], ids=["2x3x2", "5-qubit"])
def test_reductions_match_einsum_and_share_traces(dims, monkeypatch):
    m = random_hermitian(math.prod(dims), np.random.default_rng(len(dims)))
    kept_sets = [tuple(i for i in range(len(dims)) if k >> i & 1)
                 for k in range(1, 2 ** len(dims))]
    for k, reduced in zip(kept_sets, _reductions(m, dims, kept_sets)):
        assert np.abs(reduced - einsum_partial_trace(m, dims, k)).max() <= 1e-14
    # the inversion map keeps C, BC and AC: the trace of B is taken once, so
    # 3 traces, not 4; the gradient keeps A and B, one trace each
    ghz = ghz_noisy(3, 3, 0.7)
    rho, sigma = (random_mixed((3, 4), seed=s).matrix for s in (1, 2))
    _, grad = _objective(rho, sigma, (3, 4), 0)([np.eye(3), np.eye(4)])
    calls = counting_traces(monkeypatch)
    apply_lambda_map(ghz, 2)
    assert len(calls) == 3
    calls.clear()
    grad()
    assert len(calls) == 2


def test_overlap_table_rejects_imaginary_trace():
    rng = np.random.default_rng(4)
    herm = [random_hermitian(6, rng) for _ in range(2)]
    skewed = herm[1] + 0.5j * np.eye(6)
    with pytest.raises(ValueError, match="imaginary part"):
        _overlap_table(herm, [herm[0], skewed], (2, 3), [(0, 1), (0,)])


# ---------------------------------------------------------------------------
# eigendecomposition


def test_eig_corner_quadratic_form_matrix():
    # explicit d=3 quadratic-form matrix with m = n = 1/4: its spectrum is
    # {1/4} plus the roots of l^2 - l + 1/16
    m_ = n_ = 0.25
    p = np.full((3, 3), n_)
    p[0, 0] += m_
    p[1, 1] += m_
    w = np.linalg.eigvalsh(p)
    roots = sorted(np.roots([1.0, -1.0, 1.0 / 16.0]).real)
    np.testing.assert_allclose(sorted(w), sorted([0.25] + roots), atol=1e-12)


# ---------------------------------------------------------------------------
# Schmidt decomposition


def test_schmidt_product_state():
    sd = schmidt_decompose(PureVec((2, 2), [1, 0, 0, 0]))
    assert sd.rank == 1
    np.testing.assert_allclose(sd.coeffs, [1.0])


def test_schmidt_max_entangled():
    for d in (2, 3, 4):
        sd = schmidt_decompose(max_entangled(d))
        np.testing.assert_allclose(sd.coeffs, np.full(d, 1.0 / d), atol=1e-12)


def test_schmidt_reconstruction_roundtrip():
    for dims, seed in [((2, 2), 1), ((3, 3), 2), ((4, 4), 3), ((2, 4), 4)]:
        v = random_pure(dims, seed=seed)
        sd = schmidt_decompose(v)
        rebuilt = sd.reconstruct()
        # global phase free
        phase = np.vdot(rebuilt, v.vec)
        phase /= abs(phase)
        assert np.linalg.norm(rebuilt * phase - v.vec) < 1e-9
        assert abs(sd.coeffs.sum() - 1.0) < 1e-10
        assert all(np.diff(sd.coeffs) <= 1e-12)


def test_schmidt_orthonormal_factors():
    v = random_pure((3, 4), seed=9)
    sd = schmidt_decompose(v)
    np.testing.assert_allclose(
        sd.left_vecs.conj().T @ sd.left_vecs, np.eye(sd.rank), atol=1e-10
    )
    np.testing.assert_allclose(
        sd.right_vecs.conj().T @ sd.right_vecs, np.eye(sd.rank), atol=1e-10
    )


def test_schmidt_noncontiguous_cut():
    # product across the {0,2} | {1} cut of a three-qubit state
    v = random_pure((2, 2), seed=31)
    w = random_pure((2,), seed=32)
    # arrange as qubits (0, 2) entangled, qubit 1 in between
    joint = np.kron(v.vec, w.vec)  # layout (0, 2, 1)
    natural = joint.reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
    # regrouped as {0, 2} | {1} by the same reshape and transpose
    grouped = natural.reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
    assert schmidt_decompose(PureVec((4, 2), grouped)).rank == 1
    # the contiguous cut {0} | {1, 2} splits the entangled pair
    assert schmidt_decompose(PureVec((2, 4), natural)).rank == 2


# ---------------------------------------------------------------------------
# identities used by the witness construction


def test_embedding_identity_left_and_right():
    # <I x P_B, Q> = <P_B, Q_B> and <P_A x I, Q> = <P_A, Q_A>
    rng = np.random.default_rng(23)
    for d_a, d_b in [(2, 2), (2, 3), (3, 3)]:
        p = random_hermitian(d_a * d_b, rng)
        q = random_hermitian(d_a * d_b, rng)
        dims = (d_a, d_b)
        p_a = partial_trace_matrix(p, dims, [0])
        p_b = partial_trace_matrix(p, dims, [1])
        q_a = partial_trace_matrix(q, dims, [0])
        q_b = partial_trace_matrix(q, dims, [1])
        lhs1 = hs_inner(np.kron(np.eye(d_a), p_b), q)
        lhs2 = hs_inner(np.kron(p_a, np.eye(d_b)), q)
        assert abs(lhs1 - hs_inner(p_b, q_b)) < 1e-10
        assert abs(lhs2 - hs_inner(p_a, q_a)) < 1e-10


def test_negative_eigenvector_direction():
    # a Hermitian operator with negative eigenvalue meets some state below 0
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = random_hermitian(6, rng)
        w, v = np.linalg.eigh(p)
        if w[0] >= 0:
            p = p - (w[0] + 1.0) * np.eye(6)
            w, v = np.linalg.eigh(p)
        proj = np.outer(v[:, 0], v[:, 0].conj())
        assert abs(hs_inner(p, proj) - w[0]) < 1e-10
        assert hs_inner(p, proj) < 0


def test_embed_operator_positions():
    rng = np.random.default_rng(41)
    m = random_hermitian(6, rng)  # acts on dims (2, 3)
    dims = (2, 2, 3)
    big = embed_operator(m, dims, [0, 2])
    # oracle: contract against product vectors
    for _ in range(5):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        full = np.kron(np.kron(a, b), c)
        ac = np.kron(a, c)
        lhs = full.conj() @ (big @ full)
        rhs = (ac.conj() @ (m @ ac)) * (b.conj() @ b)
        assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2,) * 5],
                         ids=["3-qubit", "2x3x2", "5-qubit"])
def test_embed_operator_is_bit_identical_to_kron(dims):
    # embed_operator builds kron(m, I) by broadcasting; it must give the
    # entries of np.kron exactly, then the same permutation
    rng = np.random.default_rng(sum(dims))
    n = len(dims)
    for positions in bipartitions(n) + [tuple(range(n))]:
        rest = [i for i in range(n) if i not in positions]
        side = math.prod(dims[i] for i in positions)
        m = random_hermitian(side, rng)
        layout = list(positions) + rest
        big = np.kron(m, np.eye(math.prod(dims[i] for i in rest)))
        expected = permute_subsystems_matrix(big, [dims[i] for i in layout],
                                             [layout.index(k) for k in range(n)])
        assert np.array_equal(embed_operator(m, dims, positions), expected)


# each function that takes subsystem indices, the noun its message uses for
# them, and a call on the layout (2, 2)
_INDEX_TAKERS = {
    "partial_trace_matrix": ("kept indices",
                             lambda ix: partial_trace_matrix(np.eye(4) / 4, (2, 2), ix)),
    "partial_transpose_matrix": ("indices",
                                 lambda ix: partial_transpose_matrix(np.eye(4), (2, 2), ix)),
    "embed_operator": ("positions", lambda ix: embed_operator(np.eye(2), (2, 2), ix)),
}


@pytest.mark.parametrize("indices", [[2], [-1], [5, 0, 0]],
                         ids=["past-end", "negative", "repeated"])
@pytest.mark.parametrize("name", list(_INDEX_TAKERS))
def test_subsystem_indices_out_of_range_are_refused_in_one_form(name, indices):
    # every function that takes subsystem indices sorts them, drops repeats
    # and names them, as sorted, in one message form
    what, call = _INDEX_TAKERS[name]
    with pytest.raises(ValueError, match=re.escape(
            f"{what} {sorted(set(indices))} out of range for dims (2, 2)")):
        call(indices)


@pytest.mark.parametrize("positions", [[2], [-1], [0, 5]])
def test_embed_operator_rejects_out_of_range_positions(positions):
    with pytest.raises(ValueError, match=re.escape(f"positions {sorted(positions)} "
                                                   "out of range for dims (2, 2)")):
        embed_operator(np.eye(2), (2, 2), positions)


def test_permute_subsystems_roundtrip():
    s = random_mixed((2, 3, 2), seed=55)
    m = permute_subsystems_matrix(s.matrix, s.dims, [2, 0, 1])
    back = permute_subsystems_matrix(m, (2, 2, 3), [1, 2, 0])
    np.testing.assert_allclose(back, s.matrix, atol=1e-14)


def test_permuted_subsystems_group_a_noncontiguous_cut():
    s = random_mixed((2, 3, 2), seed=77)
    grouped = QState((4, 3), permute_subsystems_matrix(s.matrix, s.dims, [0, 2, 1]))
    # spectra and purity are permutation invariants
    np.testing.assert_allclose(
        np.linalg.eigvalsh(grouped.matrix), np.linalg.eigvalsh(s.matrix), atol=1e-12
    )
    # the kept-side marginal matches the direct partial trace
    direct = partial_trace_matrix(s.matrix, s.dims, (0, 2))
    via_view = partial_trace_matrix(grouped.matrix, grouped.dims, (0,))
    np.testing.assert_allclose(via_view, direct, atol=1e-12)


# ---------------------------------------------------------------------------
# the JSON boundary shared by every config


@pytest.mark.parametrize("cls,obj,key", [
    (OptConfig, {}, "restarts"),
    (ProtocolConfig, {"m": 1, "n": 1, "n_unitaries": 4}, "local_dim"),
    (OptConfig, {}, "seed"),
    (StateSpec, {"family": "example3"}, "seed"),
])
@pytest.mark.parametrize("value", [2.7, True, "x", None, [3]])
def test_integer_fields_take_only_integers(cls, obj, key, value):
    # the one parser, on three dataclasses with int fields (OptConfig has no
    # JSON form of its own)
    with pytest.raises(ValueError, match=f"{cls.__name__}: {key} must be an "
                                         f"integer, not {re.escape(repr(value))}"):
        _from_json(cls, {**obj, key: value}, cls.__name__)


def test_integer_fields_take_integral_numbers_and_decimal_strings():
    assert ProtocolConfig.from_json({"local_dim": 2.0, "m": "1", "n": 1,
                                     "n_unitaries": "40", "seed": 2}) \
        == ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=40, seed=2)
    assert StateSpec.from_json({"family": "example3", "seed": "4"}).seed == 4


def _records_header(text, tmp_path):
    """A 24-setting records file whose header gives n_unitaries as ``text``, read."""
    cfg = ProtocolConfig(local_dim=2, m=1, n=1, n_unitaries=24, seed=1)
    path = tmp_path / "records.jsonl"
    write_records(path, cfg, run_protocol(isotropic(2, 0.9), isotropic(2, 1.0), cfg))
    header, *lines = path.read_text().splitlines(keepends=True)
    header = json.loads(header)
    header["protocol"]["n_unitaries"] = text
    path.write_text(json.dumps(header) + "\n" + "".join(lines))
    read_records(path)


def _shots_flag(text, tmp_path):
    """``rm-experiment --shots TEXT`` on a 1+1-qubit config; its exit-2
    message is raised as a ValueError."""
    config = tmp_path / "rm.json"
    config.write_text(json.dumps({
        "rho": {"family": "isotropic", "params": {"d": 2, "x": 0.9}},
        "sigma": {"family": "isotropic", "params": {"d": 2, "x": 1.0}},
        "protocol": {"local_dim": 2, "m": 1, "n": 1, "n_unitaries": 4}}))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            main(["rm-experiment", "--config", str(config), "--out",
                  str(tmp_path / "rm-report.json"), "--shots", text])
    except SystemExit as stop:
        assert stop.code == 2
        raise ValueError(err.getvalue().rstrip("\n").partition("rm-experiment: ")[2]) from None


# each site that reads a number from outside: the kind it reads, the owner and
# key its fault names, and a read of one number given as text
_NUMBER_SITES = {
    "config-field": (int, "ProtocolConfig: n_unitaries",
                     lambda t, tmp: ProtocolConfig.from_json(
                         {"local_dim": 2, "m": 1, "n": 1, "n_unitaries": t})),
    "int-param": (int, "StateSpec isotropic: d",
                  lambda t, tmp: StateSpec("isotropic", {"d": t, "x": 0.5}).build()),
    "float-param": (float, "StateSpec isotropic: x",
                    lambda t, tmp: StateSpec("isotropic", {"d": 3, "x": t}).build()),
    "dims-entry": (int, "StateSpec random-pure: dims",
                   lambda t, tmp: StateSpec("random-pure", {"dims": [2, t]}).build()),
    "records-header": (int, "ProtocolConfig: n_unitaries", _records_header),
    "shots-flag": (int, "ProtocolConfig: shots_per_setting", _shots_flag),
}


@pytest.mark.parametrize("site", list(_NUMBER_SITES))
def test_number_strings_follow_the_json_number_grammar(site, tmp_path):
    # int() and float() read spaces, underscores, a plus sign and digits of
    # any script: "1_0", " 3 ", "+3" and "٣" were read as 10, 3, 3 and 3
    kind, owner_key, read = _NUMBER_SITES[site]
    good, bad, noun = (("24", ("1_0", " 3 ", "+3", "\u0663"), "an integer") if kind is int
                       else ("0.5", (" 0.5 ", "1_0e-1", "+0.5", "\u0660.\u0665"), "a number"))
    for text in bad:
        message = f"{owner_key} must be {noun}, not {text!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(text, tmp_path)
    read(good, tmp_path)


def test_float_field_rejects_bool_and_text():
    for family, params, key in (("isotropic", {"d": 3}, "x"), ("theta", {"d": 3}, "y"),
                                ("ghz-noisy", {"n": 3, "d": 2}, "p")):
        for value in (True, "x", None, [0.5]):
            with pytest.raises(ValueError, match=f"^StateSpec {family}: {key} must be "
                                                 f"a number, not {re.escape(repr(value))}$"):
                StateSpec(family, {**params, key: value}).build()
    # an int or a decimal string is a number, as float() reads it
    assert np.array_equal(build_density(StateSpec("isotropic", {"d": 3, "x": 0})).matrix,
                          isotropic(3, 0.0).matrix)
    assert np.array_equal(build_density(StateSpec("ghz-noisy", {"n": 3, "d": 2,
                                                                "p": "0.5"})).matrix,
                          ghz_noisy(3, 2, 0.5).matrix)


def test_function_parameters_are_json_keys_and_keyword_only_ones_are_not():
    # annotations as the package's modules hold them, as strings
    def target(a: "int", b: "float" = 1.0, c: "int | None" = None, *, k: "int" = 7):
        return a, b, c, k
    assert _from_json(target, {"a": "2", "c": None}, "T") == (2, 1.0, None, 7)
    with pytest.raises(ValueError, match=r"^T: unknown keys \['k'\]; allowed keys "
                                         r"are \['a', 'b', 'c'\]$"):
        _from_json(target, {"a": 2, "k": 3}, "T")
    with pytest.raises(ValueError, match=r"^T: missing keys \['a'\]$"):
        _from_json(target, {"b": 2}, "T")


@pytest.mark.parametrize("text,message", [
    ('{"a": 1, "a": 2}', "key 'a' appears more than once"),
    ('{"a": {"b": 1, "c": 2, "b": 3}}', "key 'b' appears more than once"),
    ('[{"a": 1}, {"a": 1, "a": 1}]', "key 'a' appears more than once"),
    ("", r"Expecting value: line 1 column 1 \(char 0\)"),
    ("{'a': 1}", "Expecting property name enclosed in double quotes"),
], ids=["top-level", "nested", "in-an-array", "empty", "not-json"])
def test_load_json_refuses_a_repeated_key_and_names_its_owner(text, message):
    with pytest.raises(ValueError, match=f"^the owner: {message}"):
        _load_json(text, "the owner")


def test_load_json_reads_what_json_reads():
    text = '{"a": [1, 2.5, {"b": null, "c": "x"}], "b": {"a": true}}'
    assert _load_json(text, "the owner") == json.loads(text)


def test_statespec_params_must_be_an_object():
    for value in ([["d", 3]], "d=3", None):
        with pytest.raises(ValueError, match="StateSpec: params must be a JSON object"):
            StateSpec.from_json({"family": "isotropic", "params": value})


@pytest.mark.parametrize("family,params,key", [
    ("isotropic", {"d": 4.7, "x": 0.5}, "d"),
    ("max-entangled", {"d": True}, "d"),
    ("ghz-noisy", {"n": 3.5, "d": 2, "p": 0.5}, "n"),
    ("ghz-pure", {"n": 3, "d": "two"}, "d"),
    ("random-mixed", {"dims": [2, 2], "rank": 2.5}, "rank"),
    ("random-mixed", {"dims": [2, 2.5]}, "dims"),
    ("random-pure", {"dims": [True, 2]}, "dims"),
])
def test_statespec_build_checks_integer_params(family, params, key):
    with pytest.raises(ValueError, match=f"StateSpec {family}: {key} must be an int"):
        StateSpec(family, params).build()


def test_statespec_build_dims_must_be_an_array():
    with pytest.raises(ValueError, match="dims must be a JSON array"):
        StateSpec("random-pure", {"dims": "22"}).build()


def test_statespec_build_takes_decimal_strings_like_numbers():
    as_text = build_density(StateSpec("isotropic", {"d": "3", "x": 0.5}))
    assert np.array_equal(as_text.matrix, isotropic(3, 0.5).matrix)
