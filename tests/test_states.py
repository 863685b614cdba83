"""State factories: closed-form checks and construction invariants."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from overlapcert import (
    PureVec,
    QState,
    StateSpec,
    build_density,
    corner_isotropic,
    ghz_noisy,
    ghz_pure,
    hs_inner,
    isotropic,
    max_entangled,
    random_mixed,
    random_pure,
    schmidt_decompose,
    sn3_probe_state,
    sn3_unfaithful_state,
    tilted_entangled,
    verifier_state,
)
from overlapcert.qmat import _pure_plus_noise


def fidelity_with(vec, rho):
    return float(np.real(vec.conj() @ (rho.matrix @ vec)))


# ---------------------------------------------------------------------------
# isotropic family


def test_isotropic_pure_limit():
    for d in (2, 3, 4):
        rho = isotropic(d, 1.0)
        np.testing.assert_allclose(
            rho.matrix, max_entangled(d).projector().matrix, atol=1e-12
        )


def test_isotropic_white_noise_point():
    for d in (2, 3):
        rho = isotropic(d, 1.0 / d**2)
        np.testing.assert_allclose(rho.matrix, np.eye(d * d) / d**2, atol=1e-12)


def test_isotropic_fidelity_is_x():
    psi = max_entangled(10).vec
    rho = isotropic(10, 0.35)
    assert abs(fidelity_with(psi, rho) - 0.35) < 1e-12


def test_isotropic_valid_below_noise_point():
    # the operator stays positive on all of [0, 1]; its spectrum is
    # {x} + {(1-x)/(d^2-1)}
    rho = isotropic(3, 0.05)
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert eigs[0] > -1e-12
    assert abs(eigs[-1] - max(0.05, 0.95 / 8)) < 1e-12


def test_isotropic_domain_errors():
    with pytest.raises(ValueError):
        isotropic(1, 0.5)
    with pytest.raises(ValueError):
        isotropic(3, 1.2)


def test_isotropic_affine_in_x():
    d = 3
    a, x1, x2 = 0.3, 0.2, 0.9
    left = isotropic(d, a * x1 + (1 - a) * x2).matrix
    right = a * isotropic(d, x1).matrix + (1 - a) * isotropic(d, x2).matrix
    np.testing.assert_allclose(left, right, atol=1e-12)


# ---------------------------------------------------------------------------
# corner-isotropic family


def test_corner_isotropic_pure_limit():
    np.testing.assert_allclose(
        corner_isotropic(4, 1.0).matrix,
        max_entangled(4).projector().matrix,
        atol=1e-12,
    )


def test_corner_isotropic_support():
    d, x = 4, 0.0
    rho = corner_isotropic(d, x)
    # support only on |ij> with i, j <= d-2
    for i in range(d):
        for j in range(d):
            val = rho.matrix[i * d + j, i * d + j].real
            if i < d - 1 and j < d - 1:
                assert abs(val - 1.0 / (d - 1) ** 2) < 1e-12
            else:
                assert abs(val) < 1e-12


def test_corner_isotropic_purity_closed_form():
    for d in (3, 4, 6):
        for x in (0.1, 0.5, 0.9):
            rho = corner_isotropic(d, x)
            expect = (
                (1 - x) ** 2 / (d - 1) ** 2
                + x**2
                + 2 * (1 - x) * x / ((d - 1) * d)
            )
            assert abs(hs_inner(rho, rho) - expect) < 1e-12


def test_corner_isotropic_affine_in_x():
    d = 5
    a, x1, x2 = 0.4, 0.15, 0.8
    left = corner_isotropic(d, a * x1 + (1 - a) * x2).matrix
    right = a * corner_isotropic(d, x1).matrix + (1 - a) * corner_isotropic(d, x2).matrix
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_corner_isotropic_needs_d3():
    with pytest.raises(ValueError):
        corner_isotropic(2, 0.5)


@pytest.mark.parametrize("build", [
    lambda: corner_isotropic(4, 0.3),
], ids=["corner_isotropic"])
def test_family_state_is_validated_once(monkeypatch, build):
    # the projector is built from the validated vector, not as a second
    # QState; only the final state runs the eigvalsh check
    calls = []
    validate = QState.__post_init__

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(QState, "__post_init__", counted)
    state = build()
    assert len(calls) == 1 and calls[0] is state


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The arguments of every np.linalg.eigvalsh call the test makes."""
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(a) or eigvalsh(*a))
    return calls


def _isotropic_dense(d, x):  # the formula isotropic evaluated before its vector form
    dd = d * d
    v = max_entangled(d).vec
    proj = np.outer(v, v.conj())
    return (1.0 - x) / (dd - 1) * np.eye(dd) + (dd * x - 1.0) / (dd - 1) * proj


def _ghz_noisy_dense(n, d, p):  # the same for ghz_noisy
    v = ghz_pure(n, d).vec
    proj = np.outer(v, v.conj())
    total = d**n
    return p * proj + (1.0 - p) * np.eye(total) / total


@pytest.mark.parametrize("build, dense, points", [
    (isotropic, _isotropic_dense,
     [(d, x) for d in (2, 3, 4, 10) for x in (0.0, 0.01, 1.0 / d**2, 0.3, 0.75, 1.0)]),
    (ghz_noisy, _ghz_noisy_dense,
     [(n, d, p) for n, d in ((2, 2), (3, 2), (3, 3), (6, 2)) for p in (0.0, 0.3, 0.8, 1.0)]),
], ids=["isotropic", "ghz_noisy"])
def test_pure_plus_noise_family_runs_no_eigensolve(eigvalsh_calls, build, dense, points):
    # b|v><v| + c I is checked by the norm of v and its two eigenvalues, so
    # no eigensolve runs, and its matrix keeps the dense formula's bytes
    for point in points:
        state = build(*point)
        want = np.array(dense(*point), dtype=complex)
        assert state.matrix.tobytes() == want.tobytes(), point
        assert not state.matrix.flags.writeable
        v, b, c = state._pure_form
        assert np.array_equal(b * np.outer(v, v.conj()) + c * np.eye(len(v)), want)
    assert eigvalsh_calls == []


def test_pure_plus_noise_accepts_negative_weight_above_zero_eigenvalues():
    # below x = 1/d^2 the vector's weight b is negative, but both eigenvalues,
    # b + c = x and c = (1 - x)/(d^2 - 1), are not
    for d in (2, 3, 5):
        for x in (0.0, 0.5 / d**2):
            _, b, c = isotropic(d, x)._pure_form
            assert b < 0.0 and c > 0.0 and abs(b + c - x) < 1e-15


@pytest.mark.parametrize("vec, b, c, fault", [
    ([1.0, 0.0, 0.0, 1e-5], 1.0, 0.0, "not a unit vector"),
    ([0.5, 0.5, 0.5, 0.5, 0.0], 1.0, 0.0, "not a unit vector"),
    ([1.0, 0.0, 0.0, 0.0], -0.5, 0.375, "not a state"),
    ([1.0, 0.0, 0.0, 0.0], 1.2, -0.05, "not a state"),
    ([1.0, 0.0, 0.0, 0.0], 1.0 + 8e-9, -2e-9, "not a state"),
    ([1.0, 0.0, 0.0, 0.0], 0.5, 0.5, "not a state"),
])
def test_pure_plus_noise_rejects_what_is_no_state(vec, b, c, fault):
    # b + c = -0.125, c = -0.05 and c = -2e-9 are eigenvalues below -PSD_TOL
    # at unit trace; 0.5 + 4 * 0.5 is no unit trace
    with pytest.raises(ValueError, match=fault):
        _pure_plus_noise((2, 2), vec, b, c)


def test_public_qstate_still_eigensolves_a_family_matrix(eigvalsh_calls):
    state = QState((3, 3), isotropic(3, 0.4).matrix)
    assert len(eigvalsh_calls) == 1 and state._pure_form is None


@pytest.mark.parametrize("d", [1, 0, -2])
def test_ghz_rejects_local_dimension_below_two(d):
    # (d^n - 1) // (d - 1) used to raise ZeroDivisionError at d = 1
    for build in (lambda: ghz_pure(3, d), lambda: ghz_noisy(3, d, 0.5),
                  lambda: StateSpec("ghz-noisy", {"n": 3, "d": d, "p": 0.5}).build(),
                  lambda: build_density(StateSpec("ghz-pure", {"n": 3, "d": d}))):
        with pytest.raises(ValueError, match="local dimension must be >= 2"):
            build()


# ---------------------------------------------------------------------------
# tilted family


def test_tilted_at_zero_is_last_basis_pair():
    d = 4
    v = tilted_entangled(d, 0.0)
    expect = np.zeros(16)
    expect[15] = 1.0
    np.testing.assert_allclose(v.vec, expect)


def test_tilted_equal_coefficients_at_inverse_sqrt_d():
    for d in (3, 4, 5):
        sd = schmidt_decompose(tilted_entangled(d, 1.0 / math.sqrt(d)))
        np.testing.assert_allclose(sd.coeffs, np.full(d, 1.0 / d), atol=1e-12)


def test_tilted_normalized_on_grid():
    d = 5
    for y in np.linspace(0.0, 1.0 / math.sqrt(d - 1), 11):
        assert abs(np.linalg.norm(tilted_entangled(d, y).vec) - 1.0) < 1e-12


def test_tilted_rejects_out_of_range():
    with pytest.raises(ValueError):
        tilted_entangled(3, 0.9)


# ---------------------------------------------------------------------------
# GHZ family


def test_ghz_pure_projector_limit():
    rho = ghz_noisy(3, 2, 1.0)
    np.testing.assert_allclose(
        rho.matrix, ghz_pure(3, 2).projector().matrix, atol=1e-12
    )


def test_ghz_fidelity_closed_form():
    for n, d in [(2, 2), (3, 2), (3, 3)]:
        for p in (0.0, 0.4, 1.0):
            rho = ghz_noisy(n, d, p)
            f = fidelity_with(ghz_pure(n, d).vec, rho)
            assert abs(f - (p + (1 - p) / d**n)) < 1e-12


def test_ghz_overlap_with_projector_qubits():
    # overlap of the noisy state with the pure projector at d=2
    for n in (3, 4):
        p = 0.3
        rho = ghz_noisy(n, 2, p)
        sig = ghz_pure(n, 2).projector()
        val = float(np.einsum("ij,ji->", rho.matrix, sig.matrix).real)
        assert abs(val - ((1 - p) / 2**n + p)) < 1e-12


# ---------------------------------------------------------------------------
# the rank-2 Schmidt-number-3 state and its probe


def test_sn3_state_rank_and_trace():
    rho = sn3_unfaithful_state()
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert (eigs > 1e-10).sum() == 2
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    assert eigs[0] > -1e-12


def test_sn3_state_component_expectation():
    rho = sn3_unfaithful_state()
    psi3 = np.zeros(16)
    psi3[[0, 5, 10]] = 1.0 / math.sqrt(3)
    assert abs(fidelity_with(psi3.astype(complex), rho) - 0.5) < 1e-12


def test_sn3_probe_domain():
    with pytest.raises(ValueError):
        sn3_probe_state(0.2)
    v = sn3_probe_state(7.0 / 54.0)
    assert abs(np.linalg.norm(v.vec) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# verifier


def test_verifier_of_max_entangled_is_itself():
    v = max_entangled(3)
    w = verifier_state(v)
    phase = np.vdot(w.vec, v.vec)
    assert abs(abs(phase) - 1.0) < 1e-10


def test_verifier_inverts_coefficients():
    v = PureVec((2, 2), [math.sqrt(0.9), 0, 0, math.sqrt(0.1)])
    w = verifier_state(v)
    sd = schmidt_decompose(w)
    # closed form: weights (1/l_i) / sum_j (1/l_j) = (0.1, 0.9) descending
    np.testing.assert_allclose(sorted(sd.coeffs), [0.1, 0.9], atol=1e-12)


def test_verifier_ratio_equals_schmidt_rank():
    from overlapcert import overlap_ratio

    for dims, seed in [((2, 2), 0), ((3, 3), 1), ((4, 4), 2), ((5, 5), 3)]:
        v = random_pure(dims, seed=seed)
        rank = schmidt_decompose(v).rank
        s = overlap_ratio(v.projector(), verifier_state(v).projector()).s
        assert abs(s - rank) < 1e-8


# ---------------------------------------------------------------------------
# random families


def test_random_states_deterministic():
    a = random_mixed((3, 3), rank=4, seed=42)
    b = random_mixed((3, 3), rank=4, seed=42)
    assert np.array_equal(a.matrix, b.matrix)
    u = random_pure((2, 3), seed=7)
    w = random_pure((2, 3), seed=7)
    assert np.array_equal(u.vec, w.vec)


def test_random_mixed_rank():
    for rank in (1, 3, 9):
        rho = random_mixed((3, 3), rank=rank, seed=5)
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert (eigs > 1e-10).sum() == rank


def test_random_pure_normalized():
    assert abs(np.linalg.norm(random_pure((4, 4), seed=1).vec) - 1.0) < 1e-12


@pytest.mark.parametrize("dims", [[1, 2000], [0, 5]])
@pytest.mark.parametrize("family", ["random-mixed", "random-pure"])
def test_random_families_check_dims_before_drawing(family, dims):
    # random-mixed drew the whole state first: [1, 40000] asked for 11.9 GiB
    # before the 1 was refused, and [0, 5] was refused as "rank 0 outside [1, 0]"
    spec = StateSpec(family, {"dims": dims})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                f"every subsystem dimension must be >= 2, got {tuple(dims)}")):
            spec.build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# StateSpec JSON round trip


@pytest.mark.parametrize(
    "spec",
    [
        StateSpec("isotropic", {"d": 3, "x": 0.5}),
        StateSpec("example2", {"d": 4, "x": 0.3}),
        StateSpec("theta", {"d": 4, "y": 0.4}),
        StateSpec("ghz-noisy", {"n": 3, "d": 2, "p": 0.8}),
        StateSpec("ghz-pure", {"n": 3, "d": 2}),
        StateSpec("max-entangled", {"d": 4}),
        StateSpec("example3", {}),
        StateSpec("verifier", {"base": {"family": "theta", "params": {"d": 3, "y": 0.3}}}),
        StateSpec("random-mixed", {"dims": [2, 2], "rank": 3}, seed=9),
        StateSpec("random-pure", {"dims": [2, 2]}, seed=4),
    ],
)
def test_statespec_roundtrip_and_build(spec):
    again = StateSpec.from_json(spec.to_json())
    assert again == spec
    out = build_density(spec)
    assert abs(np.trace(out.matrix) - 1.0) < 1e-10
    # rebuilding from the JSON form gives the identical state
    out2 = build_density(again)
    assert np.array_equal(out.matrix, out2.matrix)


@pytest.mark.parametrize("family,params,fault", [
    ("isotropic", {"d": 4, "x": 0.9, "y": 3, "dimz": 7},
     r"unknown keys \['dimz', 'y'\]; allowed keys are \['d', 'x'\]"),
    ("isotropic", {"d": 4}, r"missing keys \['x'\]"),
    ("example2", {"x": 0.3}, r"missing keys \['d'\]"),
    # unknown keys are named first, and alone
    ("theta", {"d": 4, "x": 0.4}, r"unknown keys \['x'\]; allowed keys are \['d', 'y'\]"),
    ("ghz-noisy", {"n": 3, "d": 2}, r"missing keys \['p'\]"),
    ("ghz-pure", {"n": 3, "d": 2, "p": 0.5},
     r"unknown keys \['p'\]; allowed keys are \['n', 'd'\]"),
    ("max-entangled", {"d": 3, "x": 1.0}, r"unknown keys \['x'\]; allowed keys are \['d'\]"),
    ("example3", {"d": 3}, r"unknown keys \['d'\]; allowed keys are \[\]"),
    ("verifier", {}, r"missing keys \['base'\]"),
    ("random-mixed", {"rank": 2}, r"missing keys \['dims'\]"),
    ("random-pure", {"dims": [2, 2], "rank": 2},
     r"unknown keys \['rank'\]; allowed keys are \['dims'\]"),
    # a random family's seed is the spec's own field, never a param
    ("random-mixed", {"dims": [2, 2], "seed": 3},
     r"unknown keys \['seed'\]; allowed keys are \['dims', 'rank'\]"),
    ("random-pure", {"dims": [2, 2], "seed": 3},
     r"unknown keys \['seed'\]; allowed keys are \['dims'\]"),
    ("verifier", {"base": 3}, r"base must be a JSON object, not 3"),
    ("isotropic", [["d", 3], ["x", 0.5]], r"expected a JSON object, not \[\['d', 3\], "
                                          r"\['x', 0.5\]\]"),
])
def test_statespec_build_takes_exactly_the_family_params(family, params, fault):
    # unused keys used to build and echo silently, and a missing one ended
    # in a bare KeyError
    with pytest.raises(ValueError, match=f"^StateSpec {family}: {fault}$"):
        StateSpec(family, params).build()


def test_statespec_optional_rank_may_be_null():
    full = build_density(StateSpec("random-mixed", {"dims": [2, 2], "rank": None}, seed=9))
    assert np.array_equal(full.matrix, random_mixed((2, 2), seed=9).matrix)


def test_statespec_rejects_negative_seed():
    # it used to parse, and build() then failed in numpy with "expected
    # non-negative integer", which names no field
    with pytest.raises(ValueError, match="seed must be >= 0"):
        StateSpec.from_json({"family": "random-pure", "params": {"dims": [2, 2]},
                             "seed": -1})


def test_statespec_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        StateSpec("werner", {})


def test_statespec_rejects_unknown_keys():
    # a misspelt key would otherwise fall back to the default silently
    with pytest.raises(ValueError, match=r"unknown keys \['parms'\].*'params'"):
        StateSpec.from_json({"family": "isotropic", "parms": {"d": 3, "x": 0.5}})
