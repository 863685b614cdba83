"""Local-unitary optimization of the overlap ratio and the FEF link."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from overlapcert import (
    OptConfig,
    PureVec,
    QState,
    central_diff_grad,
    fully_entangled_fraction,
    isotropic,
    max_entangled,
    overlap_ratio,
    random_mixed,
    s_hat,
    unitary_from_params,
    unitary_param_count,
    verify_shat_fef_identity,
)
from overlapcert import variational

FAST = OptConfig(restarts=4, seed=11)


def rotated(rho: QState, u: np.ndarray, v: np.ndarray) -> QState:
    w = np.kron(u, v)
    return QState(rho.dims, w @ rho.matrix @ w.conj().T)


# ---------------------------------------------------------------------------
# parameterization


def test_parameterization_always_unitary():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        for _ in range(50):
            u = unitary_from_params(rng.uniform(-10, 10, d * d), d)
            assert np.abs(u @ u.conj().T - np.eye(d)).max() <= 1e-10


def test_parameterization_identity_at_zero():
    for d in (2, 3, 5):
        np.testing.assert_allclose(
            unitary_from_params(np.zeros(d * d), d), np.eye(d), atol=1e-14
        )


def test_parameter_count():
    assert unitary_param_count(2) == 4
    assert unitary_param_count(5) == 25
    with pytest.raises(ValueError, match="parameters"):
        unitary_from_params(np.zeros(5), 2)


# ---------------------------------------------------------------------------
# finite-difference gradient


def test_central_diff_on_polynomial():
    f = lambda x: float(x[0] ** 2 + 3 * x[0] * x[1])
    g = central_diff_grad(f, np.array([1.0, 2.0]), 1e-5)
    np.testing.assert_allclose(g, [8.0, 3.0], atol=1e-8)


def test_gradient_step_halving_consistency():
    # Richardson check: halving the step changes the central difference
    # by O(h^2), so the two readings must agree tightly on a smooth ratio
    rho = random_mixed((2, 2), seed=21)
    sig = random_mixed((2, 2), seed=22)

    def f(x):
        u = unitary_from_params(x[:4], 2)
        v = unitary_from_params(x[4:], 2)
        return overlap_ratio(rotated(rho, u, v), sig).s

    rng = np.random.default_rng(23)
    for _ in range(5):
        x = rng.uniform(-1, 1, 8)
        g1 = central_diff_grad(f, x, 1e-4)
        g2 = central_diff_grad(f, x, 5e-5)
        scale = max(1.0, np.abs(g1).max())
        assert np.abs(g1 - g2).max() / scale < 1e-5


# ---------------------------------------------------------------------------
# ratio ascent


def test_identity_start_when_already_optimal():
    d = 3
    psi = max_entangled(d).projector()
    res = s_hat(psi, psi, FAST)
    assert abs(res.trajectory[0] - d) < 1e-12  # identity start is optimal
    assert abs(res.value - d) < 1e-9


def test_recovers_one_sided_rotation():
    # rotating B by W hides the ratio; the ascent must recover it exactly
    rng = np.random.default_rng(31)
    for d in (2, 3):
        w = unitary_from_params(rng.uniform(-3, 3, d * d), d)
        psi = max_entangled(d)
        hidden = PureVec((d, d), np.kron(np.eye(d), w) @ psi.vec).projector()
        res = s_hat(hidden, psi.projector(), OptConfig(restarts=4, seed=int(d)))
        assert abs(res.value - d) < 1e-4


def test_never_below_plain_ratio():
    rng = np.random.default_rng(37)
    for trial in range(6):
        rho = random_mixed((2, 2), seed=int(rng.integers(1 << 30)))
        sig = random_mixed((2, 2), seed=int(rng.integers(1 << 30)))
        base = overlap_ratio(rho, sig).s
        res = s_hat(rho, sig, OptConfig(restarts=2, seed=trial))
        assert res.value >= base - 1e-12


def test_trajectory_monotone_best_so_far():
    rho = random_mixed((2, 2), seed=41)
    sig = random_mixed((2, 2), seed=42)
    res = s_hat(rho, sig, FAST)
    traj = np.asarray(res.trajectory)
    assert (np.diff(traj) >= -1e-15).all()


def test_sides_restriction():
    rho = random_mixed((2, 2), seed=43)
    sig = max_entangled(2).projector()
    res_b = s_hat(rho, sig, FAST, sides="b")
    res_both = s_hat(rho, sig, FAST, sides="both")
    # against the maximally entangled state the B-side ascent already
    # reaches the two-sided value
    assert res_both.value <= res_b.value + 1e-6
    with pytest.raises(ValueError, match="sides"):
        s_hat(rho, sig, FAST, sides="x")


@pytest.mark.parametrize("outcomes,converged", [
    (((0.5, True), (0.9, False)), False),
    (((0.5, False), (0.9, True)), True),
])
def test_converged_is_that_of_the_returned_restart(monkeypatch, outcomes,
                                                    converged):
    scripted = iter(outcomes)

    def fake_minimize(fun, x0, **kwargs):
        value, success = next(scripted)
        return SimpleNamespace(fun=-value, x=x0, success=success)

    monkeypatch.setattr(variational, "minimize", fake_minimize)
    res = s_hat(isotropic(2, 0.8), isotropic(2, 1.0), OptConfig(restarts=2),
                sides="a")
    assert res.value == 0.9
    assert res.converged is converged


def test_certified_bound_invariant_under_local_rotation():
    rng = np.random.default_rng(47)
    rho = random_mixed((2, 2), rank=2, seed=51)
    sig = random_mixed((2, 2), seed=52)
    base = s_hat(rho, sig, OptConfig(restarts=6, seed=1)).value
    for trial in range(3):
        u = unitary_from_params(rng.uniform(-3, 3, 4), 2)
        v = unitary_from_params(rng.uniform(-3, 3, 4), 2)
        moved = s_hat(rotated(rho, u, v), sig, OptConfig(restarts=6, seed=2 + trial))
        assert abs(moved.value - base) <= 2e-3


# ---------------------------------------------------------------------------
# fully entangled fraction


def test_fef_pure_max_entangled():
    assert abs(fully_entangled_fraction(max_entangled(3).projector(), FAST) - 1.0) < 1e-6


def test_fef_white_noise():
    for d in (2, 3):
        rho = QState((d, d), np.eye(d * d) / d**2)
        assert abs(fully_entangled_fraction(rho, FAST) - 1.0 / d**2) < 1e-9


def test_fef_isotropic_with_random_search_oracle():
    # closed form: fidelity x, optimal at no rotation; confirmed by a
    # random-unitary search that never beats it
    d, x = 3, 0.65
    rho = isotropic(d, x)
    psi = max_entangled(d).vec
    rng = np.random.default_rng(61)
    best_random = 0.0
    for _ in range(10_000):
        u = unitary_from_params(rng.uniform(-math.pi, math.pi, d * d), d)
        v = (np.kron(np.eye(d), u) @ psi)
        best_random = max(best_random, float(np.real(v.conj() @ rho.matrix @ v)))
    assert best_random <= x + 1e-9
    val = fully_entangled_fraction(rho, FAST)
    assert abs(val - x) < 1e-6


def test_fef_requires_square_layout():
    with pytest.raises(ValueError, match="local dimensions"):
        fully_entangled_fraction(random_mixed((2, 3), seed=0), FAST)


# ---------------------------------------------------------------------------
# the two independent routes agree


def test_identity_isotropic_both_sides_equal_dx():
    for d in (2, 3):
        for x in (1.0 / d**2, 0.5, 0.9):
            out = verify_shat_fef_identity(isotropic(d, x), FAST)
            assert abs(out["s_hat"] - d * x) < 1e-5
            assert out["rel_dev"] <= 1e-3


def test_identity_random_qubit_states():
    for seed in range(5):
        rho = random_mixed((2, 2), seed=seed)
        out = verify_shat_fef_identity(rho, OptConfig(restarts=4, seed=seed))
        assert out["rel_dev"] <= 1e-3


def test_identity_white_noise():
    d = 2
    rho = QState((d, d), np.eye(d * d) / d**2)
    out = verify_shat_fef_identity(rho, FAST)
    assert abs(out["s_hat"] - 1.0 / d) < 1e-6
    assert abs(out["d_times_fef"] - 1.0 / d) < 1e-6


# ---------------------------------------------------------------------------
# config plumbing


def test_optconfig_json_roundtrip():
    cfg = OptConfig(restarts=3, max_iters=77, tol=1e-10, fd_step=2e-5, seed=5)
    assert OptConfig.from_json(cfg.to_json()) == cfg


def test_optconfig_validation():
    with pytest.raises(ValueError):
        OptConfig(restarts=0)
