"""Local-unitary optimization of the overlap ratio and the FEF link."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from overlapcert import (
    OptConfig,
    PureVec,
    QState,
    fully_entangled_fraction,
    isotropic,
    max_entangled,
    overlap_ratio,
    random_mixed,
    s_hat,
    sample_local_unitary,
    verify_shat_fef_identity,
)
from overlapcert import partial_trace_matrix, partner_sup, variational
from overlapcert.qmat import _guarded_ratios, _overlaps, _trace_product

FAST = OptConfig(restarts=4, seed=11)


def rotated(rho: QState, u: np.ndarray, v: np.ndarray) -> QState:
    w = np.kron(u, v)
    return QState(rho.dims, w @ rho.matrix @ w.conj().T)


def one_trace_at_a_time(m, dims, keep):
    """Partial trace onto ``keep``, one np.trace per traced subsystem, the
    last subsystem first, as the package's walk traces a single set."""
    t, n = m.reshape(dims + dims), len(dims)
    for i in range(n - 1, -1, -1):
        if i not in keep:
            t, n = np.trace(t, axis1=i, axis2=i + n), n - 1
    side = math.prod(t.shape[:n])
    return t.reshape(side, side)


def skew_exp(omega: np.ndarray) -> np.ndarray:
    """exp(omega) of a skew-Hermitian matrix, through the Hermitian i*omega."""
    w, v = np.linalg.eigh(1j * omega)
    return (v * np.exp(-1j * w)) @ v.conj().T


def random_skew(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z - z.conj().T) / 2


# ---------------------------------------------------------------------------
# analytic Riemannian gradients


@pytest.mark.parametrize("local", [0, 1, None])
def test_gradient_matches_central_difference(local):
    # d/dt f((exp(t O) U) x V) at t = 0 is <O, G_U> = Re Tr[O^dag G_U],
    # and likewise for V; checked along random skew-Hermitian directions
    rng = np.random.default_rng(5)
    rho = random_mixed((2, 3), seed=71)
    sig = random_mixed((2, 3), seed=72)
    evaluate = variational._objective(rho.matrix, sig.matrix, (2, 3), local)
    h = 1e-5
    for _ in range(3):
        factors = [sample_local_unitary(2, rng), sample_local_unitary(3, rng)]
        grads = evaluate(factors)[1]()
        for k, d in enumerate((2, 3)):
            omega = random_skew(d, rng)
            assert np.abs(grads[k] + grads[k].conj().T).max() <= 1e-14
            plus, minus = list(factors), list(factors)
            plus[k] = skew_exp(h * omega) @ factors[k]
            minus[k] = skew_exp(-h * omega) @ factors[k]
            numeric = (evaluate(plus)[0] - evaluate(minus)[0]) / (2 * h)
            analytic = np.vdot(omega, grads[k]).real
            assert abs(numeric - analytic) <= 1e-9 * max(1.0, abs(analytic))


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
@pytest.mark.parametrize("local", [0, 1, None])
def test_objective_is_the_overlap_core_on_the_rotated_state(dims, local):
    # bit for bit: the value is the overlap core's ratio of (U x V) rho
    # (U x V)^dag, built with np.kron, and the gradient is the formula on
    # that matrix; a non-square layout exposes a swapped Kronecker order
    rng = np.random.default_rng(23)
    rho = random_mixed(dims, seed=75)
    sig = random_mixed(dims, seed=76)
    evaluate = variational._objective(rho.matrix, sig.matrix, dims, local)
    kept = [(0, 1)] if local is None else [(0, 1), (local,)]
    for _ in range(3):
        factors = [sample_local_unitary(d, rng) for d in dims]
        value, grad = evaluate(factors)
        rot = rotated(rho, *factors).matrix
        overlaps = _overlaps(rot, sig.matrix, dims, kept)
        assert value == (overlaps[0] if local is None else _guarded_ratios(*overlaps))
        comm = sig.matrix @ rot - rot @ sig.matrix
        expected = [partial_trace_matrix(comm, dims, [k]) for k in (0, 1)]
        if local is not None:
            g, l_x = overlaps
            rot_x = partial_trace_matrix(rot, dims, [local])
            sig_x = partial_trace_matrix(sig.matrix, dims, [local])
            expected = [gr / l_x for gr in expected]
            expected[local] = (expected[local]
                               - g / l_x**2 * (sig_x @ rot_x - rot_x @ sig_x))
        for got, want in zip(grad(), expected):
            assert np.array_equal(got, want)


def test_iterates_stay_unitary(monkeypatch):
    monkeypatch.setattr(variational, "MAX_ITERS", 1000)
    monkeypatch.setattr(variational, "GAIN_TOL", 0.0)
    for seed in range(4):
        rho = random_mixed((3, 3), seed=80 + seed)
        sig = random_mixed((3, 3), rank=1, seed=90 + seed)
        res = s_hat(rho, sig, OptConfig(restarts=2, seed=seed))
        for u in res.params:
            assert np.abs(u @ u.conj().T - np.eye(len(u))).max() <= 1e-12


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
        w = sample_local_unitary(d, rng)
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
    (((0.5, True), (0.9, False), (0.7, True), (0.2, True)), False),
    (((0.5, False), (0.9, True), (0.7, False), (0.2, False)), True),
])
def test_converged_is_that_of_the_returned_restart(monkeypatch, outcomes,
                                                    converged):
    # two starts, each ascending s_A and then s_B
    scripted = iter(outcomes)

    def fake_ascend(evaluate, factors, rotate):
        end, success = next(scripted)
        return list(factors), [0.0, end], success

    monkeypatch.setattr(variational, "_ascend", fake_ascend)
    res = s_hat(isotropic(2, 0.8), isotropic(2, 1.0), OptConfig(restarts=2),
                sides="a")
    assert next(scripted, None) is None
    assert res.value == 0.9
    assert res.converged is converged


def squeezed(rho: QState, eps: float) -> QState:
    """rho filtered by diag(1, ..., sqrt(eps)) on A: rho_A nearly singular."""
    d_a, d_b = rho.dims
    w = np.kron(np.diag([1.0] * (d_a - 1) + [math.sqrt(eps)]), np.eye(d_b))
    m = w @ rho.matrix @ w.T
    return QState(rho.dims, m / np.trace(m).real)


def bound_corpus():
    """Pairs over (2, 2), (2, 3) and (3, 3): sigma of every rank, rho with a
    marginal eigenvalue below 1e-8, and pairs whose bound is attained, at
    the identity or only after hidden local rotations are undone."""
    rng = np.random.default_rng(29)
    pairs = []
    for i, dims in enumerate([(2, 2), (2, 3), (3, 3)]):
        for rank in (1, 2, None):
            pairs.append((random_mixed(dims, seed=200 + 10 * i + (rank or 9)),
                          random_mixed(dims, rank=rank, seed=300 + 10 * i + (rank or 9))))
    pairs.append((random_mixed((2, 3), rank=1, seed=401), random_mixed((2, 3), seed=402)))
    for dims in [(2, 3), (3, 3)]:
        pairs.append((squeezed(random_mixed(dims, seed=403), 1e-9),
                      random_mixed(dims, seed=404)))
    tight = squeezed(random_mixed((3, 3), seed=901), 1e-9)
    pairs.append((tight, partner_sup(tight).vecs[0].projector()))
    pairs.append((isotropic(3, 0.7), max_entangled(3).projector()))
    u, v, u2, v2 = (sample_local_unitary(3, rng) for _ in range(4))
    pairs.append((rotated(isotropic(3, 0.8), u, v), max_entangled(3).projector()))
    rho = random_mixed((3, 3), seed=901)
    pairs.append((rho, rotated(partner_sup(rho).vecs[0].projector(), u2, v2)))
    return pairs


def test_bound_corpus_covers_a_nearly_singular_marginal():
    smallest = min(np.linalg.eigvalsh(partial_trace_matrix(rho.matrix, rho.dims, [k]))[0]
                   for rho, _ in bound_corpus() for k in (0, 1))
    assert 0.0 < smallest <= 1e-8


def without_bound(monkeypatch):
    monkeypatch.setattr(variational, "partner_sup", lambda rho: dataclasses.replace(
        partner_sup(rho), sup_a=math.inf, sup_b=math.inf))


def counting_ascents(monkeypatch):
    calls = []
    ascend = variational._ascend

    def counted(*args):
        calls.append(1)
        return ascend(*args)

    monkeypatch.setattr(variational, "_ascend", counted)
    return calls


def test_partner_bound_holds_and_stopping_at_it_changes_no_result(monkeypatch):
    # no value exceeds the bound, and a skipped ascent could not have
    # replaced the best end point, so the result is the one every ascent
    # gives, bit for bit
    calls = counting_ascents(monkeypatch)
    monkeypatch.setattr(variational, "MAX_ITERS", 50)
    runs = [(rho, sig, OptConfig(restarts=2, seed=j), sides)
            for j, (rho, sig) in enumerate(bound_corpus())
            for sides in ("both", "a", "b")]
    with_stop = []
    for rho, sig, cfg, sides in runs:
        sups = [partner_sup(rho), partner_sup(sig)]
        res = s_hat(rho, sig, cfg, sides=sides)
        assert res.bound == max(min(s.sup_a for s in sups), min(s.sup_b for s in sups))
        assert res.value <= res.bound * (1 + 1e-12)
        with_stop.append(res)
    n_with = len(calls)
    without_bound(monkeypatch)
    for (rho, sig, cfg, sides), stopped in zip(runs, with_stop):
        full = s_hat(rho, sig, cfg, sides=sides)
        assert full.value == stopped.value
        assert all(np.array_equal(a, b) for a, b in zip(full.params, stopped.params))
        assert full.trajectory == stopped.trajectory
        assert full.converged is stopped.converged
        assert full.bound == math.inf
    assert n_with < len(calls) - n_with  # the stop fired somewhere


def test_stop_skips_the_ascents_once_the_bound_is_reached(monkeypatch):
    # s_hat = d x = sup at the identity start: the first ascent reaches it
    calls = counting_ascents(monkeypatch)
    rho, sig = isotropic(3, 0.7), max_entangled(3).projector()
    res = s_hat(rho, sig, OptConfig(restarts=2), sides="b")
    assert len(calls) == 1
    assert abs(res.value - 2.1) <= 1e-12
    without_bound(monkeypatch)
    calls.clear()
    assert s_hat(rho, sig, OptConfig(restarts=2), sides="b").value == res.value
    assert len(calls) == 4


def reference_objective(rho_m, sigma_m, dims, local):
    """The objective with a gradient that rotates rho afresh from the
    factors, as the ascent did before it kept the value's rotation."""
    dims = tuple(dims)
    side = math.prod(dims)
    if local is not None:
        keep = (local,)
        sigma_x = one_trace_at_a_time(sigma_m, dims, keep)

    def rotated(factors):
        u, v = factors
        w = (u[:, None, :, None] * v[None, :, None, :]).reshape(side, side)
        return w @ rho_m @ w.conj().T

    def value(factors):
        rot = rotated(factors)
        g = _trace_product(rot, sigma_m)
        if local is None:
            return g
        rot_x = one_trace_at_a_time(rot, dims, keep)
        return _guarded_ratios(g, _trace_product(rot_x, sigma_x))

    def grad(factors):
        rot = rotated(factors)
        comm = sigma_m @ rot - rot @ sigma_m
        grads = [one_trace_at_a_time(comm, dims, (k,)) for k in (0, 1)]
        if local is None:
            return grads
        rot_x = one_trace_at_a_time(rot, dims, keep)
        g, l_x = _trace_product(rot, sigma_m), _trace_product(rot_x, sigma_x)
        if l_x <= 0.0:
            return [np.zeros_like(gr) for gr in grads]
        grads = [gr / l_x for gr in grads]
        grads[local] = grads[local] - g / l_x**2 * (sigma_x @ rot_x - rot_x @ sigma_x)
        return grads

    return lambda factors: (value(factors), lambda: grad(factors))


def maximized(monkeypatch, run) -> list:
    """Every OptResult that ``_maximize`` returns while ``run()`` runs."""
    results, maximize = [], variational._maximize

    def recorded(*args):
        results.append(maximize(*args))
        return results[-1]

    monkeypatch.setattr(variational, "_maximize", recorded)
    run()
    monkeypatch.setattr(variational, "_maximize", maximize)
    return results


def test_ascent_matches_the_reference_that_recomputes_each_gradient(monkeypatch):
    # the gradient taken from the value's own rotation changes no bit of
    # any result: on the bound corpus and on the variational benchmark's
    # inputs, for s_hat and for the fully entangled fraction
    def run():
        with monkeypatch.context() as patch:
            patch.setattr(variational, "MAX_ITERS", 50)
            for j, (rho, sig) in enumerate(bound_corpus()):
                cfg = OptConfig(restarts=2, seed=j)
                s_hat(rho, sig, cfg)
                if rho.dims[0] == rho.dims[1]:
                    fully_entangled_fraction(rho, cfg)
        s_hat(isotropic(4, 0.6), random_mixed((4, 4), rank=2, seed=3),
              OptConfig(restarts=2))
        verify_shat_fef_identity(isotropic(3, 0.7), OptConfig(restarts=2))

    kept = maximized(monkeypatch, run)
    monkeypatch.setattr(variational, "_objective", reference_objective)
    reference = maximized(monkeypatch, run)
    assert len(kept) == len(reference) > len(bound_corpus())
    for got, want in zip(kept, reference):
        assert got.value == want.value
        assert all(np.array_equal(a, b) for a, b in zip(got.params, want.params))
        assert got.trajectory == want.trajectory
        assert got.converged is want.converged
        assert got.bound == want.bound


def per_matrix_cayley(a):
    """The Cayley factor one d x d matrix at a time, as each factor took its
    own solve before two factors of one dimension stepped as one stack."""
    if a.ndim == 3:
        return np.stack([per_matrix_cayley(m) for m in a])
    eye = np.eye(len(a))
    return np.linalg.solve(eye - a / 2.0, eye + a / 2.0)


def test_stacked_step_matches_the_solve_of_each_factor_on_its_own(monkeypatch):
    # LAPACK solves each matrix of a stack on its own, so stepping both
    # factors of one dimension through one solve changes no bit of any
    # result: on the bound corpus, the variational benchmark's inputs and
    # a (2, 3) pair, whose factors differ in dimension, with both sides rotated
    def run():
        with monkeypatch.context() as patch:
            patch.setattr(variational, "MAX_ITERS", 50)
            for j, (rho, sig) in enumerate(bound_corpus()):
                s_hat(rho, sig, OptConfig(restarts=2, seed=j))
        s_hat(isotropic(4, 0.6), random_mixed((4, 4), rank=2, seed=3),
              OptConfig(restarts=2), sides="both")
        verify_shat_fef_identity(isotropic(3, 0.7), OptConfig(restarts=2))
        s_hat(random_mixed((2, 3), seed=5), random_mixed((2, 3), rank=2, seed=6),
              OptConfig(restarts=3, seed=4), sides="both")

    calls = []
    cayley = variational._cayley
    monkeypatch.setattr(variational, "_cayley", lambda a: calls.append(a.ndim) or cayley(a))
    stacked = maximized(monkeypatch, run)
    assert 3 in calls and 2 in calls  # both the stacked and the per-factor step ran
    monkeypatch.setattr(variational, "_cayley", per_matrix_cayley)
    reference = maximized(monkeypatch, run)
    assert len(stacked) == len(reference) == len(bound_corpus()) + 4
    for got, want in zip(stacked, reference):
        assert got.value == want.value
        assert all(np.array_equal(a, b) for a, b in zip(got.params, want.params))
        assert got.trajectory == want.trajectory
        assert got.converged is want.converged
        assert got.bound == want.bound


def test_certified_bound_invariant_under_local_rotation():
    rng = np.random.default_rng(47)
    rho = random_mixed((2, 2), rank=2, seed=51)
    sig = random_mixed((2, 2), seed=52)
    base = s_hat(rho, sig, OptConfig(restarts=6, seed=1)).value
    for trial in range(3):
        u = sample_local_unitary(2, rng)
        v = sample_local_unitary(2, rng)
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
        u = sample_local_unitary(d, rng)
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


def test_optconfig_validation():
    with pytest.raises(ValueError):
        OptConfig(restarts=0)
    # a negative seed failed later, inside the generator
    with pytest.raises(ValueError, match="seed must be >= 0"):
        OptConfig(seed=-1)


def test_package_import_loads_only_numpy():
    # numpy is the one dependency; the optimizer pulls in no other package
    code = ("import sys; before = set(sys.modules); import overlapcert; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    # the child imports the package from the directory this test imported it from
    src = os.path.dirname(os.path.dirname(variational.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "['numpy', 'overlapcert']"
