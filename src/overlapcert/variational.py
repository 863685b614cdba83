"""Local-unitary maximization of the overlap ratio.

The overlap ratio is not invariant under local unitaries even though the
Schmidt number is, so rotating one state before comparing can only
improve the certified bound:

    s_max(rho, sigma) = sup_{U, V} s((U x V) rho (U x V)^dag, sigma).

Since sup max(s_A, s_B) = max(sup s_A, sup s_B), each side's ratio is
maximized on its own by Riemannian steepest ascent on U(d_A) x U(d_B)
(Abrudan, Eriksson and Koivunen, IEEE TSP 56, 1134 (2008)) from the
identity and from Haar-random starts.  With rho' = (U x V) rho (U x V)^dag
the gradient of Tr[rho' sigma] is Tr_B[sigma, rho'] for U and
Tr_A[sigma, rho'] for V, that of Tr[rho'_X sigma_X] is [sigma_X, rho'_X],
and the ratio's follows by the quotient rule.  Each step moves along the
Cayley curve (I - tG/2)^-1 (I + tG/2) U, which stays unitary, with t set
by Armijo backtracking and doubling.  All reported values are lower
bounds on the supremum; no global-optimality claim is made.

No s_X can exceed min(sup_X rho, sup_X sigma), the partner suprema of
:func:`~overlapcert.criteria.partner_sup`: the ratio is symmetric in the
two states and sup_X is invariant under local unitaries.  Once the best
value found reaches that bound, the remaining ascents of s_X are skipped.

Against the maximally entangled state the optimized ratio collapses to
d times the fully entangled fraction, which this module also computes
with the same gradient code so the two routes can be cross-checked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .criteria import partner_sup
from .qmat import QState, _guarded_ratios, _reductions, _trace_product
from .randomized import sample_local_unitary
from .states import max_entangled

# Sufficient-increase constant of the Armijo step rule.  A small constant
# keeps overlong steps once doubling has found them, and the ascent then
# stalls on the hidden-rotation recoveries.
ARMIJO = 0.3

# An ascent stops once a step gains at most GAIN_TOL times the objective's
# size, when no step along the gradient gains at all, or after MAX_ITERS steps.
MAX_ITERS = 300
GAIN_TOL = 1e-12

# Relative slack on a partner-supremum bound: the computed value and the
# computed bound each carry rounding errors, so an ascent may end a few
# ulps above the bound it cannot exceed in exact arithmetic.
BOUND_SLACK = 1e-13


@dataclass(frozen=True)
class OptConfig:
    """Ascent settings: the number of starts and the seed of their draws."""

    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class OptResult:
    """Best value found, the local unitaries (U, V) achieving it, and the
    best-so-far value after each accepted step of the ascent that found it.

    ``converged`` is True when that ascent stopped before its step budget.
    ``bound`` is an upper bound on the supremum (``math.inf`` when none is
    known), so ``bound - value`` is the largest possible shortfall.
    """

    value: float
    params: tuple[np.ndarray, np.ndarray]
    trajectory: tuple[float, ...]
    converged: bool
    bound: float


def _objective(rho_m: np.ndarray, sigma_m: np.ndarray, dims, local: int | None):
    """Value and Riemannian gradients of Tr[rho' sigma] / Tr[rho'_X sigma_X].

    rho' = (U x V) rho (U x V)^dag, X is subsystem ``local``, and with
    ``local=None`` the global overlap Tr[rho' sigma] itself is the
    objective.  The returned function takes the factors [U, V] and gives
    the value and a function of no arguments for the gradients, one
    skew-Hermitian matrix per factor, taken from the same rho' and
    overlaps, so a point whose gradient is never asked for costs one
    rotation.  sigma_X is reduced once here, and the overlaps are the
    overlap core's own trace products.
    """
    dims = tuple(dims)
    side = math.prod(dims)
    if local is not None:
        keep = [(local,)]
        sigma_x, = _reductions(sigma_m, dims, keep)

    def gradient(rot, g, rot_x, l_x) -> list[np.ndarray]:
        comm = sigma_m @ rot - rot @ sigma_m
        grads = _reductions(comm, dims, [(0,), (1,)])
        if local is None:
            return grads
        if l_x <= 0.0:
            return [np.zeros_like(gr) for gr in grads]
        grads = [gr / l_x for gr in grads]
        grads[local] = grads[local] - g / l_x**2 * (sigma_x @ rot_x - rot_x @ sigma_x)
        return grads

    def evaluate(factors):
        u, v = factors  # U x V as one broadcast product, entry for entry np.kron's
        w = (u[:, None, :, None] * v[None, :, None, :]).reshape(side, side)
        rot = w @ rho_m @ w.conj().T
        g = _trace_product(rot, sigma_m)
        if local is None:
            return g, lambda: gradient(rot, g, None, None)
        rot_x, = _reductions(rot, dims, keep)
        l_x = _trace_product(rot_x, sigma_x)
        return _guarded_ratios(g, l_x), lambda: gradient(rot, g, rot_x, l_x)

    return evaluate


@functools.cache
def _identity(d: int) -> np.ndarray:
    eye = np.eye(d)  # built once per dimension and shared, so read-only
    eye.flags.writeable = False
    return eye


def _cayley(a: np.ndarray) -> np.ndarray:
    """(I - a/2)^-1 (I + a/2) of each skew-Hermitian d x d matrix of the
    (..., d, d) stack ``a``, unitary; LAPACK solves each matrix on its own."""
    half, eye = a / 2.0, _identity(a.shape[-1])
    return np.linalg.solve(eye - half, eye + half)


def _ascend(evaluate, factors, rotate):
    """One steepest ascent of the objective ``evaluate`` over the factors
    listed in ``rotate``; only an accepted point's gradient is computed.

    Returns the final factors, the objective after each accepted step
    (starting value first) and whether the ascent stopped before
    ``MAX_ITERS`` steps.
    """
    # two rotated factors of one dimension step, and end, as one (2, d, d) stack
    stacked = len(rotate) == 2 and factors[0].shape == factors[1].shape
    factors = np.stack(factors) if stacked else list(factors)
    (f, grad), t = evaluate(factors), 1.0
    trajectory = [f]
    for _ in range(MAX_ITERS):
        grads = grad()
        sq_norm = sum(float(np.vdot(grads[k], grads[k]).real) for k in rotate)
        if sq_norm == 0.0:
            return factors, trajectory, True
        grads = np.stack(grads) if stacked else grads

        def trial(step):
            moved = (_cayley(step * grads) @ factors if stacked else
                     [_cayley(step * g) @ u if k in rotate else u
                      for k, (u, g) in enumerate(zip(factors, grads))])
            f_moved, grad_moved = evaluate(moved)
            return moved, f_moved, grad_moved, f_moved - f >= ARMIJO * step * sq_norm

        moved, f_moved, grad_moved, enough = trial(t)
        if enough:  # double the step while the longer one still gains enough
            while (longer := trial(2.0 * t))[3]:
                t, (moved, f_moved, grad_moved, _) = 2.0 * t, longer
        while not enough:  # otherwise halve it until one does
            t /= 2.0
            if t * math.sqrt(sq_norm) < np.finfo(float).eps:
                return factors, trajectory, True  # no representable ascent
            moved, f_moved, grad_moved, enough = trial(t)
        gain, factors, f, grad = f_moved - f, moved, f_moved, grad_moved
        trajectory.append(f)
        if gain <= GAIN_TOL * abs(f):
            return factors, trajectory, True
    return factors, trajectory, False


def _maximize(objectives, bounds, dims, rotate, cfg: OptConfig) -> OptResult:
    """Ascend every objective from every start and keep the best end point.

    The starts are the identity and ``cfg.restarts - 1`` Haar draws of the
    rotated factors.  As within one ascent, an end point replaces the best
    so far only when it improves on it by more than ``GAIN_TOL`` relative.
    ``bounds`` holds an upper bound on each objective; once the best value
    is within ``GAIN_TOL`` of one, no ascent of that objective could replace
    it, and the remaining ones are skipped.
    """
    rng = np.random.default_rng(cfg.seed)
    eye = [np.eye(d, dtype=complex) for d in dims]
    starts = [eye] + [
        [sample_local_unitary(d, rng) if k in rotate else eye[k]
         for k, d in enumerate(dims)]
        for _ in range(cfg.restarts - 1)
    ]
    best = None
    for start in starts:
        for evaluate, bound in zip(objectives, bounds):
            if best is not None and (bound * (1.0 + BOUND_SLACK) - best[1][-1]
                                     <= GAIN_TOL * abs(best[1][-1])):
                continue
            factors, trajectory, converged = _ascend(evaluate, start, rotate)
            gain = math.inf if best is None else trajectory[-1] - best[1][-1]
            if gain > GAIN_TOL * abs(trajectory[-1]):
                best = factors, trajectory, converged
    factors, trajectory, converged = best
    return OptResult(
        value=trajectory[-1],
        params=tuple(factors),
        trajectory=tuple(trajectory),  # accepted steps only ever increase it
        converged=converged,
        bound=max(bounds),
    )


_ROTATED = {"both": (0, 1), "a": (0,), "b": (1,)}


def s_hat(rho: QState, sigma: QState, cfg: OptConfig = OptConfig(),
          sides: str = "both") -> OptResult:
    """Lower bound on the local-unitary-optimized overlap ratio.

    ``sides`` restricts which side gets rotated ("both", "a", or "b");
    the identity is always a candidate, so the result is never below the
    plain overlap ratio.  The certified Schmidt bound ceil(value) applies
    to both states.  ``bound`` is max_X min(sup_X rho, sup_X sigma) from
    :func:`~overlapcert.criteria.partner_sup`.
    """
    if sides not in _ROTATED:
        raise ValueError("sides must be 'both', 'a' or 'b'")
    if rho.dims != sigma.dims or len(rho.dims) != 2:
        raise ValueError("both states must share the same two-subsystem layout")
    objectives = [_objective(rho.matrix, sigma.matrix, rho.dims, local)
                  for local in (0, 1)]
    sups = [partner_sup(rho), partner_sup(sigma)]
    bounds = [min(sup.sup_a for sup in sups), min(sup.sup_b for sup in sups)]
    return _maximize(objectives, bounds, rho.dims, _ROTATED[sides], cfg)


def fully_entangled_fraction(rho: QState, cfg: OptConfig = OptConfig()) -> float:
    """Largest fidelity with (1 x U)|Psi> over unitaries U, a lower bound.

    Requires equal local dimensions.  For the maximally entangled state
    itself the value is 1; for white noise it is 1/d^2.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError("fully entangled fraction needs equal local dimensions")
    psi = max_entangled(rho.dims[0]).projector().matrix
    objective = _objective(psi, rho.matrix, rho.dims, None)
    return _maximize([objective], [math.inf], rho.dims, _ROTATED["b"], cfg).value


def verify_shat_fef_identity(rho: QState, cfg: OptConfig = OptConfig()) -> dict:
    """Cross-check both routes to the optimized ratio against |Psi><Psi|.

    Runs the ratio ascent (B side only; against the maximally entangled
    state the A rotation is redundant) and, independently, d times the
    fully entangled fraction.  Agreement is limited by the optimizer, not
    by arithmetic.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError("identity check needs equal local dimensions")
    d = rho.dims[0]
    target = max_entangled(d).projector()
    lhs = s_hat(rho, target, cfg, sides="b").value
    fef = fully_entangled_fraction(rho, replace(cfg, seed=cfg.seed + 7919))
    rhs = d * fef
    return {
        "s_hat": lhs,
        "fef": fef,
        "d_times_fef": rhs,
        "rel_dev": abs(lhs - rhs) / max(abs(rhs), 1e-300),
    }
