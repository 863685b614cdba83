"""Local-unitary maximization of the overlap ratio.

The overlap ratio is not invariant under local unitaries even though the
Schmidt number is, so rotating one state before comparing can only
improve the certified bound:

    s_max(rho, sigma) = sup_{U, V} s((U x V) rho (U x V)^dag, sigma).

The supremum is approached by multi-start quasi-Newton ascent over an
exactly-unitary parameterization (Givens rotations plus phases, d^2 real
parameters per side).  All reported values are lower bounds on the
supremum; no global-optimality claim is made.

Against the maximally entangled state the optimized ratio collapses to
d times the fully entangled fraction, which this module also computes so
the two routes can be cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .qmat import QState, partial_trace_matrix
from .states import max_entangled


@dataclass(frozen=True)
class OptConfig:
    """Ascent settings: restart count, iteration budget, tolerances, seed."""

    restarts: int = 8
    max_iters: int = 300
    tol: float = 1e-12
    fd_step: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def to_json(self) -> dict:
        return {
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "tol": self.tol,
            "fd_step": self.fd_step,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OptConfig":
        return cls(
            restarts=int(obj.get("restarts", 8)),
            max_iters=int(obj.get("max_iters", 300)),
            tol=float(obj.get("tol", 1e-12)),
            fd_step=float(obj.get("fd_step", 1e-5)),
            seed=int(obj.get("seed", 0)),
        )


@dataclass(frozen=True)
class OptResult:
    """Best value found, the parameters achieving it, and the search trace.

    ``converged`` is the optimizer's success flag of the restart that
    found ``value``.
    """

    value: float
    params: np.ndarray
    trajectory: tuple[float, ...]
    restarts: int
    converged: bool


def unitary_param_count(d: int) -> int:
    return d * d


def unitary_from_params(params, d: int) -> np.ndarray:
    """Unitary from d^2 real parameters; exactly unitary at every point.

    Layout: d(d-1)/2 rotation angles, d(d-1)/2 relative phases, then d
    diagonal phases.  The zero vector maps to the identity.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (d * d,):
        raise ValueError(f"expected {d * d} parameters for dimension {d}")
    n_pairs = d * (d - 1) // 2
    thetas = params[:n_pairs]
    phis = params[n_pairs : 2 * n_pairs]
    alphas = params[2 * n_pairs :]
    u = np.diag(np.exp(1j * alphas))
    k = 0
    for i in range(d - 1):
        for j in range(i + 1, d):
            c = math.cos(thetas[k])
            s = math.sin(thetas[k])
            ph = np.exp(1j * phis[k])
            g = np.eye(d, dtype=complex)
            g[i, i] = c
            g[i, j] = -np.conj(ph) * s
            g[j, i] = ph * s
            g[j, j] = c
            u = g @ u
            k += 1
    return u


def central_diff_grad(f, x: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    g = np.empty_like(x)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = step
        g[k] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def _maximize(objective, n_params: int, cfg: OptConfig) -> OptResult:
    """Multi-start L-BFGS ascent: identity start plus random restarts."""
    rng = np.random.default_rng(cfg.seed)
    starts = [np.zeros(n_params)]
    starts += [rng.uniform(-math.pi, math.pi, n_params)
               for _ in range(cfg.restarts - 1)]
    best_value = -math.inf
    best_params = starts[0]
    best_traj: list[float] = []
    best_converged = False
    for x0 in starts:
        traj = [float(objective(x0))]

        def record(xk):
            traj.append(float(objective(xk)))

        res = minimize(
            lambda x: -objective(x),
            x0,
            jac=lambda x: -central_diff_grad(objective, x, cfg.fd_step),
            method="L-BFGS-B",
            callback=record,
            options={"maxiter": cfg.max_iters, "ftol": cfg.tol, "gtol": 1e-12},
        )
        value = float(-res.fun)
        if value > best_value:
            best_value = value
            best_params = np.asarray(res.x)
            best_traj = traj
            best_converged = bool(res.success)
    return OptResult(
        value=best_value,
        params=best_params,
        trajectory=tuple(np.maximum.accumulate(best_traj)),
        restarts=cfg.restarts,
        converged=best_converged,
    )


def _ratio_after_rotation(rho: QState, sigma: QState):
    """Closure computing s((U x V) rho (U x V)^dag, sigma) from parameters."""
    if rho.dims != sigma.dims or len(rho.dims) != 2:
        raise ValueError("both states must share the same two-subsystem layout")
    d_a, d_b = rho.dims
    rho_m = rho.matrix
    rho_a = partial_trace_matrix(rho_m, rho.dims, [0])
    rho_b = partial_trace_matrix(rho_m, rho.dims, [1])
    sig_m = sigma.matrix
    sig_a = partial_trace_matrix(sig_m, sigma.dims, [0])
    sig_b = partial_trace_matrix(sig_m, sigma.dims, [1])

    def ratio(u: np.ndarray, v: np.ndarray) -> float:
        w = np.kron(u, v)
        rot = w @ rho_m @ w.conj().T
        g = float(np.einsum("ij,ji->", rot, sig_m).real)
        # locals of the rotated state are the rotated locals
        la = float(np.einsum("ij,ji->", u @ rho_a @ u.conj().T, sig_a).real)
        lb = float(np.einsum("ij,ji->", v @ rho_b @ v.conj().T, sig_b).real)
        s_a = g / la if la > 0.0 else 0.0
        s_b = g / lb if lb > 0.0 else 0.0
        return max(s_a, s_b)

    return ratio, d_a, d_b


def s_hat(rho: QState, sigma: QState, cfg: OptConfig = OptConfig(),
          sides: str = "both") -> OptResult:
    """Lower bound on the local-unitary-optimized overlap ratio.

    ``sides`` restricts which side gets rotated ("both", "a", or "b");
    the identity is always a candidate, so the result is never below the
    plain overlap ratio.  The certified Schmidt bound ceil(value) applies
    to both states.
    """
    if sides not in ("both", "a", "b"):
        raise ValueError("sides must be 'both', 'a' or 'b'")
    ratio, d_a, d_b = _ratio_after_rotation(rho, sigma)
    eye_a = np.eye(d_a, dtype=complex)
    eye_b = np.eye(d_b, dtype=complex)
    if sides == "both":
        n_par = unitary_param_count(d_a) + unitary_param_count(d_b)

        def objective(x):
            u = unitary_from_params(x[: d_a * d_a], d_a)
            v = unitary_from_params(x[d_a * d_a :], d_b)
            return ratio(u, v)

    elif sides == "a":
        n_par = unitary_param_count(d_a)

        def objective(x):
            return ratio(unitary_from_params(x, d_a), eye_b)

    else:
        n_par = unitary_param_count(d_b)

        def objective(x):
            return ratio(eye_a, unitary_from_params(x, d_b))

    return _maximize(objective, n_par, cfg)


def fully_entangled_fraction(rho: QState, cfg: OptConfig = OptConfig()) -> float:
    """Largest fidelity with (1 x U)|Psi> over unitaries U, a lower bound.

    Requires equal local dimensions.  For the maximally entangled state
    itself the value is 1; for white noise it is 1/d^2.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError("fully entangled fraction needs equal local dimensions")
    d = rho.dims[0]
    rho_m = rho.matrix
    sqrt_d = math.sqrt(d)

    def objective(x):
        u = unitary_from_params(x, d)
        v = (u.T / sqrt_d).reshape(-1)  # (1 x U)|Psi>
        return float(np.real(v.conj() @ (rho_m @ v)))

    return _maximize(objective, unitary_param_count(d), cfg).value


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
