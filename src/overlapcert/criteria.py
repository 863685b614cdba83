"""Bipartite entanglement and Schmidt-number detection criteria.

The central quantity is the ratio of global to local state overlap,

    s_X(rho, sigma) = Tr[rho sigma] / Tr[rho_X sigma_X],   X in {A, B},

with s = max(s_A, s_B) and the convention s_X = 0 when the denominator
vanishes.  If rho has Schmidt number at most r then s <= r for every
sigma, so observing s > r certifies Schmidt number >= r+1 for BOTH
states at once.  The same module gives the largest ratio any sigma
reaches (the partner supremum, whose threshold test is the reduction
check) and the criteria the ratio is compared against: the purity check,
fidelity-based witnesses with their spectral detectability bound, and the
third-moment partial-transpose test.  Each takes states of two subsystems,
A then B, as laid out; regroup any other layout with
``permute_subsystems_matrix`` first.

Every strict inequality carries the fixed tolerance ``DEFAULT_TOL``, which
no function takes as a parameter: a ratio of exactly r (a pure state
against its verifier) certifies r, never r+1, only under one fixed cut-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import (
    SCHMIDT_CUTOFF,
    PureVec,
    QState,
    _bipartite,
    _guarded_ratios,
    _overlap_table,
    _overlaps,
    partial_trace_matrix,
    partial_transpose_matrix,
    schmidt_decompose,
)

DEFAULT_TOL = 1e-9


def _level(r) -> int:
    """``r`` as an integer >= 1, numpy's too, not a bool."""
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"r must be an integer >= 1, not {r!r}")
    return int(r)


def sn_bound_from_ratio(s):
    """Certified Schmidt-number lower bound from an overlap ratio: an int for a
    float, an int array elementwise for an array."""
    bound = np.maximum(np.ceil(np.subtract(s, DEFAULT_TOL)), 1)
    return bound.astype(int) if np.ndim(bound) else int(bound)


@dataclass(frozen=True)
class OverlapRatio:
    """Global and local overlaps of one state pair, with their ratios."""

    global_overlap: float
    local_a: float
    local_b: float
    s_a: float
    s_b: float
    s: float


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one criterion applied to one state (or state pair)."""

    values: dict
    detected: bool
    sn_lower_bound: int


_BIPARTITE_SETS = ((0, 1), (0,), (1,))


def _grouped(state: QState):
    """The state's matrix and (d_A, d_B); it must have two subsystems."""
    return state.matrix, *_bipartite(state.dims)


def overlap_ratio(rho: QState, sigma: QState) -> OverlapRatio:
    """Global-to-local overlap ratios of two states with identical layout."""
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    rm, d_a, d_b = _grouped(rho)
    return _matrix_ratio(rm, sigma.matrix, d_a, d_b)


def _matrix_ratio(rm: np.ndarray, sm: np.ndarray, d_a: int, d_b: int) -> OverlapRatio:
    """:func:`overlap_ratio` of two unchecked matrices in (A, B) layout."""
    g, la, lb = _overlaps(rm, sm, (d_a, d_b), _BIPARTITE_SETS)
    s_a, s_b = _guarded_ratios(g, la), _guarded_ratios(g, lb)
    return OverlapRatio(g, la, lb, s_a, s_b, max(s_a, s_b))


def overlap_ratio_table(rhos, sigmas, rho_weights=None,
                        sigma_weights=None) -> np.ndarray:
    """The ratio s of every pair (rhos[i], sigmas[j]) as an (n, m) array; with
    W = rho_weights or V = sigma_weights, of the mixtures sum_k W[i, k] rhos[k]
    against sum_l V[j, l] sigmas[l].

    Without weights each entry equals ``overlap_ratio(rhos[i], sigmas[j]).s``.
    Overlaps are bilinear, so a table of mixtures is W T V^T on the overlap
    table T of the given states, each reduced once; no mixture is built, and
    the weights are not checked.
    """
    rhos, sigmas = list(rhos), list(sigmas)
    if not rhos or not sigmas:
        raise ValueError("need at least one rho and one sigma")
    dims = rhos[0].dims
    for st in rhos + sigmas:
        if st.dims != dims:
            raise ValueError(f"dimension mismatch: {dims} vs {st.dims}")
    t = _overlap_table([st.matrix for st in rhos], [st.matrix for st in sigmas],
                       _bipartite(dims), _BIPARTITE_SETS)
    if rho_weights is not None:
        t = np.asarray(rho_weights, dtype=float) @ t
    if sigma_weights is not None:
        t = t @ np.asarray(sigma_weights, dtype=float).T
    g, la, lb = t
    return np.maximum(_guarded_ratios(g, la), _guarded_ratios(g, lb))


def ipc_bound(rho: QState, sigma: QState) -> CriterionVerdict:
    """Schmidt-number lower bound from the overlap ratio, at most min(d_A, d_B).

    The certified bound applies simultaneously to ``rho`` and ``sigma``.
    """
    ratio = overlap_ratio(rho, sigma)
    bound = min(sn_bound_from_ratio(ratio.s), *rho.dims)
    return CriterionVerdict(
        values={
            "s": ratio.s,
            "s_a": ratio.s_a,
            "s_b": ratio.s_b,
            "global": ratio.global_overlap,
            "local_a": ratio.local_a,
            "local_b": ratio.local_b,
        },
        detected=bound >= 2,
        sn_lower_bound=bound,
    )


@dataclass(frozen=True)
class PartnerSup:
    """sup over sigma of s_A and s_B, each side's optimal sigma (``vecs``)
    and its (Tr[rho sigma], Tr[rho_X sigma_X]) (``overlaps``) taken from
    rho, which unlike the whitened sups keep their accuracy as rho_X nears
    singular."""

    sup_a: float
    sup_b: float
    vecs: tuple[PureVec, PureVec]
    overlaps: tuple[tuple[float, float], tuple[float, float]]

    @property
    def sup(self) -> float:
        return max(self.sup_a, self.sup_b)

    def certificate(self, r: int) -> PureVec | None:
        """The optimal sigma, larger side first (A on a tie), with the absolute
        margin Tr[rho sigma] - r Tr[rho_X sigma_X] > ``DEFAULT_TOL``; None at
        r >= min(d_A, d_B), as no state has a larger Schmidt number."""
        r = _level(r)
        if r >= min(self.vecs[0].dims):
            return None
        sides = (1, 0) if self.sup_b > self.sup_a else (0, 1)
        return next((self.vecs[x] for x in sides if self.overlaps[x][0]
                     - r * self.overlaps[x][1] > DEFAULT_TOL), None)


def partner_sup(rho: QState) -> PartnerSup:
    """The largest overlap ratio any partner state sigma reaches with ``rho``.

    s_X(rho, sigma) = Tr[rho sigma] / Tr[(rho_X x I) sigma] is a ratio of two
    linear functionals of sigma, so its supremum is the top eigenvalue of
    rho whitened by rho_X^(-1/2) x I on supp(rho_X) (eigenvalues of rho_X
    above ``SCHMIDT_CUTOFF`` times the largest), attained by the pure sigma
    on its eigenvector."""
    m, d_a, d_b = _grouped(rho)
    sups, vecs, overlaps = [], [], []
    for kept in (0, 1):
        rho_x = partial_trace_matrix(m, (d_a, d_b), [kept])
        lam, u = np.linalg.eigh(rho_x)
        on = lam > SCHMIDT_CUTOFF * lam[-1]
        w = u[:, on] / np.sqrt(lam[on])
        w = np.kron(w, np.eye(d_b)) if kept == 0 else np.kron(np.eye(d_a), w)
        vals, top = np.linalg.eigh(w.conj().T @ m @ w)
        vec = w @ top[:, -1]
        vec /= np.linalg.norm(vec)
        grid = vec.reshape(d_a, d_b)  # Tr[rho_X sigma_X] = <vec|rho_X x I|vec>
        local = np.vdot(grid, rho_x @ grid if kept == 0 else grid @ rho_x.T)
        sups.append(float(vals[-1]))
        overlaps.append((float(np.vdot(vec, m @ vec).real), float(local.real)))
        vecs.append(PureVec(rho.dims, vec))
    return PartnerSup(*sups, tuple(vecs), tuple(overlaps))


def reduction_check(rho: QState, r: int = 1) -> CriterionVerdict:
    """Reduction criterion: r*rho_A x I - rho and r*I x rho_B - rho are both
    positive exactly when :func:`partner_sup` is <= r; detected (Schmidt
    number > r) when :meth:`PartnerSup.certificate` finds a sigma."""
    best = partner_sup(rho)
    detected = best.certificate(r) is not None
    return CriterionVerdict(
        values={"sup": best.sup, "sup_a_side": best.sup_a,
                "sup_b_side": best.sup_b, "r": float(r)},
        detected=detected,
        sn_lower_bound=r + 1 if detected else 1,
    )


def extract_ipc_witness(rho: QState, r: int = 1) -> QState | None:
    """Partner state certifying s > r, or None when the reduction check
    passes: the optimal sigma that :meth:`PartnerSup.certificate` finds."""
    vec = partner_sup(rho).certificate(r)
    return None if vec is None else vec.projector()


def purity_check(rho: QState) -> CriterionVerdict:
    """Global purity against the smaller local purity.

    Detection (Tr[rho^2] above the minimum local purity) certifies
    entanglement; the size of the purity ratio certifies more.  Writing
    g_X = log2(Tr[rho^2] / Tr[rho_X^2]) for the second-order Renyi entropy
    gap, g_X > log2(r) certifies Schmidt number >= r+1, so the bound is
    ceil(max_X 2^{g_X}) with the usual tolerance guard, at most min(d_A, d_B);
    it detects when the bound is at least 2.
    """
    m, d_a, d_b = _grouped(rho)
    ratio = _matrix_ratio(m, m, d_a, d_b)
    bound = min(sn_bound_from_ratio(ratio.s), d_a, d_b)
    return CriterionVerdict(
        values={"purity_global": ratio.global_overlap, "purity_a": ratio.local_a,
                "purity_b": ratio.local_b, "purity_ratio": ratio.s},
        detected=bound >= 2,
        sn_lower_bound=bound,
    )


def fbc_witness_value(rho: QState, phi: PureVec, r: int = 1) -> CriterionVerdict:
    """Expectation of the rank-r fidelity witness built from ``phi``.

    The witness is (sum of the top r squared Schmidt coefficients of phi)
    times the identity, minus |phi><phi|.  A negative expectation value on
    ``rho`` certifies Schmidt number >= r+1, so none does at r = min(d_A, d_B).
    """
    r = _level(r)
    if rho.dims != phi.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {phi.dims}")
    sd = schmidt_decompose(phi)
    if sd.rank < r:
        raise ValueError(f"witness state has Schmidt rank {sd.rank} < r={r}")
    top_r = float(np.sum(sd.coeffs[:r]))
    fidelity = float(np.real(phi.vec.conj() @ (rho.matrix @ phi.vec)))
    value = top_r - fidelity
    detected = value < -DEFAULT_TOL and r < min(rho.dims)
    return CriterionVerdict(
        values={"witness_value": value, "fidelity": fidelity, "top_r_sum": top_r,
                "r": float(r)},
        detected=detected,
        sn_lower_bound=r + 1 if detected else 1,
    )


def fbc_spectrum_bound(rho: QState, r: int = 1) -> bool:
    """True when no rank-r fidelity witness can detect ``rho``.

    If the largest eigenvalue of rho is at most max(r/d_A, r/d_B), every
    witness of the fidelity form has nonnegative expectation, i.e. rho is
    provably (r+1)-unfaithful.
    """
    r = _level(r)
    _, d_a, d_b = _grouped(rho)
    lam_max = float(np.linalg.eigvalsh(rho.matrix)[-1])
    return lam_max <= max(r / d_a, r / d_b) + DEFAULT_TOL


def pt_moments(rho: QState) -> list[float]:
    """Moments p_k = Tr[(rho^T_A)^k] for k = 1, 2, 3."""
    m, d_a, d_b = _grouped(rho)
    pt = partial_transpose_matrix(m, (d_a, d_b), [0])
    eigs = np.linalg.eigvalsh(pt)
    return [float(np.sum(eigs**k)) for k in (1, 2, 3)]


def p3_ppt_check(rho: QState) -> CriterionVerdict:
    """Third-moment partial-transpose test: separable states obey p2^2 <= p3."""
    p1, p2, p3 = pt_moments(rho)
    detected = p2 * p2 > p3 + DEFAULT_TOL
    return CriterionVerdict(
        values={"p1": p1, "p2": p2, "p3": p3, "gap": p2 * p2 - p3},
        detected=detected,
        sn_lower_bound=2 if detected else 1,
    )


# ---------------------------------------------------------------------------
# Closed forms for the corner-isotropic family.


def corner_delta(d: int, x: float) -> float:
    """Largest eigenvalue of corner_isotropic(d, x).

    With m = (1-x)/(d-1)^2 and n = x/d the top of the spectrum is
    (m + n d + sqrt((m + n d)^2 - 4 m n)) / 2.
    """
    if d < 3:
        raise ValueError("corner-isotropic family needs d >= 3")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    m = (1.0 - x) / (d - 1) ** 2
    n = x / d
    return (m + n * d + math.sqrt((m + n * d) ** 2 - 4.0 * m * n)) / 2.0


def corner_fbc_psi_boundary(d: int, r: int = 1) -> float:
    """Smallest x at which the rank-r fidelity witness of |Psi> detects.

    Solves x + (1-x)/(d(d-1)) = r/d, i.e. x = (r(d-1) - 1)/(d^2 - d - 1).
    """
    r = _level(r)
    if d < 3 or r > d:
        raise ValueError(f"corner-isotropic family needs d >= 3 and r <= d, not d={d}, r={r}")
    return (r * (d - 1) - 1.0) / (d * d - d - 1.0)


def _corner_gap_polys(d: int) -> tuple[list[float], list[float]]:
    """Coefficients, highest power first, of two polynomials in x for
    corner_isotropic(d, x): the purity gap Tr[rho^2] - Tr[rho_A^2] (a
    quadratic), and the cubic c with p2^2 - p3 = x c(x) / ((d-1)^4 d^2)."""
    # purity gap = a (1-x)^2 + b x^2 + c x (1-x) in the closed forms below
    a, b, c = -(d - 2) / (d - 1) ** 2, (d - 1) / d, -2 * (d - 2) / (d * (d - 1))
    cubic = [(d**3 - 2 * d**2 + 2) ** 2, 2 * d**4 - 12 * d**3 + 18 * d**2 - 5 * d - 6,
             -(d**4) + 8 * d**3 - 15 * d**2 + 10 * d + 1, -d]
    return [a + b - c, c - 2 * a, a], cubic


def corner_isotropic_closed_forms(d: int, x: float) -> dict:
    """Closed-form scalars for corner_isotropic(d, x).

    Returns the largest eigenvalue ``delta``, the third-moment gap
    ``p2sq_minus_p3``, the global and local purities, and the x-threshold
    above which the fidelity witness of |Psi> detects.
    """
    delta = corner_delta(d, x)  # which checks d and x
    cubic = _corner_gap_polys(d)[1]
    return {
        "delta": delta,
        "p2sq_minus_p3": x / ((d - 1) ** 4 * d**2) * float(np.polyval(cubic, x)),
        "purity_global": (1 - x) ** 2 / (d - 1) ** 2 + x**2
        + 2 * (1 - x) * x / ((d - 1) * d),
        "purity_local": (1 - x) ** 2 / (d - 1) + x**2 / d + 2 * (1 - x) * x / d,
        "fbc_psi_threshold": corner_fbc_psi_boundary(d, 1),
    }
