"""Multipartite extensions of the overlap-ratio criterion.

Two tools: a bipartition scan that certifies a pair of n-partite states
entangled when the global overlap beats every cut's local overlaps, and a
tripartite positive-map test built from a reduction-type inversion map on
A tensored with a state-inversion map on B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import DEFAULT_TOL, _level
from .qmat import QState, _overlap_table, _reductions, embed_operator

# Exhaustive bipartition enumeration is exponential; past this size the
# scan refuses rather than silently taking hours.
MAX_SUBSYSTEMS = 12


@dataclass(frozen=True)
class CutOverlap:
    """Local overlaps of one bipartition, kept side S and its complement."""

    kept: tuple[int, ...]
    overlap_kept: float
    overlap_rest: float

    @property
    def min_side(self) -> float:
        return min(self.overlap_kept, self.overlap_rest)


@dataclass(frozen=True)
class MultiVerdict:
    """Outcome of the bipartition-scan overlap criterion."""

    global_overlap: float
    cut_table: tuple[CutOverlap, ...]
    min_cut: tuple[int, ...]
    min_value: float
    detected: bool


def bipartitions(n_subsystems: int) -> list[tuple[int, ...]]:
    """The kept side S of all 2**(n-1) - 1 distinct cuts S | S-bar, each a
    sorted index tuple, canonicalized so subsystem 0 is in S."""
    if n_subsystems < 2:
        raise ValueError("need at least two subsystems")
    if n_subsystems > MAX_SUBSYSTEMS:
        raise ValueError(f"exhaustive enumeration limited to {MAX_SUBSYSTEMS} subsystems")
    # bit i - 1 of the mask keeps subsystem i; the last mask would keep them all
    return [(0,) + tuple(i for i in range(1, n_subsystems) if mask >> (i - 1) & 1)
            for mask in range(2 ** (n_subsystems - 1) - 1)]


def _cut_overlaps(rhos, sigma: QState):
    """The cuts of ``bipartitions`` and one row per rho (on sigma's layout) of
    its overlaps with sigma on the full set, then on each cut's kept side and
    complement, from one table that reduces each matrix once."""
    n = len(sigma.dims)
    cuts = bipartitions(n)
    kept_sets = [tuple(range(n))]
    for kept in cuts:
        kept_sets += [kept, tuple(i for i in range(n) if i not in kept)]
    table = _overlap_table([rho.matrix for rho in rhos], [sigma.matrix], sigma.dims, kept_sets)
    return cuts, table[:, :, 0].T


def multipartite_ipc(rho: QState, sigma: QState) -> MultiVerdict:
    """The bipartition-scan overlap criterion for n >= 3 parties.

    Detection means the global overlap exceeds, beyond tolerance, the
    minimum over all cuts of min(<rho_S, sigma_S>, <rho_Sbar, sigma_Sbar>);
    it certifies that neither state is fully separable.
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    n = len(rho.dims)
    if n < 3:
        raise ValueError("use the bipartite criterion for two subsystems")
    cuts, overlaps = _cut_overlaps([rho], sigma)
    global_overlap, *sides = overlaps[0].tolist()
    table = [CutOverlap(kept, sides[2 * i], sides[2 * i + 1])
             for i, kept in enumerate(cuts)]
    best = min(table, key=lambda c: c.min_side)
    return MultiVerdict(
        global_overlap=global_overlap,
        cut_table=tuple(table),
        min_cut=best.kept,
        min_value=best.min_side,
        detected=global_overlap > best.min_side + DEFAULT_TOL,
    )


def _three_party(rho: QState):
    if len(rho.dims) != 3:
        raise ValueError("this map is defined for exactly three subsystems")
    return rho.dims


# Kept sets of the inversion map's closed form, in the order C, BC, AC, ABC.
_LAMBDA_SETS = ((2,), (1, 2), (0, 2), (0, 1, 2))


def _lambda_overlaps(rhos, sigma: QState) -> np.ndarray:
    """One C-ordered row per rho of its overlaps with sigma on ``_LAMBDA_SETS``,
    from one table that reduces each matrix once."""
    for rho in rhos:
        if sigma.dims != _three_party(rho):
            raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    table = _overlap_table([rho.matrix for rho in rhos], [sigma.matrix], sigma.dims, _LAMBDA_SETS)
    return table[:, :, 0].T.copy()


def _lambda_value(overlaps, r: int) -> float:
    t_c, t_bc, t_ac, t_full = overlaps
    return t_c + t_bc - (t_ac + t_full) / r


def _lambda_r_op(overlaps) -> int:
    """Largest level at which the map value of these overlaps is negative
    beyond tolerance, 0 if none."""
    # value(level) = A - B/level with A, B >= 0 and A - B = value(1), so
    # it is negative exactly for level < B/(A + DEFAULT_TOL).
    b_part = overlaps[2] + overlaps[3]
    a_part = _lambda_value(overlaps, 1) + b_part
    r_op = max(0, math.ceil(b_part / (a_part + DEFAULT_TOL)) - 1)
    while r_op >= 1 and _lambda_value(overlaps, r_op) >= -DEFAULT_TOL:
        r_op -= 1
    return r_op


def _lambda_maps(rho: QState, levels) -> list[np.ndarray]:
    """Explicit matrices of L(rho) at each of ``levels``, from one reduction
    walk and one embedding of each of rho_C, rho_BC and rho_AC."""
    levels = [_level(r) for r in levels]
    dims = _three_party(rho)
    parts = _reductions(rho.matrix, dims, _LAMBDA_SETS[:3])
    c, bc, ac = (embed_operator(m, dims, kept) for m, kept in zip(parts, _LAMBDA_SETS))
    return [c + bc - ac / r - rho.matrix / r for r in levels]


def apply_lambda_map(rho: QState, r: int = 1) -> np.ndarray:
    """Explicit matrix of L(rho), the one-level case of :func:`_lambda_maps`;
    the closed form of :func:`lambda_map_verdict` is its cheap twin."""
    return _lambda_maps(rho, [r])[0]


@dataclass(frozen=True)
class LambdaMapVerdict:
    """Structured conclusion of the tripartite inversion-map test.

    A negative value rules out every decomposition of either state into
    bipartite-product terms whose A|C components all have Schmidt number
    at most r; what remains is the disjunction recorded in ``conclusion``.
    ``r_op`` is the largest level at which the value stays negative.
    """

    r: int
    value: float
    detected: bool
    r_op: int

    @property
    def conclusion(self) -> tuple[str, str] | None:
        if not self.detected:
            return None
        return (
            "genuine multipartite entanglement",
            f"every bipartite decomposition contains an A|C component "
            f"with Schmidt number > {self.r}",
        )


def lambda_map_verdict(rho: QState, sigma: QState, r: int = 1) -> LambdaMapVerdict:
    """Evaluate the map at level r and report the detection disjunction.

    The value is the inner product <L(rho), sigma> of the tripartite
    inversion map L = (Tr_A(.) x 1_A - id/r) x (Tr_B(.) x 1_B + id) x id_C,
    evaluated through the closed form

        <rho_C, sigma_C> + <rho_BC, sigma_BC>
            - (1/r) <rho_AC, sigma_AC> - (1/r) <rho, sigma>,

    which is symmetric under swapping the roles of rho and sigma.  The
    conclusion applies to both input states.  ``r_op`` is found by
    scanning upward: the value is increasing in r, so detection at some
    level implies detection at all lower levels.
    """
    r = _level(r)
    overlaps = _lambda_overlaps([rho], sigma)[0].tolist()
    value = _lambda_value(overlaps, r)
    return LambdaMapVerdict(r=r, value=value, detected=value < -DEFAULT_TOL,
                            r_op=_lambda_r_op(overlaps))
