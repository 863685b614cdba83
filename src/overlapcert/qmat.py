"""Dense complex linear algebra over multi-qudit Hilbert spaces.

The value types here (:class:`QState`, :class:`PureVec`) pair a dense
matrix or vector with the ordered list of subsystem dimensions.  Indexing
is row-major throughout: the leftmost subsystem varies slowest, matching
``numpy.reshape`` and ``numpy.kron``.  All objects are immutable after
construction and every operation is a pure function, so everything in
this module is safe to use from concurrent workers.
"""

from __future__ import annotations

import inspect
import json
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
# Eigensolvers report small negative noise on rank-deficient states
# (pure-state projectors), so positivity is checked with a floor.
PSD_TOL = 1e-9
NORM_TOL = 1e-12
# Below this, squared Schmidt coefficients are treated as numerical zeros.
SCHMIDT_CUTOFF = 1e-12


def _as_dims(dims) -> tuple[int, ...]:
    """``dims`` as ints, each an integral number (no bool or string) and >= 2."""
    dims = tuple(dims)
    for d in dims:
        try:  # 2.5, "2" and True are not
            integral = int(d) == d and not isinstance(d, (bool, np.bool_))
        except (TypeError, ValueError, OverflowError):  # inf, nan, "x", None
            integral = False
        if not integral:
            raise ValueError(f"every subsystem dimension must be an integer, not {d!r}")
    out = tuple(map(int, dims))
    if not out:
        raise ValueError("dims must be nonempty")
    if any(d < 2 for d in out):
        raise ValueError(f"every subsystem dimension must be >= 2, got {out}")
    return out


# JSON's integer and number grammars in ASCII digits; int() and float() also
# read spaces, underscores, a plus sign and the digits of any script
_NUMBER_TEXT = {int: re.compile("-?(0|[1-9][0-9]*)"),
                float: re.compile("-?(0|[1-9][0-9]*)([.][0-9]+)?([eE][-+]?[0-9]+)?")}


def _json_number(owner: str, key: str, value, kind=int):
    """``value`` as ``kind``, never from a bool: an int from an integral number or
    a JSON integer string (not 2.5), a float from any number or JSON number string."""
    try:
        out = kind(value)
        if (_NUMBER_TEXT[kind].fullmatch(value) if isinstance(value, str) else
                not isinstance(value, bool) and (kind is float or out == value)):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    noun = "an integer" if kind is int else "a number"
    raise ValueError(f"{owner}: {key} must be {noun}, not {value!r}")


def _load_json(text: str, owner: str):
    """``json.loads(text)``, but bad JSON or a repeated key raises ValueError naming ``owner``."""
    def unique(pairs):
        if len(out := dict(pairs)) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise ValueError(f"{owner}: key {key!r} appears more than once")
        return out
    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as err:
        raise ValueError(f"{owner}: {err}") from None


def _from_json(target, obj: dict, owner: str, **decode):
    """``target`` called on a JSON object holding each parameter with no default
    and no other key (a keyword-only one is the caller's, never a key).  A key in
    ``decode`` goes through it first; then an ``int``, ``int | None`` (bar None)
    or ``float`` one follows :func:`_json_number` and a ``dict`` one is a dict."""
    params = {name: p for name, p in inspect.signature(target).parameters.items()
              if p.kind is p.POSITIONAL_OR_KEYWORD}
    if not isinstance(obj, dict):
        raise ValueError(f"{owner}: expected a JSON object, not {obj!r}")
    if unknown := sorted(set(obj) - set(params)):
        raise ValueError(f"{owner}: unknown keys {unknown}; allowed keys are {list(params)}")
    if missing := [k for k, p in params.items() if k not in obj and p.default is p.empty]:
        raise ValueError(f"{owner}: missing keys {missing}")
    kwargs = {}
    for name, p in params.items():
        if name in obj:
            value = decode.get(name, lambda v: v)(obj[name])
            kind = {"int": int, "int | None": int, "float": float}.get(p.annotation)
            if kind and not (value is None and p.annotation.endswith("| None")):
                value = _json_number(owner, name, value, kind)
            elif p.annotation == "dict" and not isinstance(value, dict):
                raise ValueError(f"{owner}: {name} must be a JSON object, not {value!r}")
            kwargs[name] = value
    return target(**kwargs)


@dataclass(frozen=True)
class QState:
    """Density operator: Hermitian, unit-trace, positive semidefinite.

    Attributes
    ----------
    dims : tuple of int
        Ordered subsystem dimensions, each >= 2.
    matrix : ndarray
        Dense complex square matrix of side ``prod(dims)``.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray
    # (v, b, c) of a state b|v><v| + c I built by _pure_plus_noise, else None
    _pure_form = None

    def __post_init__(self):
        dims = _as_dims(self.dims)
        m = _square(np.array(self.matrix, dtype=complex), dims)
        if not np.isfinite(m).all():  # NaN would pass every check below
            raise ValueError("matrix has an entry that is not finite")
        if np.abs(m - m.conj().T).max() > HERM_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError("matrix does not have unit trace")
        if np.linalg.eigvalsh(m)[0] < -PSD_TOL:
            raise ValueError("matrix is not positive semidefinite within tolerance")
        m.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True)
class PureVec:
    """Normalized state vector with an explicit subsystem layout."""

    dims: tuple[int, ...]
    vec: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        v = np.array(self.vec, dtype=complex).ravel()
        if v.shape != (math.prod(dims),):
            raise ValueError(f"vector length {v.shape} does not match dims {dims}")
        if not np.isfinite(v).all():
            raise ValueError("vector has an entry that is not finite")
        if abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
            raise ValueError("vector is not normalized")
        v.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "vec", v)

    def projector(self) -> QState:
        return _pure_plus_noise(self.dims, self.vec)


def _pure_plus_noise(dims, vec, b: float = 1.0, c: float = 0.0) -> QState:
    """The state b|v><v| + c I of a unit vector v, whose eigenvalues b + c and c
    and trace b + cD check it without an eigensolve; (v, b, c) stay on it."""
    dims, v = _as_dims(dims), np.array(vec, dtype=complex).ravel()
    side = math.prod(dims)
    if v.shape != (side,) or not np.isfinite(v).all() or abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
        raise ValueError(f"vector of shape {v.shape} is not a unit vector of finite entries "
                         f"on dims {dims}")
    if min(c, b + c) < -PSD_TOL or abs(b + c * side - 1.0) > TRACE_TOL:
        raise ValueError(f"b={b}, c={c} give eigenvalues {b + c} and {c} and trace "
                         f"{b + c * side}: not a state within tolerance")
    m = np.outer(v, v.conj())
    if (b, c) != (1.0, 0.0):  # bit for bit b * m + c * np.eye(side)
        m *= b
        m += c * np.eye(side)
    m.flags.writeable = v.flags.writeable = False
    state = object.__new__(QState)  # frozen, so its fields go in through vars()
    vars(state).update(dims=dims, matrix=m, _pure_form=(v, b, c))
    return state


def _product_probs(form, factors: np.ndarray) -> np.ndarray:
    """b|Uv|^2 + c, shape (B, D), of a state's ``_pure_form`` (v, b, c) under a
    (B, q, l, l) block of local factors, U their Kronecker product: one batched
    l x l product per qudit, whose axis then cycles to the end."""
    (psi, b, c), (n, q, l) = form, factors.shape[:3]
    for k in range(q):
        psi = (factors[:, k] @ psi.reshape(-1, l, l ** (q - 1))).transpose(0, 2, 1)
    return b * (psi.real**2 + psi.imag**2).reshape(n, -1) + c


@dataclass(frozen=True)
class SchmidtDecomp:
    """Schmidt data of a pure state across one cut.

    ``coeffs`` holds the squared Schmidt coefficients, strictly positive
    and descending, summing to one.  ``left_vecs`` / ``right_vecs`` hold
    the matching orthonormal vectors as columns.
    """

    coeffs: np.ndarray
    left_vecs: np.ndarray
    right_vecs: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def reconstruct(self) -> np.ndarray:
        """Rebuild the state vector sum_k sqrt(l_k) |e_k> x |f_k>."""
        weights = np.sqrt(self.coeffs)
        mat = (self.left_vecs * weights) @ self.right_vecs.T
        return mat.reshape(-1)


def tensor(a, b):
    """Kronecker composition of two states of the same kind."""
    if isinstance(a, QState) and isinstance(b, QState):
        return QState(a.dims + b.dims, np.kron(a.matrix, b.matrix))
    if isinstance(a, PureVec) and isinstance(b, PureVec):
        return PureVec(a.dims + b.dims, np.kron(a.vec, b.vec))
    raise TypeError("tensor requires two QState or two PureVec arguments")


def _square(m, dims: tuple[int, ...]) -> np.ndarray:
    """``m`` as an array, refused unless it is D x D with D = prod(dims)."""
    m, side = np.asarray(m), math.prod(dims)
    if m.shape != (side, side):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    return m


def _reductions(m: np.ndarray, dims: tuple[int, ...], kept_sets) -> list:
    """Partial traces of a plain matrix onto every kept set, unchecked: the
    package's only partial trace.  It traces the subsystems last to first and
    takes each traced suffix once, shared by every kept set that traces it."""
    n, done, out = len(dims), {(): m.reshape(dims + dims)}, []
    for kept in kept_sets:
        walk, t, left = (), done[()], n  # t holds ``left`` subsystems
        for i in range(n - 1, -1, -1):
            if i not in kept:
                walk += (i,)
                if walk not in done:
                    done[walk] = np.trace(t, axis1=i, axis2=i + left)
                t, left = done[walk], left - 1
        side = math.isqrt(t.size)
        out.append(t.reshape(side, side))
    return out


def _subsystems(indices, dims: tuple[int, ...], what: str) -> list[int]:
    """``indices`` as sorted distinct ints, each a subsystem of ``dims``."""
    out = sorted(set(int(i) for i in indices))
    if any(i < 0 or i >= len(dims) for i in out):
        raise ValueError(f"{what} {out} out of range for dims {dims}")
    return out


def partial_trace_matrix(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep`` from a plain matrix."""
    dims = _as_dims(dims)
    m, keep = _square(m, dims), _subsystems(keep, dims, "kept indices")
    if not keep:
        raise ValueError("cannot trace out every subsystem")
    return _reductions(m, dims, [keep])[0]


def _permuted(m: np.ndarray, dims: tuple[int, ...], perm: list) -> np.ndarray:
    """The D x D matrix ``m`` with its 2n row and column subsystem axes
    permuted by ``perm``."""
    side = math.prod(dims)
    return _square(m, dims).reshape(dims + dims).transpose(perm).reshape(side, side)


def partial_transpose_matrix(m: np.ndarray, dims, transposed) -> np.ndarray:
    """Transpose the row/column indices of the listed subsystems only."""
    dims = _as_dims(dims)
    n, perm = len(dims), list(range(2 * len(dims)))
    for idx in _subsystems(transposed, dims, "indices"):
        perm[idx], perm[n + idx] = perm[n + idx], perm[idx]
    return _permuted(m, dims, perm)


def permute_subsystems_matrix(m: np.ndarray, dims, order) -> np.ndarray:
    """Reorder subsystems so output slot k carries input subsystem order[k]."""
    dims = _as_dims(dims)
    n = len(dims)
    order = [int(i) for i in order]
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of {n} subsystems")
    return _permuted(m, dims, order + [i + n for i in order])


def embed_operator(m: np.ndarray, dims, positions) -> np.ndarray:
    """Place an operator on the listed subsystems, identity elsewhere.

    ``m`` must act on ``dims[positions]`` taken in ascending position order.
    """
    dims, m = _as_dims(dims), np.asarray(m)
    n, positions = len(dims), _subsystems(positions, dims, "positions")
    rest = [i for i in range(n) if i not in positions]
    side, other = math.prod(dims[i] for i in positions), math.prod(dims[i] for i in rest)
    if m.shape != (side, side):
        raise ValueError("operator shape does not match the target subsystems")
    # kron(m, I) entry for entry, as one broadcast product
    big = (m[:, None, :, None] * np.eye(other)[None, :, None, :]).reshape(2 * [side * other])
    layout = positions + rest
    layout_dims = tuple(dims[i] for i in layout)
    order = [layout.index(k) for k in range(n)]
    return permute_subsystems_matrix(big, layout_dims, order)


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Tr[a b] of two same-shape matrices whose product has a real trace."""
    val = np.einsum("ij,ji->", a, b)
    if abs(val.imag) > HERM_TOL:
        raise ValueError(f"inner product has imaginary part {val.imag:.3e}")
    return float(val.real)


def hs_inner(a, b) -> float:
    """Hilbert-Schmidt inner product Tr[a b] of two Hermitian D x D matrices."""
    am = a.matrix if isinstance(a, QState) else np.asarray(a)
    bm = b.matrix if isinstance(b, QState) else np.asarray(b)
    if am.shape != bm.shape or am.ndim != 2 or am.shape[0] != am.shape[1]:
        raise ValueError(f"dimension mismatch: matrix shapes {am.shape} and {bm.shape} "
                         "are not one D x D shape")
    return _trace_product(am, bm)


def _bipartite(dims) -> tuple[int, int]:
    """(d_A, d_B) of a two-subsystem layout; any other layout is a fault."""
    if len(dims) != 2:
        raise ValueError(f"dims {tuple(dims)} are not bipartite as laid out; regroup "
                         "the subsystems first with permute_subsystems_matrix")
    return dims


def _overlap_table(rhos, sigmas, dims, kept_sets) -> np.ndarray:
    """Tr[rho_K sigma_K] for every kept set K, rho and sigma, as an array of
    shape (len(kept_sets), len(rhos), len(sigmas)).

    The matrices are plain arrays on the layout ``dims``, and the full set
    gives the global overlap Tr[rho sigma].  Each distinct matrix (by
    identity, on either side) is reduced onto every kept set once, in one
    :func:`_reductions` walk.
    """
    distinct = {id(m): m for m in [*rhos, *sigmas]}
    parts = {key: _reductions(m, dims, kept_sets) for key, m in distinct.items()}
    out = np.empty((len(kept_sets), len(rhos), len(sigmas)))
    for j, sigma_m in enumerate(sigmas):
        for a, sigma_k in enumerate(parts[id(sigma_m)]):
            for i, rho_m in enumerate(rhos):
                out[a, i, j] = _trace_product(parts[id(rho_m)][a], sigma_k)
    return out


def _overlaps(rho_m: np.ndarray, sigma_m: np.ndarray, dims, kept_sets) -> list[float]:
    """Tr[rho_K sigma_K] for every kept set K of two plain matrices: the
    one-pair case of :func:`_overlap_table`."""
    return _overlap_table([rho_m], [sigma_m], dims, kept_sets)[:, 0, 0].tolist()


def _guarded_ratios(g, local):
    """g / local where local > 0, else 0, elementwise over arrays; a float
    ``local`` (numpy's float64 too) takes plain, much cheaper arithmetic."""
    if isinstance(local, float):
        return g / local if local > 0.0 else 0.0
    out = np.zeros(np.broadcast(g, local).shape)
    return np.divide(g, local, out=out, where=local > 0.0)


def schmidt_decompose(v: PureVec) -> SchmidtDecomp:
    """Schmidt decomposition of a two-subsystem pure state across its cut;
    squared coefficients at or below ``SCHMIDT_CUTOFF`` are dropped."""
    u, s, vh = np.linalg.svd(v.vec.reshape(_bipartite(v.dims)), full_matrices=False)
    mask = s * s > SCHMIDT_CUTOFF
    return SchmidtDecomp(
        coeffs=(s[mask] ** 2),
        left_vecs=u[:, mask],
        right_vecs=vh[mask, :].T,
    )
