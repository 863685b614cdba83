"""Constructors for the named state families used throughout the package.

Each factory returns a validated :class:`~overlapcert.qmat.QState` or
:class:`~overlapcert.qmat.PureVec`.  :class:`StateSpec` gives every family
a JSON form ``{"family": ..., "params": ..., "seed": ...}`` so runs can be
described in config files.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .qmat import (PureVec, QState, _as_dims, _from_json, _json_number, _pure_plus_noise,
                   schmidt_decompose)


def max_entangled(d: int) -> PureVec:
    """Maximally entangled pair sum_i |ii> / sqrt(d) on dims [d, d]."""
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    v = np.zeros(d * d, dtype=complex)
    v[[i * d + i for i in range(d)]] = 1.0 / math.sqrt(d)
    return PureVec((d, d), v)


def isotropic(d: int, x: float) -> QState:
    """Isotropic state with fidelity x to the maximally entangled state.

    rho = (1-x)/(d^2-1) * I + (d^2 x - 1)/(d^2-1) * |Psi><Psi|.  The
    operator is a valid state for every x in [0, 1]; its eigenvalues are
    x on |Psi> and (1-x)/(d^2-1) on the complement.  Only x >= 1/d^2 is
    reachable by positively mixing |Psi><Psi| with white noise.
    """
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"fidelity parameter x={x} outside [0, 1]")
    dd = d * d
    return _pure_plus_noise((d, d), max_entangled(d).vec, (dd * x - 1.0) / (dd - 1),
                            (1.0 - x) / (dd - 1))


def corner_isotropic(d: int, x: float) -> QState:
    """Maximally entangled state mixed with noise on the (d-1)x(d-1) corner.

    rho(x) = (1-x) I_corner/(d-1)^2 + x |Psi><Psi|, where I_corner spans
    |ij> with i, j <= d-2.  Because the noise misses the last basis pair,
    this family separates overlap-ratio detection from fidelity witnesses.
    """
    if d < 3:
        raise ValueError("corner-isotropic family needs d >= 3")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"mixing parameter x={x} outside [0, 1]")
    dd = d * d
    diag = np.zeros(dd)
    for i in range(d - 1):
        diag[i * d : i * d + d - 1] = 1.0
    v = max_entangled(d).vec
    proj = np.outer(v, v.conj())
    m = (1.0 - x) / (d - 1) ** 2 * np.diag(diag) + x * proj
    return QState((d, d), m)


def tilted_entangled(d: int, y: float) -> PureVec:
    """Pure state with d-1 equal coefficients y on |ii> plus a remainder.

    |v> = sum_{i<=d-2} y |ii> + sqrt(1 - (d-1) y^2) |(d-1)(d-1)>, with
    y in [0, 1/sqrt(d-1)].  At y = 1/sqrt(d) all d Schmidt coefficients
    are equal.
    """
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    y_max = 1.0 / math.sqrt(d - 1)
    if not 0.0 <= y <= y_max + 1e-15:
        raise ValueError(f"y={y} outside [0, {y_max}]")
    v = np.zeros(d * d, dtype=complex)
    for i in range(d - 1):
        v[i * d + i] = y
    v[d * d - 1] = math.sqrt(max(0.0, 1.0 - (d - 1) * y * y))
    return PureVec((d, d), v)


def ghz_pure(n: int, d: int) -> PureVec:
    """n-qudit GHZ state sum_j |j...j> / sqrt(d)."""
    if n < 2:
        raise ValueError("GHZ needs at least two parties")
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    total = d**n
    v = np.zeros(total, dtype=complex)
    step = (total - 1) // (d - 1)
    v[[j * step for j in range(d)]] = 1.0 / math.sqrt(d)
    return PureVec((d,) * n, v)


def ghz_noisy(n: int, d: int, p: float) -> QState:
    """White-noise GHZ mixture p |GHZ><GHZ| + (1-p) I / d^n."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability p={p} outside [0, 1]")
    return _pure_plus_noise((d,) * n, ghz_pure(n, d).vec, p, (1.0 - p) / d**n)


def sn3_unfaithful_state() -> QState:
    """Rank-2 state on dims [4, 4] with Schmidt number 3.

    Equal mixture of the rank-3 maximally entangled projector on span
    {|00>, |11>, |22>} and a Bell pair on span {|23>, |32>}.  Its largest
    eigenvalue is 1/2, so no rank-2 fidelity witness can detect it.
    """
    psi3 = np.zeros(16, dtype=complex)
    psi3[[0, 5, 10]] = 1.0 / math.sqrt(3)
    phi = np.zeros(16, dtype=complex)
    phi[[2 * 4 + 3, 3 * 4 + 2]] = 1.0 / math.sqrt(2)
    m = 0.5 * np.outer(psi3, psi3.conj()) + 0.5 * np.outer(phi, phi.conj())
    return QState((4, 4), m)


def sn3_probe_state(t: float) -> PureVec:
    """Probe family for the rank-2 state above.

    |v(t)> = sqrt(1/3+t)(|00> + |11>) + sqrt(1/3-2t)|22> on dims [4, 4],
    t in [0, 1/6].  The overlap ratio against the rank-2 state peaks at
    t = 7/54 with value 12/5.
    """
    if not 0.0 <= t <= 1.0 / 6.0 + 1e-15:
        raise ValueError(f"t={t} outside [0, 1/6]")
    v = np.zeros(16, dtype=complex)
    v[0] = v[5] = math.sqrt(1.0 / 3.0 + t)
    v[10] = math.sqrt(max(0.0, 1.0 / 3.0 - 2.0 * t))
    return PureVec((4, 4), v)


def verifier_state(v: PureVec) -> PureVec:
    """Dual probe with inverted Schmidt spectrum.

    For |v> = sum_k sqrt(l_k) |e_k f_k| the verifier is
    N sum_k (1/sqrt(l_k)) |e_k f_k>.  The overlap ratio between a pure
    state and its verifier equals the Schmidt rank exactly, which makes
    this the tightest probe for pure states.
    """
    sd = schmidt_decompose(v)
    inv = 1.0 / np.sqrt(sd.coeffs)
    mat = (sd.left_vecs * inv) @ sd.right_vecs.T
    vec = mat.reshape(-1)
    vec = vec / np.linalg.norm(vec)
    return PureVec(v.dims, vec)


def random_pure(dims, seed: int) -> PureVec:
    """Haar-random pure state via a normalized complex Gaussian vector."""
    dims, rng = _as_dims(dims), np.random.default_rng(seed)  # dims checked before a draw
    total = math.prod(dims)
    v = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return PureVec(dims, v / np.linalg.norm(v))


def random_mixed(dims, rank: int | None = None, seed: int = 0) -> QState:
    """Random density matrix G G^dag / Tr of the requested rank (Ginibre)."""
    dims, rng = _as_dims(dims), np.random.default_rng(seed)  # dims checked before a draw
    total = math.prod(dims)
    if rank is None:
        rank = total
    if not 1 <= rank <= total:
        raise ValueError(f"rank {rank} outside [1, {total}]")
    g = rng.standard_normal((total, rank)) + 1j * rng.standard_normal((total, rank))
    m = g @ g.conj().T
    return QState(dims, m / np.trace(m).real)


def _verifier_of(base: dict) -> PureVec:
    """The verifier of the pure state that the JSON spec ``base`` describes."""
    state = StateSpec.from_json(base).build()
    if not isinstance(state, PureVec):
        raise ValueError("verifier family requires a pure base state")
    return verifier_state(state)


# family -> constructor, whose parameters are the family's params; a random
# family's seed is the spec's own field, never a param
_FAMILIES = {
    "isotropic": isotropic,
    "example2": corner_isotropic,
    "theta": tilted_entangled,
    "ghz-noisy": ghz_noisy,
    "ghz-pure": ghz_pure,
    "max-entangled": max_entangled,
    "example3": sn3_unfaithful_state,
    "verifier": _verifier_of,
    "random-mixed": random_mixed,
    "random-pure": random_pure,
}


@dataclass(frozen=True)
class StateSpec:
    """Serializable description of one state: family tag, parameters, seed."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"expected one of {tuple(_FAMILIES)}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def to_json(self) -> dict:
        return {"family": self.family, "params": dict(self.params), "seed": self.seed}

    @classmethod
    def from_json(cls, obj: dict) -> "StateSpec":
        return _from_json(cls, obj, "StateSpec")

    def build(self):
        """Construct the described state (QState or PureVec) from params that
        :func:`_from_json` checks against the family constructor's signature."""
        owner, build = f"StateSpec {self.family}", _FAMILIES[self.family]
        if self.family.startswith("random-"):  # seed turns keyword-only: no param
            build = functools.partial(build, seed=self.seed)

        def dims(value):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{owner}: dims must be a JSON array, not {value!r}")
            return tuple(_json_number(owner, "dims", d) for d in value)
        return _from_json(build, self.params, owner, dims=dims)


def build_density(spec: StateSpec) -> QState:
    """Build a spec and promote pure outputs to their projectors."""
    out = spec.build()
    return out.projector() if isinstance(out, PureVec) else out
