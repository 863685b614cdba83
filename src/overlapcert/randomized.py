"""Simulation of the two-state local randomized-measurement protocol.

One setting samples a single-qudit unitary for every qudit, applies the
same product unitary to both states, and measures in the computational
basis.  From the outcome statistics the overlaps Tr[rho_X sigma_X] for
X in {A, B, AB} are estimated with the second-order cross-correlation

    Tr[rho_X sigma_X] = d_X * sum_{s,t} (-l)^{-D(s,t)} E_U[P(U,s) Q(U,t)]

where D is the Hamming distance between outcome strings and l the local
dimension.  The weight (-l)^{-D} is a tensor power of one single-qudit
kernel, so it is applied as small matrix products over groups of qudits.
The same data yields the local overlaps by marginalizing the outcomes,
which is what makes the overlap-ratio criterion measurable.

Finite-shot second moments use distinct-pair U-statistics: cross-state
products pair shots from the two independent records, and within-state
(purity) products exclude the diagonal, which removes the plug-in bias
of naive empirical frequencies.
"""

from __future__ import annotations

import functools
import json
import math
import re
import warnings
from array import array
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from itertools import compress

import numpy as np

from .qmat import QState, _from_json, _guarded_ratios

_DESIGNS = ("haar", "clifford")
# Slack of a read exact-mode probability vector: entries >= -PROB_TOL and a
# sum within PROB_TOL of 1.
PROB_TOL = 1e-9
# A local overlap enters the ratio only when its mean is above SNR_GUARD
# times its standard error.
SNR_GUARD = 10.0


@dataclass(frozen=True)
class ProtocolConfig:
    """Measurement-protocol parameters.

    ``m`` and ``n`` are the qudit counts on sides A and B, each qudit of
    dimension ``local_dim``; the target states must have total dimension
    local_dim**(m+n), with side A on the leading qudits.
    ``shots_per_setting=None`` means exact outcome probabilities.
    """

    local_dim: int
    m: int
    n: int
    n_unitaries: int
    shots_per_setting: int | None = None
    seed: int = 0
    design: str = "haar"

    def __post_init__(self):
        if self.local_dim < 2:
            raise ValueError("local_dim must be >= 2")
        if self.m < 1 or self.n < 1:
            raise ValueError("each side needs at least one qudit")
        if self.n_unitaries < 1:
            raise ValueError("n_unitaries must be >= 1")
        if self.shots_per_setting is not None and self.shots_per_setting < 1:
            raise ValueError("shots_per_setting must be positive or None for exact")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.design not in _DESIGNS:
            raise ValueError(f"design must be one of {_DESIGNS}")
        if self.design == "clifford" and self.local_dim != 2:
            raise ValueError("clifford design is defined for local_dim 2 only")

    @property
    def d_a(self) -> int:
        return self.local_dim**self.m

    @property
    def d_b(self) -> int:
        return self.local_dim**self.n

    @property
    def exact(self) -> bool:
        return self.shots_per_setting is None

    def to_json(self) -> dict:  # "exact" is the JSON form of None shots
        return {**asdict(self), "shots_per_setting": self.shots_per_setting or "exact"}

    @classmethod
    def from_json(cls, obj: dict) -> "ProtocolConfig":
        return _from_json(cls, obj,
                          shots_per_setting=lambda v: None if v == "exact" else v)


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome data of one setting: the sampled locals plus both states' data.

    Exact mode fills the ``*_probs`` fields with full outcome probability
    vectors; shot mode fills ``*_counts`` with dense count vectors.  The
    items of a :class:`Records` are these, holding views of its arrays.
    """

    setting: int
    unitaries_a: tuple
    unitaries_b: tuple
    rho_probs: np.ndarray | None = None
    sigma_probs: np.ndarray | None = None
    rho_counts: np.ndarray | None = None
    sigma_counts: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Records(Sequence):
    """The outcome data of all settings of one run, as read-only arrays.

    ``settings`` (N,) are the setting numbers in file order, ``unitaries``
    (N, m+n, l, l) their local factors, side A's first, and ``data``
    (2, N, D) the outcome probabilities (float) or counts (int64) of rho,
    then sigma.  An item is one setting as a :class:`MeasurementRecord` of
    views, a slice a list of them.  The estimators read one per-setting
    table of kernel products, built on first use (:func:`_kernel_dots`).
    """

    cfg: ProtocolConfig
    settings: np.ndarray
    unitaries: np.ndarray
    data: np.ndarray

    def __post_init__(self):  # the cached table must not go stale
        for arr in (self.settings, self.unitaries, self.data):
            arr.flags.writeable = False

    @property
    def exact(self) -> bool:
        return self.data.dtype.kind == "f"

    def __len__(self) -> int:
        return len(self.settings)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[k] for k in range(*j.indices(len(self)))]
        kind, us = "probs" if self.exact else "counts", tuple(self.unitaries[j])
        return MeasurementRecord(int(self.settings[j]), us[:self.cfg.m], us[self.cfg.m:], **{
            f"rho_{kind}": self.data[0, j], f"sigma_{kind}": self.data[1, j]})

    @classmethod
    def of(cls, records, cfg: ProtocolConfig, lead: str = "rho") -> "Records":
        """``records`` under ``cfg``: a Records made under cfg as it is, any
        other sequence of :class:`MeasurementRecord` checked and stacked.
        The first record's ``lead`` state decides whether every record must
        carry both states' probs or both states' counts, and lead's data is
        checked first; a fault raises ``ValueError`` naming the setting."""
        if isinstance(records, Records) and records.cfg == cfg:
            return records
        records, l, total = list(records), cfg.local_dim, cfg.d_a * cfg.d_b
        if not records:
            raise ValueError("there are no records")
        exact = getattr(records[0], lead + "_probs") is not None
        names = [w + ("_probs" if exact else "_counts") for w in ("rho", "sigma")]
        for name in names if lead == "rho" else names[::-1]:
            lacking = next((rec.setting for rec in records if getattr(rec, name) is None), None)
            if lacking is not None:
                raise ValueError(f"setting {lacking} has no {name}")
        settings = [rec.setting for rec in records]

        def block(name, shape, fault, dtype):  # one field of every record, checked
            return _rows([getattr(rec, name) for rec in records], shape, name, settings,
                         fault, dtype)

        unitaries = [block(name, (q, l, l), f"must be {q} {l} x {l} unitaries", complex)
                     for name, q in (("unitaries_a", cfg.m), ("unitaries_b", cfg.n))]
        fault = f"must hold {total} " + ("probabilities" if exact else "integer counts")
        data = [block(name, (total,), fault, float if exact else np.int64) for name in names]
        return cls(cfg, np.array(settings, dtype=np.int64), np.concatenate(unitaries, axis=1),
                   np.stack(data))

    @functools.cached_property
    def _dots(self) -> np.ndarray:
        return _kernel_dots(self.data, self.cfg)


@dataclass(frozen=True)
class OverlapEstimate:
    """Estimated overlaps, their jackknife standard errors, and the ratio.

    ``s`` is the larger of the local ratio estimates whose denominator
    clears the instability guard (mean above ``SNR_GUARD`` times its
    standard error), and ``se_s`` is the jackknife error of that guarded
    maximum.  When neither denominator clears it, ``s = se_s = 0`` and
    ``reliable`` is False.
    """

    overlap_ab: float
    overlap_a: float
    overlap_b: float
    se_ab: float
    se_a: float
    se_b: float
    s_a: float
    s_b: float
    s: float
    se_s: float
    reliable: bool
    n_settings: int

    def to_json(self) -> dict:
        return asdict(self)


@functools.cache
def _single_qubit_cliffords() -> list:
    """The 24 single-qubit Clifford unitaries, phase-normalized and sorted:
    exact products of H and S, identified and ordered by rounded keys."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)

    def canon(u):
        flat = u.ravel()
        first = flat[np.argmax(np.abs(flat) > 1e-9)]
        return u * (abs(first) / first)

    def key(u):
        return tuple((float(z.real), float(z.imag)) for z in np.round(u.ravel(), 9))

    seen = {}
    frontier = [canon(np.eye(2, dtype=complex))]
    seen[key(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (h, s):
                cand = canon(g @ u)
                k = key(cand)
                if k not in seen:
                    seen[k] = cand
                    nxt.append(cand)
        frontier = nxt
    group = [seen[k] for k in sorted(seen)]
    assert len(group) == 24, f"Clifford closure produced {len(group)} elements"
    return group


def _draw_local(local_dim: int, rng: np.random.Generator, design: str,
                count: int) -> np.ndarray:
    """The random draws behind ``count`` single-qudit unitaries, in one call.

    Haar: a (count, 2, l, l) stack of real and imaginary Gaussian parts;
    Clifford: ``count`` group indices.  :func:`_local_unitaries` turns a
    stack of such draws into unitaries.
    """
    if local_dim < 2:
        raise ValueError("local_dim must be >= 2")
    if design == "haar":
        return rng.standard_normal((count, 2, local_dim, local_dim))
    if design == "clifford":
        if local_dim != 2:
            raise ValueError("clifford design is defined for local_dim 2 only")
        return rng.integers(len(_single_qubit_cliffords()), size=count)
    raise ValueError(f"unknown design {design!r}")


def _local_unitaries(draws: np.ndarray, design: str) -> np.ndarray:
    """Unitaries from stacked :func:`_draw_local` draws, shape (..., l, l)."""
    if design == "clifford":
        return np.asarray(_single_qubit_cliffords())[draws]
    q, r = np.linalg.qr(draws[..., 0, :, :] + 1j * draws[..., 1, :, :])
    # Phase correction of the R diagonal makes the distribution Haar.
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def sample_local_unitary(local_dim: int, rng: np.random.Generator,
                         design: str = "haar") -> np.ndarray:
    """Draw one single-qudit unitary from the requested 2-design.

    This is the one-unitary case of the draws :func:`run_protocol` makes
    for all m+n qudits of a setting at once; both consume ``rng`` alike.
    """
    return _local_unitaries(_draw_local(local_dim, rng, design, 1), design)[0]


@functools.cache
def _hermitian_basis(local_dim: int) -> np.ndarray:
    """Rows H_a (flattened) of an orthonormal Hermitian basis of l x l matrices:
    E_tt, (E_tu + E_ut)/sqrt(2) for t < u and i(E_tu - E_ut)/sqrt(2) for t > u."""
    h = np.zeros((local_dim,) * 4, dtype=complex)
    for t, u in np.ndindex(local_dim, local_dim):
        h[t, u, t, u] = 1.0 if t == u else math.sqrt(0.5) * (1 if t < u else 1j)
        h[t, u, u, t] = h[t, u, t, u].conjugate()
    h.flags.writeable = False
    return h.reshape(local_dim**2, local_dim**2)


def _basis_coefficients(matrices, local_dim: int, q: int) -> np.ndarray:
    """Real c[a_0..a_(q-1)] = Tr[(H_a0 (x) ... (x) H_a(q-1)) rho] of each Hermitian
    rho on q qudits, stacked on a trailing axis: (l^2, l^(2q-2) K).  Row a_0 is
    built from Tr_0[(H_a0 (x) I) rho] alone, a D^2/l^2 temporary, laid out with each
    qudit's (row, column) pair adjacent; a product turns the first pair into a_k last."""
    l, hc = local_dim, _hermitian_basis(local_dim).conj()
    rest = [axis for k in range(1, q) for axis in (k, q + k)]
    out = np.empty((l * l, l ** (2 * q - 2), len(matrices)))
    for i, rho in enumerate(matrices):
        for a, h in enumerate(hc.reshape(-1, l, l)):
            x = np.einsum(h, [0, q], rho.reshape((l,) * 2 * q), list(range(2 * q)), rest)
            for _ in range(q - 1):
                x = x.reshape(l * l, -1).T @ hc.T
            out[a, :, i] = x.real.ravel()
    return out.reshape(l * l, -1)


def _outcome_probs(factors: np.ndarray, c: np.ndarray) -> np.ndarray:
    """diag(U rho U^dag), shape (B, D, K), for a (B, q, l, l) block of local
    factors, U their Kronecker product (never built), and K states' coefficients
    ``c``: sum_a c_a prod_k M_k[s_k, a_k], M_k[s, a] = <s|u_k H_a u_k^dag|s> real.
    One GEMM with M_0 shared by the block, batched products for the other
    qudits: about 2 l D^2 real multiply-adds per setting and state, not D^3."""
    b, q, l = factors.shape[:3]
    t = (factors[..., :, None] * factors.conj()[..., None, :]).reshape(b, q, l, l * l)
    m = (t @ _hermitian_basis(l).T).real
    y = m[:, 0].reshape(b * l, l * l) @ c
    for k in range(1, q):
        y = np.matmul(m[:, k, None], y.reshape(b, l**k, l * l, -1))
    return y.reshape(b, l**q, -1)


# Bytes of kernel intermediates (the first qudit's B D^2 / l reals per
# state) per probability block.  A 1 MiB block is no faster on 3+3 qubits
# and 300 settings, and raises the peak RSS of the run by about 1 MiB.
_BLOCK_BYTES = 256 * 1024


def run_protocol(rho: QState, sigma: QState, cfg: ProtocolConfig) -> Records:
    """Measure both states under identical sampled settings.

    Returns the records of settings 0..n_unitaries-1.  Per-setting randomness
    comes from a counter-based split of the seed, so records are reproducible
    and independent of evaluation order.  Each setting's stream draws its m+n
    local unitaries and then, in shot mode, the counts of rho and sigma.
    Both states' outcome probabilities come from one kernel call per block
    of settings, on their real Hermitian-basis coefficients (computed once).
    """
    total = cfg.local_dim ** (cfg.m + cfg.n)
    if rho.dim != total or sigma.dim != total:
        raise ValueError(f"states of dimension {rho.dim}/{sigma.dim} do not match the "
                         f"protocol layout {cfg.local_dim}^({cfg.m}+{cfg.n})={total}")
    for state, name in ((rho, "rho"), (sigma, "sigma")):
        # some prefix of the state's subsystems must form side A
        if cfg.d_a not in {math.prod(state.dims[:k]) for k in range(1, len(state.dims))}:
            raise ValueError(f"{name} dims {state.dims} admit no A|B cut at "
                             f"dimension {cfg.d_a}|{cfg.d_b}")
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n_unitaries)]
    factors = _local_unitaries(
        np.array([_draw_local(cfg.local_dim, rng, cfg.design, cfg.m + cfg.n)
                  for rng in rngs]), cfg.design)
    c = _basis_coefficients([rho.matrix, sigma.matrix], cfg.local_dim, cfg.m + cfg.n)
    probs = np.empty((2, cfg.n_unitaries, total))
    block = max(1, _BLOCK_BYTES * cfg.local_dim // (c.itemsize * 2 * total * total))
    for i in range(0, cfg.n_unitaries, block):
        probs[:, i:i + block] = np.moveaxis(_outcome_probs(factors[i:i + block], c), 2, 0)
    data = probs
    if not cfg.exact:  # the shots sample the clipped, renormalised probabilities
        np.clip(probs, 0.0, None, out=probs)
        probs /= probs.sum(axis=2, keepdims=True)
        data = np.empty(probs.shape, dtype=np.int64)
        for u, rng in enumerate(rngs):
            data[0, u] = rng.multinomial(cfg.shots_per_setting, probs[0, u])
            data[1, u] = rng.multinomial(cfg.shots_per_setting, probs[1, u])
    return Records(cfg, np.arange(cfg.n_unitaries), factors, data)


# Largest dimension l^k of one qudit group's dense kernel factor.  Larger
# groups cost more flops per entry, smaller ones more passes over the rows.
_GROUP_DIM = 32


@functools.cache
def _kernel_factor(local_dim: int, n_qudits: int) -> np.ndarray:
    """K^(x)k for the single-qudit kernel K = (1 + 1/l) I - J/l: the
    l^k x l^k matrix of (-l)^(-Hamming) weights of k qudits."""
    one = np.where(np.eye(local_dim, dtype=bool), 1.0, -1.0 / local_dim)
    out = functools.reduce(np.kron, [one] * n_qudits)
    out.flags.writeable = False
    return out


def _apply_hamming_kernel(rows: np.ndarray, local_dim: int, n_qudits: int,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Every row of ``rows`` times W[s, t] = (-local_dim)^(-Hamming(s, t)).

    W is a tensor power of the single-qudit kernel, so it is applied one
    group of qudits at a time as a product with that group's small dense
    factor (at most ``_GROUP_DIM`` wide), never as a D x D matrix.  A
    partial group goes first, so the last group is one 2-D product.  With
    ``out``, a contiguous array of rows' shape, the products alternate between
    out and rows (overwritten) and allocate nothing; the result is in either.
    """
    k = 1
    while local_dim ** (k + 1) <= _GROUP_DIM:
        k += 1
    sizes = [n_qudits % k] * (n_qudits % k > 0) + [k] * (n_qudits // k)
    t, spare, pre = rows, out, 1
    for size in sizes:
        width = local_dim**size
        post = rows.shape[1] // (pre * width)
        f = _kernel_factor(local_dim, size)
        a = t.reshape(-1, width) if post == 1 else t.reshape(len(rows) * pre, width, post)
        dst = None if out is None else spare.reshape(a.shape)
        # f is symmetric, so right-multiplying the last group applies it too
        t, spare = np.matmul(a, f, out=dst) if post == 1 else np.matmul(f, a, out=dst), t
        pre *= width
    return t.reshape(rows.shape)


def _kernel_dots(data: np.ndarray, cfg: ProtocolConfig) -> np.ndarray:
    """Per-setting f_i,X . W_X f_j,X, shape (3, 3, N), of the outcome frequencies
    f of rho (0) and sigma (1) in a (2, N, D) data block, for the state pairs
    (i, j) = (0, 1), (0, 0), (1, 1) and the kept sets X = AB, A, B: one kernel
    pass per state and kept set.  The AB passes run in two (N, D) blocks: the
    kernel overwrites f_j, and each f_i is divided out again into the spare."""
    n, l, pairs = data.shape[1], cfg.local_dim, ((0, 1), (0, 0), (1, 1))
    norms = data.sum(axis=2, keepdims=True) if data.dtype.kind in "iu" else np.ones((2, 1, 1))
    a, b = np.empty(data.shape[1:]), np.empty(data.shape[1:])
    dots, sides = np.empty((3, 3, n)), [None, None]
    for j in (0, 1):
        cube = np.divide(data[j], norms[j], out=a).reshape(n, cfg.d_a, cfg.d_b)
        sides[j] = (cube.sum(axis=2), cube.sum(axis=1))
        kernel = _apply_hamming_kernel(a, l, cfg.m + cfg.n, out=b)
        spare = b if np.may_share_memory(kernel, a) else a
        for p, (i, kernel_state) in enumerate(pairs):
            if kernel_state == j:
                f = np.divide(data[i], norms[i], out=spare)
                dots[p, 0] = np.einsum("ui,ui->u", f, kernel)
    del a, b, cube, kernel, spare, f  # the blocks go before the kept sets A and B
    for x, q in ((1, cfg.m), (2, cfg.n)):
        kernels = [_apply_hamming_kernel(side[x - 1], l, q) for side in sides]
        dots[:, x] = [np.einsum("ui,ui->u", sides[i][x - 1], kernels[j]) for i, j in pairs]
    return dots


def _setting_terms(records, cfg: ProtocolConfig, pair: int) -> np.ndarray:
    """Per-setting d_X f_i,X . W_X f_j,X, rows X = AB, A, B, of ``records``'
    pair 0 (rho, sigma), 1 (rho, rho) or 2 (sigma, sigma).  A state paired
    with its own counts leaves out the pairs of a shot with itself (W has unit
    diagonal), which gives the distinct-pair U-statistic (N f.Wf - 1) / (N - 1).
    """
    if len(records) < 2:
        raise ValueError("estimation needs at least two settings")
    records = Records.of(records, cfg, "sigma" if pair == 2 else "rho")
    y = records._dots[pair]
    if pair and not records.exact:
        shots = records.data[pair - 1].sum(axis=1)
        if shots.min() < 2:
            raise ValueError("within-state estimation needs >= 2 shots")
        y = (shots * y - 1.0) / (shots - 1.0)
    return np.array([[cfg.d_a * cfg.d_b], [cfg.d_a], [cfg.d_b]]) * y


def _jackknife_se(loo: np.ndarray) -> np.ndarray:
    """Jackknife standard error from leave-one-out replicates on the last axis."""
    n = loo.shape[-1]
    dev = loo - loo.mean(axis=-1, keepdims=True)
    return np.sqrt((n - 1) / n * np.sum(dev**2, axis=-1))


def _summarize(y: np.ndarray) -> OverlapEstimate:
    """Means and jackknife errors of the AB, A, B rows, and the guarded ratio.

    The sides that clear the guard are chosen on the full sample, and
    ``se_s`` jackknifes the maximum over those same sides from the
    leave-one-out replicates.
    """
    n = y.shape[1]
    means = y.mean(axis=1)
    # jackknife error of a mean from the terms' own deviations (differencing
    # leave-one-out replicates cancels), floored at the mean's rounding unit
    spread = np.sum((y - means[:, None]) ** 2, axis=1) / (n * (n - 1))
    ses = np.maximum(np.sqrt(spread), np.finfo(float).eps * np.abs(means))
    ok = means[1:] > SNR_GUARD * ses[1:]
    s_sides = _guarded_ratios(means[0], means[1:])
    reliable = bool(ok.any())
    s = se_s = 0.0
    if reliable:
        s = s_sides[ok].max()
        loo = (y.sum(axis=1, keepdims=True) - y) / (n - 1)
        se_s = _jackknife_se(_guarded_ratios(loo[0], loo[1:])[ok].max(axis=0))
    return OverlapEstimate(
        overlap_ab=float(means[0]), overlap_a=float(means[1]),
        overlap_b=float(means[2]), se_ab=float(ses[0]), se_a=float(ses[1]),
        se_b=float(ses[2]), s_a=float(s_sides[0]), s_b=float(s_sides[1]),
        s=float(s), se_s=float(se_s), reliable=reliable, n_settings=n,
    )


def estimate_overlaps(records, cfg: ProtocolConfig) -> OverlapEstimate:
    """Cross-correlation estimate of Tr[rho_X sigma_X] for X in {A, B, AB}.

    Standard errors come from leave-one-setting-out jackknife.  The ratio
    is flagged unreliable (and reported as 0) when no local denominator
    exceeds ``SNR_GUARD`` times its own standard error.
    """
    return _summarize(_setting_terms(records, cfg, 0))


def estimate_self_overlaps(records, cfg: ProtocolConfig,
                           which: str = "rho") -> OverlapEstimate:
    """Purity-type estimate Tr[rho_X^2] from a single state's records.

    Shot mode pairs only distinct shots of the same record (the diagonal
    of the naive product is biased by the multinomial variance).
    """
    if which not in ("rho", "sigma"):
        raise ValueError("which must be 'rho' or 'sigma'")
    return _summarize(_setting_terms(records, cfg, 1 + (which == "sigma")))


# ---------------------------------------------------------------------------
# JSON-lines persistence so estimation can be rerun offline.


def write_records(path, cfg: ProtocolConfig, records) -> None:
    """One JSON line for the config, then one line per setting, its keys
    sorted: the bytes of ``json.dumps(obj, sort_keys=True)`` per line.
    ``records`` is a :class:`Records` or goes through :meth:`Records.of`."""
    records = Records.of(records, cfg)
    order = np.array(sorted(range(cfg.d_a * cfg.d_b), key=str))  # JSON key order
    kind, fmts = "probs" if records.exact else "counts", [f'"{k}": %d' for k in order.tolist()]
    # every complex entry of a setting's unitaries as its (re, im) parts
    floats = np.ascontiguousarray(records.unitaries).view(float).reshape(
        len(records), cfg.m + cfg.n, -1)
    with open(path, "w") as fh:
        fh.write(json.dumps({"protocol": cfg.to_json()}, sort_keys=True) + "\n")
        for j, setting in enumerate(records.settings.tolist()):
            if records.exact:
                data = [json.dumps(row) for row in records.data[:, j].tolist()]
            else:  # the nonzero counts, in JSON key order
                data = ["{" + ", ".join(compress(fmts, row)) % tuple(filter(None, row)) + "}"
                        for row in records.data[:, j, order].tolist()]
            unitaries = floats[j].tolist()
            fh.write(f'{{"rho_{kind}": {data[0]}, "setting": {setting}, '
                     f'"sigma_{kind}": {data[1]}, "unitaries_a": '
                     f'{json.dumps(unitaries[:cfg.m])}, "unitaries_b": '
                     f'{json.dumps(unitaries[cfg.m:])}}}\n')


# A shot-mode line as write_records writes it, up to its unitaries.
_WRITTEN = re.compile(r'\{"rho_counts": \{([^}]*)\}, "setting": ([0-9]+), '
                      r'"sigma_counts": \{([^}]*)\}, "unitaries_a": ', re.ASCII)
_COLON_TO_COMMA = bytes.maketrans(b":", b",")
_KEY = re.compile("0|[1-9][0-9]{0,17}", re.ASCII)  # the one text of each outcome


class _JsonObject(dict):
    """A parsed JSON object that also keeps its (key, value) pairs as
    written, a repeated key included; the dict keeps the later value."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def _fault_at_first(bad: np.ndarray, settings: list, fault) -> None:
    """Raise ``fault(j)`` as a fault of the first line j where ``bad`` holds."""
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"setting {settings[j]}: {fault(j)}")


class _Counts:
    """One state's count bodies, kept line by line and checked once per file:
    line j's keys and counts are ``keys[ends[j]:ends[j + 1]]`` and the same
    slice of ``values``, ``texts`` their key texts if read through json."""

    def __init__(self, which: str):
        self.which, self.ends, self.texts = which, [0], []
        self.keys, self.values, self.csv, self.digits = array("q"), array("q"), [], 0

    def add(self, obj: dict, total: int, setting: int) -> None:
        """Keep a line's {outcome: count} JSON pair by pair as written; a key
        that is not an outcome's text reads as -1."""
        sparse = obj.get(self.which + "_counts")
        if not isinstance(sparse, dict):
            fault = "is missing" if sparse is None else "is not a JSON object"
            raise ValueError(f"setting {setting}: {self.which}_counts {fault}")
        names, values = [key for key, _ in sparse.pairs], [v for _, v in sparse.pairs]
        if not all(type(v) is int and -2**63 <= v < 2**63 for v in values):
            raise ValueError(f"setting {setting}: {self.which}_counts holds a value "
                             f"that is not a 64-bit integer")
        self.keys.extend(int(k) if _KEY.fullmatch(k) and int(k) < total else -1 for k in names)
        self.values.extend(values)
        self.texts += names
        self.ends.append(len(self.keys))

    def add_written(self, body: str) -> None:
        """Keep a body in the writer's layout as CSV bytes: '"key": count'
        pairs joined by ", ", with only digits in each key and count."""
        body = body.encode()
        skeleton = body.translate(None, b"0123456789")
        pairs = skeleton.count(b":")
        if skeleton != (b'"": , ' * pairs)[:-2]:
            raise ValueError("a count body not in the writer's layout")
        if pairs:
            self.csv.append(body.translate(_COLON_TO_COMMA, b'" '))
        self.ends.append(self.ends[-1] + pairs)
        self.digits += len(body) - len(skeleton)

    def decode(self) -> None:
        """Decode the kept bodies with numpy, as json would read them: each
        number nonempty, of at most 18 digits, without a leading zero."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy < 2 warns at an empty number
            numbers = np.fromstring(b",".join(self.csv), dtype=np.int64, sep=",")
        top = numbers.max(initial=0)  # the lengths: 1 each, +1 per power of 10 reached
        if (numbers.size != 2 * self.ends[-1] or top >= 10**18 or self.digits != numbers.size
                + sum(np.count_nonzero(numbers >= 10**d) for d in range(1, len(str(top))))):
            raise ValueError("a count body not in the writer's layout")
        self.keys, self.values = numbers[0::2], numbers[1::2]

    def dense(self, settings: list, total: int, shots: int, out: np.ndarray) -> None:
        """Fill ``out``, a zeroed contiguous (lines, total) int64 block, with the
        counts, checked."""
        keys, values = (np.asarray(a, dtype=np.int64) for a in (self.keys, self.values))

        def check(bad, fault):  # a fault of the first pair where bad holds
            if bad.any():
                p = int(np.argmax(bad))
                j = int(np.searchsorted(self.ends, p, side="right")) - 1
                key = self.texts[p] if self.texts else str(keys[p])
                raise ValueError(f"setting {settings[j]}: {self.which} outcome {fault(key)}")

        check((keys < 0) | (keys >= total), lambda k: f"key {k!r} is outside 0..{total - 1}")
        flat = out.reshape(-1)
        cells = np.repeat(np.arange(0, flat.size, total), np.diff(self.ends))
        cells += keys
        np.add.at(flat, cells, 1)
        # an outcome under two keys: json would keep the later count
        check(flat[cells] > 1, lambda k: f"{k} is named by two keys, {k!r} and {k!r}")
        check(values < 0, lambda k: f"key {k!r} has a negative count")
        check(values > shots, lambda k: f"key {k!r} has a count above shots_per_setting")
        flat[cells] = values  # at most total counts of at most shots: no wraparound
        sums = flat.reshape(-1, total).sum(axis=1)
        _fault_at_first(sums != shots, settings, lambda j: f"{self.which} counts sum to "
                        f"{sums[j]}, not shots_per_setting {shots}")


def _rows(rows: list, shape: tuple, name: str, settings: list, fault: str,
          dtype=float) -> np.ndarray:
    """Each line's ``name`` as a row of one finite ``dtype`` array of shape
    (lines, *shape); a row of another shape, or not all numbers (integers
    for an integer dtype, no complex ones for a real dtype), is ``fault``."""
    kinds = {"i": "iu", "f": "iuf", "c": "iufc"}[np.dtype(dtype).kind]

    def array(obj, shape):
        try:
            arr = np.asarray(obj)
        except ValueError:  # ragged nesting
            return None
        return arr if arr.dtype.kind in kinds and arr.shape == shape else None

    block = array(rows, (len(rows), *shape))
    if block is None:  # rows that each pass stack to a block that passes
        _fault_at_first(np.array([array(row, shape) is None for row in rows]),
                        settings, lambda j: f"{name} {fault}")
    block = block.astype(dtype, copy=False)
    _fault_at_first(~np.isfinite(block).reshape(len(rows), -1).all(axis=1), settings,
                    lambda j: f"{name} holds a value that is not finite")
    return block


def _read_lines(lines, cfg: ProtocolConfig, written: bool):
    """(settings, fields, counts of each state) of the record lines, each
    line checked as it is read.  ``written``: every line must be in the
    writer's shot-mode layout, its count bodies decoded once per file and
    state by numpy, or ValueError is raised, with no other check run."""
    total = cfg.local_dim ** (cfg.m + cfg.n)
    fields = {name: [] for name in ("unitaries_a", "unitaries_b")
              + ("rho_probs", "sigma_probs") * cfg.exact}
    states, settings = [] if cfg.exact else [_Counts("rho"), _Counts("sigma")], []
    for line in lines:
        layout = written and _WRITTEN.match(line)
        if layout:  # the line without its count bodies holds any boolean
            line = ('{"rho_counts": {}, "setting": ' + layout[2] + ', "sigma_counts": {}, '
                    '"unitaries_a": ' + line[layout.end():])
        obj = json.loads(line, object_pairs_hook=_JsonObject)
        # ten quotes and five keys: no other key repeats a count field
        if written and not (layout and line.count('"') == 10 and len(obj) == 5):
            raise ValueError("a line not in the writer's layout")
        setting = obj.get("setting") if isinstance(obj, dict) else None
        if type(setting) is not int or not 0 <= setting < cfg.n_unitaries:
            raise ValueError(f"record {len(settings)}: setting {setting!r} is "
                             f"not an integer in 0..{cfg.n_unitaries - 1}")
        # numpy would read a boolean among numbers as 0 or 1
        if "true" in line or "false" in line:
            raise ValueError(f"setting {setting}: a value is a JSON boolean")
        for name, rows in fields.items():
            if name not in obj:
                raise ValueError(f"setting {setting}: {name} is missing")
            rows.append(obj[name])
        for i, state in enumerate(states):
            if written:
                state.add_written(layout[2 * i + 1])
            else:
                state.add(obj, total, setting)
        settings.append(setting)
    for state in states if written else ():
        state.decode()
    return settings, fields, states


def read_records(path) -> tuple[ProtocolConfig, Records]:
    """Inverse of :func:`write_records`, checked on the way in.

    Every record must carry its setting, m and n finite unitaries, and
    both states' probability vectors of length D, finite, nonnegative and
    summing to 1 within ``PROB_TOL`` (exact mode), or sparse counts keyed by
    outcomes as the writer writes them, each under one key, none negative or
    above the shots per setting, that sum to them; the settings must be
    0..n_unitaries-1, each once.  A fault raises ``ValueError`` naming it: a
    line that is not JSON or lacks a field at that line, any other after the
    last line, each check over the whole file naming the first line it fails.
    A shot-mode file whose every line is in write_records' own layout has
    its count bodies decoded by numpy, once per file and state; a file with
    any line off that layout is read again through json, line by line, to
    the same records and faults.
    """
    with open(path) as fh:
        header = json.loads(fh.readline())
        if not isinstance(header, dict) or "protocol" not in header:
            raise ValueError("the first line must be a JSON object with a "
                             "'protocol' key")
        cfg = ProtocolConfig.from_json(header["protocol"])
        read = None
        if not cfg.exact:
            try:
                read = _read_lines(fh, cfg, written=True)
            except (ValueError, DeprecationWarning):  # json reads it again, fault by fault
                fh.seek(0)
                fh.readline()
        settings, fields, states = read or _read_lines(fh, cfg, written=False)
    total, shots = cfg.local_dim ** (cfg.m + cfg.n), cfg.shots_per_setting
    seen = np.bincount(np.array(settings, dtype=np.int64), minlength=cfg.n_unitaries)
    for bad, fault in ((seen > 1, "appears more than once"), (seen == 0, "is missing")):
        if bad.any():
            raise ValueError(f"setting {int(np.argmax(bad))} {fault}")
    l, floats = cfg.local_dim, 2 * cfg.local_dim**2
    unitaries = np.concatenate(
        [_rows(fields[name], (q, floats), name, settings,
               f"must be a {q} x {floats} array of floats").view(complex).reshape(-1, q, l, l)
         for name, q in (("unitaries_a", cfg.m), ("unitaries_b", cfg.n))], axis=1)
    if cfg.exact:
        data = np.stack([_rows(fields[name], (total,), name, settings,
                               f"must hold {total} probabilities")
                         for name in ("rho_probs", "sigma_probs")])
        # computed probabilities carry rounding entries of about -1e-17
        for name, probs in zip(("rho_probs", "sigma_probs"), data):
            low, sums = probs.min(axis=1), probs.sum(axis=1)
            _fault_at_first(low < -PROB_TOL, settings, lambda j: f"{name} has an "
                            f"entry {low[j]:.3e} below -{PROB_TOL:g}")
            _fault_at_first(np.abs(sums - 1.0) > PROB_TOL, settings,
                            lambda j: f"{name} sums to {float(sums[j])!r}, not 1")
    else:
        data = np.zeros((2, len(settings), total), dtype=np.int64)
        for state, out in zip(states, data):
            state.dense(settings, total, shots, out)
    return cfg, Records(cfg, np.array(settings, dtype=np.int64), unitaries, data)
