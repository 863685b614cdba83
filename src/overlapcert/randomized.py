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
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from itertools import compress

import numpy as np

from .qmat import QState, _from_json, _guarded_ratios, _load_json, _product_probs

_DESIGNS = ("haar", "clifford")
# Slack of a Records' probabilities: entries >= -PROB_TOL, sums within PROB_TOL of 1
PROB_TOL = 1e-9
# A local overlap enters the ratio only when its mean is above SNR_GUARD
# times its standard error.
SNR_GUARD = 10.0
# Rho's and sigma's data fields in exact mode (True) and shot mode (False)
_DATA = {True: ("rho_probs", "sigma_probs"), False: ("rho_counts", "sigma_counts")}


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
        return _from_json(cls, obj, "ProtocolConfig",
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


def _data_fields(cfg: ProtocolConfig) -> tuple[tuple, str]:
    """Rho's and sigma's data fields under ``cfg``, and the fault of a row."""
    what = "probabilities" if cfg.exact else "integer counts"
    return _DATA[cfg.exact], f"must hold {cfg.d_a * cfg.d_b} {what}"


@dataclass(frozen=True, eq=False)
class Records(Sequence):
    """The outcome data of all settings of one run, as read-only arrays whose
    row j is setting j: ``unitaries`` (N, m+n, l, l), side A's first, and
    ``data`` (2, N, D) of rho, then sigma, checked against ``cfg`` as it is
    made, a fault naming the first bad setting and the field:
    - N is n_unitaries, ``unitaries`` a complex array of finite values (this
      fault names only the field);
    - ``data`` is float if ``cfg.exact``, else int64;
    - each row is probabilities (entries >= -``PROB_TOL``, a sum within
      ``PROB_TOL`` of 1), or counts in 0..shots_per_setting summing to it.
    An item is a :class:`MeasurementRecord` of views, a slice a list of them."""

    cfg: ProtocolConfig
    unitaries: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        cfg, n, us = self.cfg, self.cfg.n_unitaries, self.unitaries
        if len(us) != n:  # row j is setting j
            raise ValueError(f"setting {len(us)} is missing" if len(us) < n else
                             f"record {n}: setting {n} is not an integer in 0..{n - 1}")
        shape = (n, cfg.m + cfg.n, cfg.local_dim, cfg.local_dim)
        if us.dtype != complex or us.shape != shape or not np.isfinite(us).all():
            raise ValueError(f"unitaries must be a complex {shape} array of finite values")
        (names, fault), shots = _data_fields(cfg), cfg.shots_per_setting
        if self.data.dtype != (np.int64 if shots else float) or self.data.shape != (
                2, n, cfg.d_a * cfg.d_b):
            raise ValueError(f"setting 0: {names[0]} {fault}")
        for name, rows in zip(names, self.data):  # reduced along rows: no (N, D) temporary
            low, high, sums = rows.min(axis=1), rows.max(axis=1), rows.sum(axis=1)
            if shots:  # counts in 0..shots, so the sum does not wrap around
                _fault_at_first((low < 0) | (high > shots), lambda j: f"{name} has a "
                                f"count {low[j] if low[j] < 0 else high[j]} outside 0..{shots}")
                _fault_at_first(sums != shots, lambda j: f"{name.split('_')[0]} "
                                f"counts sum to {sums[j]}, not shots_per_setting {shots}")
            else:  # computed probabilities carry rounding entries of about -1e-17
                _fault_at_first(low < -PROB_TOL, lambda j: f"{name} has an entry "
                                f"{low[j]:.3e} below -{PROB_TOL:g}")
                _fault_at_first(~(abs(sums - 1.0) <= PROB_TOL),  # a nan sum too
                                lambda j: f"{name} sums to {float(sums[j])!r}, not 1")
        for arr in (self.unitaries, self.data):  # the table must not go stale
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.unitaries)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[k] for k in range(*j.indices(len(self)))]
        j = range(len(self))[j]  # the setting, an int in 0..N-1
        names, us = _data_fields(self.cfg)[0], tuple(self.unitaries[j])
        return MeasurementRecord(j, us[:self.cfg.m], us[self.cfg.m:],
                                 **dict(zip(names, self.data[:, j])))

    @classmethod
    def of(cls, records, cfg: ProtocolConfig) -> "Records":
        """``records`` under ``cfg``: a Records made under cfg as it is, any other
        sequence of :class:`MeasurementRecord`, record j of setting j, stacked field
        by field, each record carrying both states' probs if ``cfg.exact``, else counts."""
        if isinstance(records, Records) and records.cfg == cfg:
            return records
        records, l = list(records), cfg.local_dim
        if not records:
            raise ValueError("there are no records")
        if misplaced := [(j, rec.setting) for j, rec in enumerate(records) if rec.setting != j]:
            raise _misplaced(*misplaced[0])
        names, fault = _data_fields(cfg)
        lacking = [(j, name) for name in names for j, rec in enumerate(records)
                   if getattr(rec, name) is None]
        if lacking:
            raise ValueError("setting {} has no {}".format(*lacking[0]))
        a, b, rho, sigma = (  # each field of every record as one checked array
            _rows([getattr(rec, name) for rec in records], shape, name, fault, dtype)
            for name, shape, fault, dtype in [
                ("unitaries_a", (cfg.m, l, l), f"must be {cfg.m} {l} x {l} unitaries", complex),
                ("unitaries_b", (cfg.n, l, l), f"must be {cfg.n} {l} x {l} unitaries", complex),
                *[(name, (cfg.d_a * cfg.d_b,), fault, float if cfg.exact else np.int64)
                  for name in names]])
        return cls(cfg, np.concatenate([a, b], axis=1), np.stack([rho, sigma]))

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


def _outcome_probs(factors: np.ndarray, c: np.ndarray | None, forms) -> np.ndarray:
    """diag(U rho U^dag), shape (B, D, K), for a (B, q, l, l) block of local
    factors, U their Kronecker product (never built), and K states.  A state
    whose ``forms`` entry is a (v, b, c0) gets :func:`~.qmat._product_probs`.
    The rest (None) use their coefficients ``c``:
    sum_a c_a prod_k M_k[s_k, a_k], M_k[s, a] = <s|u_k H_a u_k^dag|s> real.  One
    GEMM with M_0 shared by the block, batched products for the other qudits:
    about 2 l D^2 real multiply-adds per setting and state, not D^3."""
    b, q, l = factors.shape[:3]
    if c is not None:
        t = (factors[..., :, None] * factors.conj()[..., None, :]).reshape(b, q, l, l * l)
        m = (t @ _hermitian_basis(l).T).real
        y = m[:, 0].reshape(b * l, l * l) @ c
        for k in range(1, q):
            y = np.matmul(m[:, k, None], y.reshape(b, l**k, l * l, -1))
        dense = iter(np.moveaxis(y.reshape(b, l**q, -1), 2, 0))
    return np.stack([next(dense) if form is None else _product_probs(form, factors)
                     for form in forms], axis=2)


# Bytes of kernel intermediates (B D^2 / l reals per state, or B D amplitudes
# if no state needs those) per block.  On 3+3 qubits and 300 settings 1 MiB is
# no faster, at 1 MiB more peak RSS; the vector kernel is 2x faster at 128 than 8.
_BLOCK_BYTES = 256 * 1024


def run_protocol(rho: QState, sigma: QState, cfg: ProtocolConfig) -> Records:
    """Measure both states under identical sampled settings.

    Returns the records of settings 0..n_unitaries-1.  Per-setting randomness
    comes from a counter-based split of the seed, so records are reproducible
    and independent of evaluation order.  Each setting's stream draws its m+n
    local unitaries and then, in shot mode, the counts of rho and sigma.
    Both states' outcome probabilities come from one kernel call per block
    of settings, on their vectors or real Hermitian-basis coefficients.
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
    forms = [rho._pure_form, sigma._pure_form]
    dense = [state.matrix for state, form in zip((rho, sigma), forms) if form is None]
    c = _basis_coefficients(dense, cfg.local_dim, cfg.m + cfg.n) if dense else None
    probs = np.empty((2, cfg.n_unitaries, total))
    per_state = total * total // cfg.local_dim if dense else 2 * total
    block = max(1, _BLOCK_BYTES // (probs.itemsize * 2 * per_state))
    for i in range(0, cfg.n_unitaries, block):
        probs[:, i:i + block] = np.moveaxis(
            _outcome_probs(factors[i:i + block], c, forms), 2, 0)
    data = probs
    if not cfg.exact:  # the shots sample the clipped, renormalised probabilities
        np.clip(probs, 0.0, None, out=probs)
        probs /= probs.sum(axis=2, keepdims=True)
        data = np.empty(probs.shape, dtype=np.int64)
        for u, rng in enumerate(rngs):
            data[0, u] = rng.multinomial(cfg.shots_per_setting, probs[0, u])
            data[1, u] = rng.multinomial(cfg.shots_per_setting, probs[1, u])
    return Records(cfg, factors, data)


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
    norm = cfg.shots_per_setting or 1  # every row of counts sums to the shots
    a, b = np.empty(data.shape[1:]), np.empty(data.shape[1:])
    dots, sides = np.empty((3, 3, n)), [None, None]
    for j in (0, 1):
        cube = np.divide(data[j], norm, out=a).reshape(n, cfg.d_a, cfg.d_b)
        sides[j] = (cube.sum(axis=2), cube.sum(axis=1))
        kernel = _apply_hamming_kernel(a, l, cfg.m + cfg.n, out=b)
        spare = b if np.may_share_memory(kernel, a) else a
        for p, (i, kernel_state) in enumerate(pairs):
            if kernel_state == j:
                f = np.divide(data[i], norm, out=spare)
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
    diagonal), which gives the distinct-pair U-statistic (N f.Wf - 1) / (N - 1)
    with N = ``cfg.shots_per_setting``, the sum of every row of a Records' counts.
    """
    if len(records) < 2:
        raise ValueError("estimation needs at least two settings")
    y, shots = Records.of(records, cfg)._dots[pair], cfg.shots_per_setting
    if pair and not cfg.exact:
        if shots < 2:
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
    names, fmts = _data_fields(cfg)[0], [f'"{k}": %d' for k in order.tolist()]
    # every complex entry of a setting's unitaries as its (re, im) parts
    floats = np.ascontiguousarray(records.unitaries).view(float).reshape(
        len(records), cfg.m + cfg.n, -1)
    with open(path, "w") as fh:
        fh.write(json.dumps({"protocol": cfg.to_json()}, sort_keys=True) + "\n")
        for j in range(len(records)):
            if cfg.exact:
                data = [json.dumps(row) for row in records.data[:, j].tolist()]
            else:  # the nonzero counts, in JSON key order
                data = ["{" + ", ".join(compress(fmts, row)) % tuple(filter(None, row)) + "}"
                        for row in records.data[:, j, order].tolist()]
            unitaries = floats[j].tolist()
            fh.write(f'{{"{names[0]}": {data[0]}, "setting": {j}, '
                     f'"{names[1]}": {data[1]}, "unitaries_a": '
                     f'{json.dumps(unitaries[:cfg.m])}, "unitaries_b": '
                     f'{json.dumps(unitaries[cfg.m:])}}}\n')


# A record line as write_records writes it in each mode, field by field: a
# float array holds only what json.dumps writes for finite floats (no true,
# false, null, NaN or Infinity) and is read by json, a count body by numpy.
_FLOATS = r"(\[[-+.0-9e\[\], ]*\])"
_LAYOUT = {exact: ((rho, rf'\{{"{rho}": {body}, '),
                   ("setting", r'"setting": (0|[1-9][0-9]{0,17}), '),
                   (sigma, rf'"{sigma}": {body}, '),
                   ("unitaries_a", rf'"unitaries_a": {_FLOATS}, '),
                   ("unitaries_b", rf'"unitaries_b": {_FLOATS}\}}\n?\Z'))
           for exact, (rho, sigma) in _DATA.items()
           for body in [_FLOATS if exact else r"\{([^}]*)\}"]}
_WRITTEN = {exact: re.compile("".join(part for _, part in layout))
            for exact, layout in _LAYOUT.items()}
_OFF = "is not in the writer's layout"
_NUMBER = re.compile(rb"0|[1-9][0-9]{0,17}")  # a key or count as the writer writes it
_CSV = bytes.maketrans(b":", b",")  # a count body's pairs as CSV, once '"' and ' ' go


def _off_layout(line: str, record: int, layout) -> ValueError:
    """The refusal of a line off ``layout``, naming where it leaves it."""
    where, end = f"record {record}", 0
    for field, part in layout:
        if not (match := re.compile(part).match(line, end)):
            break
        where, end = f"setting {match[1]}" if field == "setting" else where, match.end()
    return ValueError(f"{where}: {field} {_OFF}")


def _fault_at_first(bad: np.ndarray, fault) -> None:
    """Raise ``fault(j)`` as a fault of the first setting j where ``bad`` holds."""
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"setting {j}: {fault(j)}")


def _misplaced(j: int, setting) -> ValueError:
    """The refusal of record j, which holds ``setting``, not setting j."""
    return ValueError(f"record {j}: setting {setting} is out of order, not {j}")


def _decode_counts(which: str, bodies: list, total: int, out: np.ndarray) -> None:
    """Fill ``out``, a zeroed contiguous (lines, total) int64 block, from each
    line's count body as CSV bytes, its keys and counts in turn, each a digit
    run.  numpy decodes them all in one call; then each number is checked as
    the writer writes it (not empty, no leading zero, at most 18 digits) and
    each key in 0..total-1 and named once on its line."""
    csv = b",".join(filter(None, bodies))  # a body with no pairs adds no comma
    try:  # ",," is an empty number: numpy < 2 warns and reads the numbers before it
        numbers = np.fromstring(csv, dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):  # the warning, if warnings are errors
        numbers = np.empty(0, dtype=np.int64)
    pairs = [(body.count(b",") + 1) // 2 for body in bodies]  # 2p - 1 commas a body
    size = 2 * sum(pairs)  # so the CSV holds size - 1 commas, if any, and the rest digits
    top = numbers.max(initial=0)  # the lengths: 1 each, +1 per power of 10 reached
    if numbers.size != size or top >= 10**18 or len(csv) - max(size - 1, 0) != (
            numbers.size + sum(np.count_nonzero(numbers >= 10**d)
                               for d in range(1, len(str(top))))):
        bad = [bool(body) and not all(map(_NUMBER.fullmatch, body.split(b","))) for body in bodies]
        _fault_at_first(np.array(bad), lambda j: f"{which}_counts {_OFF}")
    keys, rows = numbers[0::2], np.repeat(np.arange(len(bodies)), pairs)

    def check(bad, fault):  # a fault of the first pair where bad holds
        if bad.any():
            p = int(np.argmax(bad))
            raise ValueError(f"setting {rows[p]}: {which} outcome {fault(keys[p])}")

    check(keys >= total, lambda k: f"key '{k}' is outside 0..{total - 1}")
    flat = out.reshape(-1)
    cells = rows * total + keys
    np.add.at(flat, cells, 1)
    check(flat[cells] > 1, lambda k: f"{k} is named by two keys, '{k}' and '{k}'")
    flat[cells] = numbers[1::2]


def _rows(rows: list, shape: tuple, name: str, fault: str, dtype=float) -> np.ndarray:
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

    block = array(rows, (len(rows), *shape)) if rows else np.empty((0, *shape))
    if block is None:  # rows that each pass stack to a block that passes
        _fault_at_first(np.array([array(row, shape) is None for row in rows]),
                        lambda j: f"{name} {fault}")
    block = block.astype(dtype, copy=False)
    _fault_at_first(~np.isfinite(block).all(axis=tuple(range(1, block.ndim))),
                    lambda j: f"{name} holds a value that is not finite")
    return block


def _read_lines(lines, cfg: ProtocolConfig):
    """(float arrays by field, (2, N, D) counts in shot mode) of the record
    lines, line j checked as it is read: in the writer's layout, holding
    setting j, one of 0..n_unitaries-1, each float array read by json and each
    count body's punctuation that of '"key": count' pairs; then each state's
    count bodies are decoded at once."""
    layout, n = _LAYOUT[cfg.exact], cfg.n_unitaries
    float_groups = {name: g for g, (name, part) in enumerate(layout, 1) if _FLOATS in part}
    fields = {name: [] for name in float_groups}
    bodies = [] if cfg.exact else [[], []]
    for j, line in enumerate(lines):
        if not (match := _WRITTEN[cfg.exact].match(line)):
            raise _off_layout(line, j, layout)
        if match[2] != str(j):
            raise _misplaced(j, match[2])
        if j >= n:
            raise ValueError(f"record {j}: setting {j} is not an integer in 0..{n - 1}")
        for name, found, body in zip(_DATA[False], bodies, match.group(1, 3)):
            skeleton = (body := body.encode()).translate(None, b"0123456789")
            # p pairs leave 6p - 2 bytes of punctuation; digits alone are no pair
            if skeleton != (b'"": , ' * ((len(skeleton) + 2) // 6))[:-2] or body and not skeleton:
                raise ValueError(f"setting {j}: {name} {_OFF}")
            found.append(body.translate(_CSV, b'" '))
        for name, rows in fields.items():
            try:  # the class admits texts json refuses, like "[1], [2]"
                rows.append(json.loads(match[float_groups[name]]))
            except (ValueError, RecursionError):  # the latter: nested too deep
                raise ValueError(f"setting {j}: {name} {_OFF}") from None
    total = cfg.d_a * cfg.d_b
    counts = np.zeros((len(bodies), len(fields["unitaries_a"]), total), dtype=np.int64)
    for name, found, out in zip(("rho", "sigma"), bodies, counts):
        _decode_counts(name, found, total, out)
    return fields, counts


def _header(protocol: dict) -> ProtocolConfig:  # a records file's first line
    return ProtocolConfig.from_json(protocol)


def read_records(path) -> tuple[ProtocolConfig, Records]:
    """Inverse of :func:`write_records`, checked on the way in: the text here,
    the values as every :class:`Records` is.  Every record line must be the
    writer's bytes, ``json.dumps(obj, sort_keys=True)``: line j holds setting
    j, one of 0..n_unitaries-1, both states' probabilities (exact mode) or counts keyed
    by outcomes, and m and n unitaries, each float array read by json and
    each state's count bodies by numpy once per file.  A fault raises
    ``ValueError`` naming the setting (``record j`` before it is read) and
    the field: a line off the layout at that line, any other after the last
    line, each check over the whole file naming the first line."""
    with open(path) as fh:
        cfg = _from_json(_header, _load_json(fh.readline(), "records header"),
                         "records header")
        fields, counts = _read_lines(fh, cfg)
    total, (names, fault) = cfg.d_a * cfg.d_b, _data_fields(cfg)
    l, floats = cfg.local_dim, 2 * cfg.local_dim**2
    unitaries = np.concatenate(
        [_rows(fields[name], (q, floats), name,
               f"must be a {q} x {floats} array of floats").view(complex).reshape(-1, q, l, l)
         for name, q in (("unitaries_a", cfg.m), ("unitaries_b", cfg.n))], axis=1)
    data = (np.stack([_rows(fields[name], (total,), name, fault) for name in names])
            if cfg.exact else counts)
    return cfg, Records(cfg, unitaries, data)
