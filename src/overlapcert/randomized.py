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
from dataclasses import asdict, dataclass

import numpy as np

from .qmat import QState, _from_json, _guarded_ratios, hs_inner

_DESIGNS = ("haar", "clifford")
# Slack of a read exact-mode probability vector: entries >= -PROB_TOL and a
# sum within PROB_TOL of 1.
PROB_TOL = 1e-9


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
    vectors; shot mode fills ``*_counts`` with dense count vectors.
    """

    setting: int
    unitaries_a: tuple
    unitaries_b: tuple
    rho_probs: np.ndarray | None = None
    sigma_probs: np.ndarray | None = None
    rho_counts: np.ndarray | None = None
    sigma_counts: np.ndarray | None = None


@dataclass(frozen=True)
class OverlapEstimate:
    """Estimated overlaps, their jackknife standard errors, and the ratio.

    ``s`` is the larger of the local ratio estimates whose denominator
    clears the instability guard (mean above ``snr_guard`` times its
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


def _outcome_probs(factors: np.ndarray, x: np.ndarray) -> np.ndarray:
    """diag(U rho U^dag) for each setting of a (B, q, l, l) block of local
    factors, U their Kronecker product (leading qudit first), never built.

    ``x`` is rho with each qudit's row and column index adjacent, shape
    (l^2, l^(2q-2)).  Qudit k's axis is contracted with T_k[s, (t, t')] =
    u_k[s, t] conj(u_k[s, t']), which leaves its outcome index s: one GEMM
    shared by the block for the first qudit, batched products for the
    rest, about 2 l D^2 operations per setting instead of D^3.
    """
    b, q, l = factors.shape[:3]
    t = (factors[..., :, None] * factors.conj()[..., None, :]).reshape(b, q, l, l * l)
    y = t[:, 0].reshape(b * l, l * l) @ x
    for k in range(1, q):
        y = np.matmul(t[:, k, None], y.reshape(b, l**k, l * l, -1))
    return y.reshape(b, -1).real


# Bytes of kernel intermediates (the first qudit's B D^2 / l complex
# entries) per probability block.  A 1 MiB block is no faster on 3+3 qubits
# and 300 settings, and raises the peak RSS of the run by about 1 MiB.
_BLOCK_BYTES = 256 * 1024


def run_protocol(rho: QState, sigma: QState, cfg: ProtocolConfig) -> list[MeasurementRecord]:
    """Measure both states under identical sampled settings.

    Returns one record per setting.  Per-setting randomness comes from a
    counter-based split of the seed, so records are reproducible and
    independent of evaluation order.  Each setting's stream draws its m+n
    local unitaries and then, in shot mode, the counts of rho and sigma;
    the outcome probabilities are computed for blocks of settings at once.
    """
    total = cfg.local_dim ** (cfg.m + cfg.n)
    if rho.dim != total or sigma.dim != total:
        raise ValueError(
            f"states of dimension {rho.dim}/{sigma.dim} do not match the "
            f"protocol layout {cfg.local_dim}^({cfg.m}+{cfg.n})={total}"
        )
    for state, name in ((rho, "rho"), (sigma, "sigma")):
        # some prefix of the state's subsystems must form side A
        prefixes = {math.prod(state.dims[:k]) for k in range(1, len(state.dims))}
        if cfg.d_a not in prefixes:
            raise ValueError(
                f"{name} dims {state.dims} admit no A|B cut at dimension "
                f"{cfg.d_a}|{cfg.d_b}"
            )
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n_unitaries)]
    factors = _local_unitaries(
        np.array([_draw_local(cfg.local_dim, rng, cfg.design, cfg.m + cfg.n)
                  for rng in rngs]), cfg.design)
    q, l = cfg.m + cfg.n, cfg.local_dim
    perm = [axis for k in range(q) for axis in (k, q + k)]
    xs = [s.matrix.reshape((l,) * 2 * q).transpose(perm).reshape(l * l, -1)
          for s in (rho, sigma)]
    probs = np.empty((2, cfg.n_unitaries, total))
    block = max(1, _BLOCK_BYTES * l // (factors.itemsize * total * total))
    for start in range(0, cfg.n_unitaries, block):
        for p, x in zip(probs, xs):
            p[start:start + block] = _outcome_probs(factors[start:start + block], x)
    records = []
    for u_idx, rng in enumerate(rngs):
        locals_a = tuple(factors[u_idx, :cfg.m])
        locals_b = tuple(factors[u_idx, cfg.m:])
        p_rho, p_sigma = probs[:, u_idx]
        if cfg.exact:
            records.append(MeasurementRecord(
                setting=u_idx, unitaries_a=locals_a, unitaries_b=locals_b,
                rho_probs=p_rho, sigma_probs=p_sigma,
            ))
        else:
            shots = cfg.shots_per_setting
            pr = np.clip(p_rho, 0.0, None)
            ps = np.clip(p_sigma, 0.0, None)
            c_rho = rng.multinomial(shots, pr / pr.sum())
            c_sigma = rng.multinomial(shots, ps / ps.sum())
            records.append(MeasurementRecord(
                setting=u_idx, unitaries_a=locals_a, unitaries_b=locals_b,
                rho_counts=c_rho, sigma_counts=c_sigma,
            ))
    return records


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


def _apply_hamming_kernel(rows: np.ndarray, local_dim: int, n_qudits: int) -> np.ndarray:
    """Every row of ``rows`` times W[s, t] = (-local_dim)^(-Hamming(s, t)).

    W is a tensor power of the single-qudit kernel, so it is applied one
    group of qudits at a time as a product with that group's small dense
    factor (at most ``_GROUP_DIM`` wide), never as a D x D matrix.  A
    partial group goes first, so the last group is one 2-D product.
    """
    k = 1
    while local_dim ** (k + 1) <= _GROUP_DIM:
        k += 1
    sizes = [n_qudits % k] * (n_qudits % k > 0) + [k] * (n_qudits // k)
    t, pre = rows, 1
    for size in sizes:
        width = local_dim**size
        post = rows.shape[1] // (pre * width)
        f = _kernel_factor(local_dim, size)
        # f is symmetric, so right-multiplying the last group applies it too
        t = (t.reshape(-1, width) @ f if post == 1
             else f @ t.reshape(len(rows) * pre, width, post))
        pre *= width
    return t.reshape(rows.shape)


def _outcome_rows(records, which: str):
    """One state's frequencies, shape (n_settings, D), and per-setting shot
    counts (None for exact probabilities).  The first record decides which
    kind of data every record must carry."""
    if len(records) < 2:
        raise ValueError("estimation needs at least two settings")
    exact = getattr(records[0], which + "_probs") is not None
    field = which + ("_probs" if exact else "_counts")
    rows = [getattr(rec, field) for rec in records]
    lacking = next((rec.setting for rec, r in zip(records, rows) if r is None), None)
    if lacking is not None:
        raise ValueError(f"setting {lacking} has no {field}")
    data = np.asarray(rows, dtype=float)
    if exact:
        return data, None
    shots = data.sum(axis=1)
    return data / shots[:, None], shots


def _setting_terms(f: np.ndarray, g: np.ndarray, cfg: ProtocolConfig,
                   shots: np.ndarray | None = None) -> np.ndarray:
    """Per-setting d_X f_X . W_X g_X, one row each for X = AB, A, B.

    ``shots`` is passed only when f and g are the same record; the pairs
    of a shot with itself are then left out (W has unit diagonal), which
    gives the distinct-pair U-statistic (N f.Wf - 1) / (N - 1).
    """
    n = len(f)
    cube_f, cube_g = f.reshape(n, cfg.d_a, cfg.d_b), g.reshape(n, cfg.d_a, cfg.d_b)
    sides = ((f, g, cfg.m + cfg.n),
             (cube_f.sum(axis=2), cube_g.sum(axis=2), cfg.m),
             (cube_f.sum(axis=1), cube_g.sum(axis=1), cfg.n))
    y = np.array([np.einsum("ui,ui->u", fx, _apply_hamming_kernel(gx, cfg.local_dim, q))
                  for fx, gx, q in sides])
    if shots is not None:
        y = (shots * y - 1.0) / (shots - 1.0)
    return np.array([[cfg.d_a * cfg.d_b], [cfg.d_a], [cfg.d_b]]) * y


def _jackknife_se(loo: np.ndarray) -> np.ndarray:
    """Jackknife standard error from leave-one-out replicates on the last axis."""
    n = loo.shape[-1]
    dev = loo - loo.mean(axis=-1, keepdims=True)
    return np.sqrt((n - 1) / n * np.sum(dev**2, axis=-1))


def _summarize(y: np.ndarray, snr_guard: float) -> OverlapEstimate:
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
    ok = means[1:] > snr_guard * ses[1:]
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


def estimate_overlaps(records, cfg: ProtocolConfig,
                      snr_guard: float = 10.0) -> OverlapEstimate:
    """Cross-correlation estimate of Tr[rho_X sigma_X] for X in {A, B, AB}.

    Standard errors come from leave-one-setting-out jackknife.  The ratio
    is flagged unreliable (and reported as 0) when no local denominator
    exceeds ``snr_guard`` times its own standard error.
    """
    f_rho, _ = _outcome_rows(records, "rho")
    f_sigma, _ = _outcome_rows(records, "sigma")
    return _summarize(_setting_terms(f_rho, f_sigma, cfg), snr_guard)


def estimate_self_overlaps(records, cfg: ProtocolConfig, which: str = "rho",
                           snr_guard: float = 10.0) -> OverlapEstimate:
    """Purity-type estimate Tr[rho_X^2] from a single state's records.

    Shot mode pairs only distinct shots of the same record (the diagonal
    of the naive product is biased by the multinomial variance).
    """
    if which not in ("rho", "sigma"):
        raise ValueError("which must be 'rho' or 'sigma'")
    f, shots = _outcome_rows(records, which)
    if shots is not None and shots.min() < 2:
        raise ValueError("within-state estimation needs >= 2 shots")
    return _summarize(_setting_terms(f, f, cfg, shots), snr_guard)


@dataclass(frozen=True)
class SwapTestResult:
    estimate: float
    std_error: float
    p_zero: float
    shots: int


def swap_test_overlap(rho: QState, sigma: QState, shots: int,
                      seed: int = 0) -> SwapTestResult:
    """Ancilla-based overlap estimate: P(0) = (1 + Tr[rho sigma]) / 2."""
    if shots < 1:
        raise ValueError("shots must be positive")
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    overlap = hs_inner(rho, sigma)
    p_zero = min(1.0, max(0.0, (1.0 + overlap) / 2.0))
    rng = np.random.default_rng(seed)
    zeros = int(rng.binomial(shots, p_zero))
    freq = zeros / shots
    return SwapTestResult(
        estimate=2.0 * freq - 1.0,
        std_error=2.0 * math.sqrt(max(freq * (1.0 - freq), 0.0) / shots),
        p_zero=freq,
        shots=shots,
    )


# ---------------------------------------------------------------------------
# JSON-lines persistence so estimation can be rerun offline.


@functools.cache
def _count_keys(total: int) -> tuple:
    """Outcomes 0..total-1 sorted as JSON keys are, and their '"k": ' texts."""
    order = np.array(sorted(range(total), key=str))
    return order, tuple(f'"{k}": ' for k in order.tolist())


def write_records(path, cfg: ProtocolConfig, records) -> None:
    """One JSON line for the config, then one line per setting, its keys
    sorted: the bytes of ``json.dumps(obj, sort_keys=True)`` per line."""
    order, keys = _count_keys(cfg.local_dim ** (cfg.m + cfg.n))

    def counts_text(counts):
        counts = np.asarray(counts, dtype=np.int64)[order].tolist()
        return "{" + ", ".join([k + str(c) for k, c in zip(keys, counts) if c]) + "}"

    with open(path, "w") as fh:
        fh.write(json.dumps({"protocol": cfg.to_json()}, sort_keys=True) + "\n")
        for rec in records:
            # every complex entry of a side's unitaries as its (re, im) parts
            ua, ub = (json.dumps(np.asarray(mats, dtype=complex).view(float)
                                 .reshape(len(mats), -1).tolist())
                      for mats in (rec.unitaries_a, rec.unitaries_b))
            if rec.rho_probs is not None:
                kind, data = "probs", [json.dumps(np.asarray(p, dtype=float).tolist())
                                       for p in (rec.rho_probs, rec.sigma_probs)]
            else:
                kind, data = "counts", [counts_text(c)
                                        for c in (rec.rho_counts, rec.sigma_counts)]
            fh.write(f'{{"rho_{kind}": {data[0]}, "setting": {json.dumps(rec.setting)}, '
                     f'"sigma_{kind}": {data[1]}, "unitaries_a": {ua}, '
                     f'"unitaries_b": {ub}}}\n')


# A shot-mode line as write_records writes it, up to its unitaries: each
# count body is '"key": count' pairs joined by ", ", or none.  Numbers have
# at most 18 digits, so each fits in an int64.
_INT = "(?:0|[1-9][0-9]{0,17})"
_BODY = f'((?:"{_INT}": {_INT}, )*"{_INT}": {_INT}|)'
_WRITTEN = re.compile(r'\{"rho_counts": \{' + _BODY + r'\}, "setting": ([0-9]+), '
                      r'"sigma_counts": \{' + _BODY + r'\}, "unitaries_a": ', re.ASCII)
_BODY_TO_CSV = str.maketrans({'"': None, " ": None, ":": ","})


def _written_counts(line: str, total: int):
    """(object, text) of a line in the writer's shot-mode layout with both
    count bodies emptied, and (keys, values, keys) of each body, decoded by
    numpy; None for any other line, or a key past total-1 or twice in a body."""
    layout = _WRITTEN.match(line)
    if not layout:
        return None
    counts = []
    for body in layout[1], layout[3]:
        pairs = (np.fromstring(body.translate(_BODY_TO_CSV), dtype=np.int64, sep=",")
                 if body else np.empty(0, dtype=np.int64))
        keys = pairs[0::2]
        if keys.size and (keys.max() >= total or np.bincount(keys).max() > 1):
            return None
        counts.append((keys, pairs[1::2], keys))
    rest = ('{"rho_counts": {}, "setting": ' + layout[2] + ', "sigma_counts": {}, '
            '"unitaries_a": ' + line[layout.end():])
    try:
        obj = json.loads(rest)
    except ValueError:
        return None
    # ten quotes and five keys: no other key repeats a count field
    return (obj, rest, counts) if rest.count('"') == 10 and len(obj) == 5 else None


def _outcome(key: str, total: int) -> int:
    """The outcome a sparse-count key names, or -1 if it names none."""
    try:
        return int(key) if 0 <= int(key) < total else -1
    except ValueError:
        return -1


def _parsed_counts(obj: dict, which: str, total: int, setting: int):
    """(keys, values, key texts) of one state's parsed {outcome: count} JSON."""
    sparse = obj.get(which + "_counts")
    if not isinstance(sparse, dict):
        fault = "is missing" if sparse is None else "is not a JSON object"
        raise ValueError(f"setting {setting}: {which}_counts {fault}")
    keys = np.array([_outcome(key, total) for key in sparse], dtype=np.int64)
    try:
        values = np.array(list(sparse.values()), dtype=None if sparse else np.int64)
    except ValueError:  # ragged nesting
        values = None
    if values is None or values.dtype.kind != "i" or values.ndim != 1:
        raise ValueError(f"setting {setting}: {which}_counts holds a value that "
                         f"is not a 64-bit integer")
    return keys, values, list(sparse)


def _dense_counts(keys: np.ndarray, values: np.ndarray, names, which: str,
                  total: int, shots: int, setting: int) -> np.ndarray:
    """Dense count vector of one state from its sparse keys and values,
    checked; ``names[i]`` is the text of key i."""
    for bad, fault in (((keys < 0) | (keys >= total), f"is outside 0..{total - 1}"),
                       (values < 0, "has a negative count"),
                       (values > shots, "has a count above shots_per_setting")):
        if bad.any():
            key = str(names[int(np.argmax(bad))])
            raise ValueError(f"setting {setting}: {which} outcome key {key!r} {fault}")
    counts = np.zeros(total, dtype=np.int64)
    counts[keys] = values  # at most total counts of at most shots: no wraparound
    if counts.sum() != shots:
        raise ValueError(f"setting {setting}: {which} counts sum to "
                         f"{counts.sum()}, not shots_per_setting {shots}")
    return counts


def _float_field(obj: dict, name: str, shape: tuple, setting: int,
                 fault: str) -> np.ndarray:
    """``obj[name]`` as a float array of ``shape``; anything else is a fault."""
    try:
        arr = np.asarray(obj[name])
    except KeyError:
        raise ValueError(f"setting {setting}: {name} is missing") from None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.shape != shape:
        raise ValueError(f"setting {setting}: {name} {fault}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError(f"setting {setting}: {name} holds a value that is not finite")
    return arr


def _check_probs(probs: np.ndarray, name: str, setting: int) -> None:
    """Reject an exact-mode outcome distribution with an entry below
    -PROB_TOL or a sum off 1 by more than PROB_TOL; computed probabilities
    carry rounding entries of about -1e-17, which pass."""
    if probs.min() < -PROB_TOL:
        raise ValueError(f"setting {setting}: {name} has an entry "
                         f"{probs.min():.3e} below -{PROB_TOL:g}")
    total = probs.sum()
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"setting {setting}: {name} sums to {float(total)!r}, not 1")


def read_records(path) -> tuple[ProtocolConfig, list[MeasurementRecord]]:
    """Inverse of :func:`write_records`, checked on the way in.

    Every record must carry its setting, m and n finite unitaries, and
    both states' probability vectors of length D, finite, nonnegative and
    summing to 1 within ``PROB_TOL`` (exact mode), or sparse counts, none
    above the shots per setting, that sum to them; the settings must be
    0..n_unitaries-1, each once.  A fault raises ``ValueError`` naming it.
    Count bodies in write_records' own layout are decoded by numpy; any
    other valid JSON layout reads through json.
    """
    with open(path) as fh:
        header = json.loads(fh.readline())
        if not isinstance(header, dict) or "protocol" not in header:
            raise ValueError("the first line must be a JSON object with a "
                             "'protocol' key")
        cfg = ProtocolConfig.from_json(header["protocol"])
        total, floats = cfg.local_dim ** (cfg.m + cfg.n), 2 * cfg.local_dim**2
        sides = (("unitaries_a", cfg.m), ("unitaries_b", cfg.n))
        records = []
        for line in fh:
            written = None if cfg.exact else _written_counts(line, total)
            # a written line's text without its count bodies holds any boolean
            obj, line, counts = written or (json.loads(line), line, None)
            setting = obj.get("setting") if isinstance(obj, dict) else None
            if type(setting) is not int or not 0 <= setting < cfg.n_unitaries:
                raise ValueError(f"record {len(records)}: setting {setting!r} is "
                                 f"not an integer in 0..{cfg.n_unitaries - 1}")
            # numpy would read a boolean among numbers as 0 or 1
            if "true" in line or "false" in line:
                raise ValueError(f"setting {setting}: a value is a JSON boolean")
            ua, ub = (tuple(_float_field(obj, name, (q, floats), setting,
                                         f"must be a {q} x {floats} array of floats")
                            .view(complex).reshape(q, cfg.local_dim, cfg.local_dim))
                      for name, q in sides)
            if cfg.exact:
                data = {f"{w}_probs": _float_field(obj, f"{w}_probs", (total,), setting,
                                                   f"must hold {total} probabilities")
                        for w in ("rho", "sigma")}
                for name, probs in data.items():
                    _check_probs(probs, name, setting)
            else:
                data = {f"{w}_counts": _dense_counts(
                    *(counts[i] if counts else _parsed_counts(obj, w, total, setting)),
                    w, total, cfg.shots_per_setting, setting)
                    for i, w in enumerate(("rho", "sigma"))}
            records.append(MeasurementRecord(setting=setting, unitaries_a=ua,
                                             unitaries_b=ub, **data))
    seen = np.bincount(np.array([rec.setting for rec in records], dtype=np.int64),
                       minlength=cfg.n_unitaries)
    for bad, fault in ((seen > 1, "appears more than once"), (seen == 0, "is missing")):
        if bad.any():
            raise ValueError(f"setting {int(np.argmax(bad))} {fault}")
    return cfg, records
