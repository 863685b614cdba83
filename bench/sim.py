"""Record simulator and closed forms for the noisy-GHZ re-estimation input.

The states are rho = p |GHZ><GHZ| + (1-p) I/D and sigma = |GHZ><GHZ| on n
qubits.  Under the product unitary U = u_1 x ... x u_n the outcome
probabilities of rho are p |U psi|^2 + (1-p)/D, so one setting costs n
single-qubit contractions on a length-D vector instead of a D x D
conjugation.  Everything here is plain numpy; nothing comes from
overlapcert, so the estimates can be checked against it.
"""

from __future__ import annotations

import math

import numpy as np


def haar_unitary(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    """Haar-random d x d unitary: QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def apply_local(vec: np.ndarray, unitaries) -> np.ndarray:
    """(u_1 x ... x u_n) vec without forming the D x D product."""
    n = len(unitaries)
    psi = np.asarray(vec, dtype=complex).reshape((2,) * n)
    for k, u in enumerate(unitaries):
        psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [k])), 0, k)
    return psi.reshape(-1)


def ghz_outcome_probs(ghz_vec: np.ndarray, unitaries, p: float):
    """Outcome probabilities of (rho, sigma) under one product unitary."""
    q = np.abs(apply_local(ghz_vec, unitaries)) ** 2
    return p * q + (1.0 - p) / q.size, q


def simulate_ghz_counts(ghz_vec: np.ndarray, n_qubits: int, settings: int,
                        shots: int, p: float, seed: int):
    """Per-setting (unitaries, rho counts, sigma counts), reproducible from seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6E7A]))
    out = []
    for _ in range(settings):
        us = [haar_unitary(rng) for _ in range(n_qubits)]
        p_rho, p_sigma = ghz_outcome_probs(ghz_vec, us, p)
        c_rho = rng.multinomial(shots, p_rho / p_rho.sum())
        c_sigma = rng.multinomial(shots, p_sigma / p_sigma.sum())
        out.append((us, c_rho, c_sigma))
    return out


def isotropic_overlap(d: int, x: float, y: float) -> float:
    """Tr[rho sigma] for isotropic states of fidelities x and y."""
    return x * y + (1.0 - x) * (1.0 - y) / (d * d - 1)


def corner_matrix(d: int, x: float) -> np.ndarray:
    """(1-x) I_corner/(d-1)^2 + x |Psi><Psi| on C^d x C^d, built directly."""
    diag = np.zeros(d * d)
    for i in range(d - 1):
        diag[i * d : i * d + d - 1] = 1.0
    psi = np.zeros(d * d)
    psi[[i * d + i for i in range(d)]] = 1.0 / math.sqrt(d)
    return (1.0 - x) / (d - 1) ** 2 * np.diag(diag) + x * np.outer(psi, psi)
