"""Random-state corpora shared by the criteria and acceptance tests."""

import numpy as np

from overlapcert import PureVec, QState, criteria, schmidt_decompose


def memoize_partner_sup(monkeypatch):
    """Make ``criteria.partner_sup`` keep its last answer: reduction_check and
    extract_ipc_witness solve it once per r, and it does not depend on r."""
    solve, last = criteria.partner_sup, {}

    def cached(rho):
        if last.get("rho") is not rho:
            last.update(rho=rho, sup=solve(rho))
        return last["sup"]

    monkeypatch.setattr(criteria, "partner_sup", cached)


def random_product_pure(d_a, d_b, rng):
    a = rng.standard_normal(d_a) + 1j * rng.standard_normal(d_a)
    b = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
    v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    return v


def random_separable(d_a, d_b, rng, n_terms=None):
    """Dirichlet mixture of random product pure states; Schmidt number 1."""
    if n_terms is None:
        n_terms = 2 * d_a * d_b
    weights = rng.dirichlet(np.ones(n_terms))
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for w in weights:
        v = random_product_pure(d_a, d_b, rng)
        m += w * np.outer(v, v.conj())
    return QState((d_a, d_b), m)


def random_low_schmidt_pure(d_a, d_b, r, rng):
    """Random pure state with Schmidt rank <= r (truncated Schmidt series)."""
    g = rng.standard_normal(d_a * d_b) + 1j * rng.standard_normal(d_a * d_b)
    v = PureVec((d_a, d_b), g / np.linalg.norm(g))
    sd = schmidt_decompose(v)
    keep = min(r, sd.rank)
    weights = np.sqrt(sd.coeffs[:keep])
    mat = (sd.left_vecs[:, :keep] * weights) @ sd.right_vecs[:, :keep].T
    vec = mat.reshape(-1)
    return vec / np.linalg.norm(vec)


def random_low_schmidt_mixture(d_a, d_b, r, rng, n_terms=None):
    """Dirichlet mixture of Schmidt-rank <= r pure states; SN <= r by construction."""
    if n_terms is None:
        n_terms = 2 * d_a * d_b
    weights = rng.dirichlet(np.ones(n_terms))
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for w in weights:
        v = random_low_schmidt_pure(d_a, d_b, r, rng)
        m += w * np.outer(v, v.conj())
    return QState((d_a, d_b), m)


def random_tripartite_separable(dims, rng, n_terms=None):
    """Fully separable mixture of tripartite product pure states."""
    if n_terms is None:
        n_terms = 2 * int(np.prod(dims))
    weights = rng.dirichlet(np.ones(n_terms))
    total = int(np.prod(dims))
    m = np.zeros((total, total), dtype=complex)
    for w in weights:
        v = np.ones(1, dtype=complex)
        for d in dims:
            f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v = np.kron(v, f / np.linalg.norm(f))
        m += w * np.outer(v, v.conj())
    return QState(tuple(dims), m)
