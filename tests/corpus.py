"""Random-state corpora shared by the criteria and acceptance tests."""

import numpy as np

from overlapcert import QState, criteria
from overlapcert.qmat import SCHMIDT_CUTOFF


def memoize_partner_sup(monkeypatch):
    """Make ``criteria.partner_sup`` keep its last answer: reduction_check and
    extract_ipc_witness solve it once per r, and it does not depend on r."""
    solve, last = criteria.partner_sup, {}

    def cached(rho):
        if last.get("rho") is not rho:
            last.update(rho=rho, sup=solve(rho))
        return last["sup"]

    monkeypatch.setattr(criteria, "partner_sup", cached)


def _unit(v):
    """Each row of the complex array v over its norm."""
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _gaussian_units(z):
    """Unit complex rows from the real and imaginary halves of each row of z."""
    half = z.shape[1] // 2
    return _unit(z[:, :half] + 1j * z[:, half:])


def _mixture(dims, weights, vecs):
    """QState sum_k w_k |v_k><v_k| of the rows v_k of vecs."""
    return QState(tuple(dims), (vecs.T * weights) @ vecs.conj())


def _product_pures(dims, n_terms, rng):
    """n_terms random product pure states on dims, one per row, from one
    draw that consumes the stream as term-by-term draws would: per term and
    factor, d real parts, then d imaginary parts."""
    z = rng.standard_normal((n_terms, 2 * sum(dims)))
    v = np.ones((n_terms, 1), dtype=complex)
    for f in np.split(z, 2 * np.cumsum(dims)[:-1], axis=1):
        v = (v[:, :, None] * _gaussian_units(f)[:, None, :]).reshape(n_terms, -1)
    return v


def random_separable(d_a, d_b, rng, n_terms=None):
    """Dirichlet mixture of random product pure states; Schmidt number 1."""
    if n_terms is None:
        n_terms = 2 * d_a * d_b
    weights = rng.dirichlet(np.ones(n_terms))
    return _mixture((d_a, d_b), weights, _product_pures((d_a, d_b), n_terms, rng))


def random_low_schmidt_mixture(d_a, d_b, r, rng, n_terms=None):
    """Dirichlet mixture of Schmidt-rank <= r pure states; SN <= r by
    construction.  Each term is a Gaussian vector's Schmidt series cut to
    its r largest terms (squared coefficients at or below SCHMIDT_CUTOFF
    dropped, as schmidt_decompose drops them) and renormalized; all terms
    are drawn at once and cut through one stacked SVD."""
    if n_terms is None:
        n_terms = 2 * d_a * d_b
    weights = rng.dirichlet(np.ones(n_terms))
    g = _gaussian_units(rng.standard_normal((n_terms, 2 * d_a * d_b)))
    u, s, vh = np.linalg.svd(g.reshape(n_terms, d_a, d_b), full_matrices=False)
    s = np.where(s * s > SCHMIDT_CUTOFF, s, 0.0)[:, :r]
    vecs = ((u[:, :, :r] * s[:, None, :]) @ vh[:, :r, :]).reshape(n_terms, -1)
    return _mixture((d_a, d_b), weights, _unit(vecs))


def random_tripartite_separable(dims, rng, n_terms=None):
    """Fully separable mixture of tripartite product pure states."""
    if n_terms is None:
        n_terms = 2 * int(np.prod(dims))
    weights = rng.dirichlet(np.ones(n_terms))
    return _mixture(dims, weights, _product_pures(dims, n_terms, rng))
