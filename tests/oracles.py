"""Slow reference routes to values the library computes, kept out of it.

weighted_lattice and eis_per_mu are the per-mu Poisson evaluation of the
Eisenstein series: for each unit-orbit representative mu != 0 the free
nu-sum runs over the frequencies xi' of the codifferent, one lattice
enumeration per mu.  The library sums the same frequencies once per
xi = mu xi', so the two agree term set for term set at equal weight bound.
eis_direct sums the defining lattice series itself over a box.
divmod_near_scan is field_arith.divmod_near on OFElem arithmetic and exact
Fractions.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gamma, kv

from hmsums.field_arith import (FieldData, InvalidInput, OFElem,
                                exact_quotient)
from hmsums.unit_domain import (CapExceeded, _box, _expand_rows, _lattice_boxes,
                                enumerate_unit_orbits)

TWO_PI = 2.0 * math.pi


def weighted_lattice(field: FieldData, alpha: float, beta: float,
                     bound: float, max_terms: int = 5_000_000) -> tuple:
    """All nonzero mu in O_F with alpha|mu_1| + beta|mu_2| <= bound, as
    numpy arrays (e1, e2, weight) of the embeddings and the weight."""
    if not (alpha > 0 and beta > 0):
        raise InvalidInput(f"need alpha, beta > 0, got {alpha}, {beta}")
    if field.n == 1:
        m = math.floor(bound / alpha)
        if m < 1:
            z = np.zeros(0)
            return z, z, z
        e = np.concatenate([np.arange(-m, 0), np.arange(1, m + 1)])
        return e.astype(float), e.astype(float), alpha * np.abs(e)
    A, B, e1, e2, _ = _box(field, bound / alpha, bound / beta, max_terms)
    w = alpha * np.abs(e1) + beta * np.abs(e2)
    mask = ((A != 0) | (B != 0)) & (w <= bound)
    return e1[mask], e2[mask], w[mask]


@lru_cache(maxsize=None)
def _unit_reps(field: FieldData, cap: float) -> tuple:
    """Embedding arrays of the (O_F \\ 0)/U_F representatives with
    |N| <= cap."""
    embs = np.array([r.embeddings() for r in enumerate_unit_orbits(field, cap)])
    return tuple(embs[:, k] for k in range(field.n))


def _ghat(s, h, xi, order):
    """2 pi^s/Gamma(s) h^(1/2-s) |xi|^(s-1/2) K_order(2 pi h |xi|): the
    Fourier transform of (t^2 + h^2)^-s at xi != 0 for order s - 1/2."""
    a = np.abs(xi)
    return (2 * math.pi ** s / gamma(s) * h ** (0.5 - s) * a ** (s - 0.5)
            * kv(order, TWO_PI * h * a))


def eis_per_mu(field: FieldData, z: tuple, s: float, j: int, bound: float,
               mu_cap: float) -> tuple:
    """(E_F(z, s), its Wirtinger z_j-derivative) as

        sum_{nu} N(y)^s / |N(nu)|^2s
        + sum_{mu} N(y)^s / sqrt(d_F) sum_{xi' in delta^-1} e(mu xi' x)
              prod_k ghat(s, |mu_k| y_k, xi'_k)

    over the representatives mu, nu of (O_F \\ 0)/U_F with |N| <= mu_cap,
    the frequencies xi' with 2 pi sum_k |mu_k xi'_k| y_k <= bound.

    Returns (value, dvalue, size, dsize): size and dsize are the sums of
    the absolute values of the terms summed for each, the scale of their
    rounding error when the terms cancel."""
    n = field.n
    x = np.array([w.real for w in z])
    y = np.array([w.imag for w in z])
    py = float(np.prod(y))
    d = np.array(field.different.embeddings())
    embs = _unit_reps(field, mu_cap)
    q0 = np.prod([np.abs(e) ** (2 * s) for e in embs], axis=0)
    e_nu = py ** s * float(np.sum(1.0 / q0))
    h = [np.abs(embs[k]) * y[k] for k in range(n)]
    g0 = np.prod([math.sqrt(math.pi) * gamma(s - 0.5) / gamma(s)
                  * hk ** (1 - 2 * s) for hk in h], axis=0)
    zero = py ** s / math.sqrt(field.d_F) * float(np.sum(g0))
    value = e_nu + zero
    dvalue = -0.5j * (s * e_nu + (1 - s) * zero) / y[j]
    size, dsize = value, 0.5 * (s * e_nu + abs(1 - s) * zero) / y[j]
    alpha = TWO_PI * h[0] / abs(d[0])
    beta = TWO_PI * h[-1] / abs(d[-1])
    # |N(xi' delta)| >= 1 and AM-GM: a mu with 4 alpha beta > bound^2 (alpha
    # > bound over Q) has no frequency within the bound
    reach = alpha if n == 1 else 2 * np.sqrt(alpha * beta)
    for i in np.nonzero(reach <= bound * (1 + 1e-12))[0]:
        e1, e2, _ = weighted_lattice(field, alpha[i], beta[i], bound)
        if e1.size == 0:
            continue
        mu = [embs[k][i] for k in range(n)]
        xis = [e / dk for e, dk in zip((e1, e2), d)]
        phase = np.exp(2j * math.pi * sum(mu[k] * x[k] * xis[k]
                                          for k in range(n)))
        gs = [_ghat(s, h[k][i], xis[k], s - 0.5) for k in range(n)]
        prod_g = np.prod(gs, axis=0)
        pref = py ** s / math.sqrt(field.d_F)
        contrib = pref * np.sum(phase * prod_g)
        value += contrib.real
        dx = pref * np.sum(TWO_PI * 1j * mu[j] * xis[j] * phase * prod_g)
        dg = -TWO_PI * np.abs(xis[j]) * _ghat(s, h[j][i], xis[j], s + 0.5)
        prod_dg = np.prod([dg if k == j else gs[k] for k in range(n)], axis=0)
        dy = s / y[j] * contrib \
            + pref * abs(mu[j]) * np.sum(phase * prod_dg)
        dvalue += 0.5 * (dx - 1j * dy)
        size += pref * np.sum(np.abs(prod_g))
        dsize += 0.5 * pref * np.sum(
            (TWO_PI * abs(mu[j] * xis[j]) + s / y[j]) * np.abs(prod_g)
            + abs(mu[j]) * np.abs(prod_dg))
    return value, dvalue, size, dsize


def eis_direct(field: FieldData, z: tuple, s: float, box: float = 60.0,
               max_terms: int = 20_000_000) -> tuple:
    """(E_F, dE_F/dz_1) by direct summation of the lattice series (slowly
    convergent), the derivative from its own termwise series:

        (s/2i) sum y_1^{s-1} (mu_1 conj(z_1) + nu_1)^2 / |mu_1 z_1 + nu_1|^{2s+2}
               * prod_{k>1} y_k^s / |mu_k z_k + nu_k|^{2s}.

    mu runs over the unit-orbit representatives with |N(mu)| <=
    (box / min y)^n.  For mu = 0, nu runs over the same representatives; for
    mu != 0, over the box |Re(mu_k z_k + nu_k)| <= box at every embedding
    (one _lattice_boxes batch).  More than max_terms pairs (mu, nu) raise
    CapExceeded.
    """
    z = tuple(complex(w) for w in z)
    n = field.n
    y = np.array([w.imag for w in z])
    py = float(np.prod(y))
    embs = np.array([r.embeddings()
                     for r in enumerate_unit_orbits(field, (box / y.min()) ** n)])
    # (0, nu)
    q0 = np.abs(embs) ** (2 * s)
    val = py ** s * float(np.sum(1.0 / q0.prod(1)))
    dval = (s / 2j) * y[0] ** (s - 1) * float(np.sum(
        1.0 / q0[:, 0] * (y[1:] ** s / q0[:, 1:]).prod(1)))
    # (mu, nu): one nu-box per mu, centred at -mu_k Re(z_k)
    ctr = -embs * np.array([w.real for w in z])
    lo, hi = ctr - box, ctr + box
    if n == 1:
        lo, hi = np.ceil(lo[:, 0]).astype(np.int64), \
            np.floor(hi[:, 0]).astype(np.int64)
        if (hi - lo + 1).sum() > max_terms:
            raise CapExceeded("direct-sum box too large")
        owner = np.arange(len(ctr))
        chunks = _expand_rows(owner, np.zeros_like(owner), lo, hi)
    else:
        chunks = _lattice_boxes(field.w_embs, lo[:, 0], hi[:, 0], lo[:, 1],
                                hi[:, 1], max_terms)
    step = 1 << 18                      # points per pass: small temporaries
    for chunk in chunks:
        for i in range(0, chunk[0].size, step):
            owner, a, b = (v[i:i + step] for v in chunk)
            f = [embs[owner, k] * z[k] + a + b * field.w_embs[k]
                 for k in range(n)]
            f2 = [fk.real ** 2 + fk.imag ** 2 for fk in f]
            ok = np.prod(f2, axis=0) > 1e-18
            f, f2 = [fk[ok] for fk in f], [fk[ok] for fk in f2]
            fs = [fk ** s for fk in f2]                 # |f_k|^2s
            val += py ** s * float(np.sum(1.0 / np.prod(fs, axis=0)))
            dterm = np.conj(f[0]) ** 2 / (f2[0] * fs[0])
            for k in range(1, n):
                dterm = dterm * (y[k] ** s / fs[k])
            dval += (s / 2j) * y[0] ** (s - 1) * np.sum(dterm)
    return val, dval


def divmod_near_scan(d: OFElem, c: OFElem) -> tuple:
    """field_arith.divmod_near on OFElem arithmetic: each of the 25
    quotients of the +-2 window around the floor of the Fraction quotient
    d/c, keyed by (|N(r)|, r.a^2 + r.b^2, q.a, q.b)."""
    F = d.field
    qa, qb = exact_quotient(d, c)
    base_a = math.floor(qa)
    base_b = math.floor(qb)
    best = None
    for da in range(-2, 3):
        for db in range(-2, 3):
            q = F.elem(base_a + da, base_b + db)
            r = d - c * q
            key = (abs(r.norm()), r.a * r.a + r.b * r.b, q.a, q.b)
            if best is None or key < best[0]:
                best = (key, q, r)
    return best[1], best[2]
