"""Fundamental-domain bookkeeping for unit-group actions on O_F.

The exponential series in this package run over orbits of O_F \\ {0} under
either the totally positive units U_F^+ or the full unit group U_F.  Orbits
are keyed by the balanced logarithmic coordinate t = ln|x_1| - ln|x_2|, which
a generator shifts by a fixed amount; a centered half-open window on t picks a
unique representative and keeps its two embeddings comparable in size, which
is what makes the box enumerations below small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field_arith import FieldData, OFElem

# Nudge for the floating-point window tests, so that elements landing exactly
# on the window boundary (units themselves) are classified consistently.
_EDGE = 1e-9


@dataclass(frozen=True)
class TruncationParams:
    """Cutoffs for the exponential series.

    weight_bound is the exponent cutoff: terms with decay exponent above it
    are dropped (e^-35 is below double-precision resolution relative to the
    leading terms).  max_terms caps the total lattice points per evaluation.
    """

    weight_bound: float = 35.0
    max_terms: int = 5_000_000

    def __post_init__(self):
        assert self.weight_bound > 0 and self.max_terms > 0


def log_ratio(x: OFElem) -> float:
    """ln|x_1| - ln|x_2|.  The smaller embedding a + b*w cancels badly in
    floating point, so it is taken from the exact norm as N(x)/x_big."""
    if x.field.n == 1:
        return 0.0
    e1, e2 = x.embeddings()
    if abs(e1) >= abs(e2):
        return 2 * math.log(abs(e1)) - math.log(abs(x.norm()))
    return math.log(abs(x.norm())) - 2 * math.log(abs(e2))


def tp_orbit_rep(x: OFElem) -> tuple:
    """Canonical representative of x * U_F^+, with the power of eta applied.

    Returns (rep, k) with rep = x * eta^k and log-ratio in [-L, L), where eta
    generates U_F^+ and L = ln eta_1.
    """
    assert x
    F = x.field
    if F.n == 1:
        return x, 0
    L = F.log_eta1
    t = log_ratio(x)
    k = -math.floor((t + L + _EDGE) / (2 * L))
    return x * F.tp_unit.pow(k), k


def unit_orbit_rep(x: OFElem) -> OFElem:
    """Canonical representative of x * U_F (full unit group, sign folded)."""
    assert x
    F = x.field
    if F.n == 1:
        return x if x.a > 0 else -x
    R = F.R_F
    t = log_ratio(x)
    k = -math.floor((t + R + _EDGE) / (2 * R))
    y = x * F.eps_fund.pow(k)
    return y if y.sign_emb(0) > 0 else -y


def _box(field: FieldData, M1: float, M2: float, max_terms: int) -> tuple:
    """Lattice points with |e1| <= M1, |e2| <= M2 (a parallelogram in the
    embedding plane), enumerated row by row in the second coordinate.

    Returns flattened int64 arrays (A, B) with embeddings and exact norms.
    """
    w1, w2 = field.w_embs
    Bb = math.floor((M1 + M2) / (w1 - w2)) + 1
    b = np.arange(-Bb, Bb + 1, dtype=np.int64)
    lo = np.ceil(np.maximum(-M1 - b * w1, -M2 - b * w2)).astype(np.int64)
    hi = np.floor(np.minimum(M1 - b * w1, M2 - b * w2)).astype(np.int64)
    cnt = np.maximum(hi - lo + 1, 0)
    total = int(cnt.sum())
    assert total <= max_terms, "lattice box too large"
    B = np.repeat(b, cnt)
    offs = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    A = np.arange(total, dtype=np.int64) - np.repeat(offs, cnt) + np.repeat(lo, cnt)
    e1 = A + B * w1
    e2 = A + B * w2
    if field.basis_half:
        nrm = A * A + A * B - B * B * ((field.D - 1) // 4)
    else:
        nrm = A * A - B * B * field.D
    return A, B, e1, e2, nrm


def enumerate_tp_orbits(field: FieldData, norm_bound: float,
                        max_terms: int = 5_000_000) -> list:
    """Representatives of (O_F \\ 0)/U_F^+ with |N(nu)| <= norm_bound.

    Both signs appear (U_F^+ does not contain -1); representatives have
    log-ratio in [-L, L).
    """
    X = math.floor(norm_bound)
    if X < 1:
        return []
    if field.n == 1:
        return [field.elem(v) for v in range(-X, X + 1) if v]
    L = field.log_eta1
    M = math.sqrt(X * math.exp(L)) * (1 + 1e-12)
    A, B, e1, e2, nrm = _box(field, M, M, max_terms)
    mask = (nrm != 0) & (np.abs(nrm) <= X)
    t = np.where(mask, np.log(np.abs(np.where(mask, e1, 1.0)))
                 - np.log(np.abs(np.where(mask, e2, 1.0))), 0.0)
    mask &= (t >= -L - _EDGE) & (t < L - _EDGE)
    return [field.elem(int(a), int(b)) for a, b in zip(A[mask], B[mask])]


def tp_orbit_arrays(field: FieldData, norm_bound: float,
                    max_terms: int = 5_000_000) -> tuple:
    """enumerate_tp_orbits as raw arrays (e1, e2, |norm|), skipping element
    construction; the series engines consume embeddings only."""
    assert field.n == 2
    X = math.floor(norm_bound)
    if X < 1:
        z = np.zeros(0)
        return z, z, z
    L = field.log_eta1
    M = math.sqrt(X * math.exp(L)) * (1 + 1e-12)
    _, _, e1, e2, nrm = _box(field, M, M, max_terms)
    mask = (nrm != 0) & (np.abs(nrm) <= X)
    t = np.where(mask, np.log(np.abs(np.where(mask, e1, 1.0)))
                 - np.log(np.abs(np.where(mask, e2, 1.0))), 0.0)
    mask &= (t >= -L - _EDGE) & (t < L - _EDGE)
    return e1[mask], e2[mask], np.abs(nrm[mask]).astype(float)


def enumerate_unit_orbits(field: FieldData, norm_bound: float,
                          max_terms: int = 5_000_000) -> list:
    """Representatives of (O_F \\ 0)/U_F with |N| <= norm_bound.

    Signs are folded: the first embedding of each representative is positive.
    """
    X = math.floor(norm_bound)
    if X < 1:
        return []
    if field.n == 1:
        return [field.elem(v) for v in range(1, X + 1)]
    R = field.R_F
    M = math.sqrt(X * math.exp(R)) * (1 + 1e-12)
    A, B, e1, e2, nrm = _box(field, M, M, max_terms)
    mask = (nrm != 0) & (np.abs(nrm) <= X) & (e1 > 0)
    t = np.where(mask, np.log(np.abs(np.where(mask, e1, 1.0)))
                 - np.log(np.abs(np.where(mask, e2, 1.0))), 0.0)
    mask &= (t >= -R - _EDGE) & (t < R - _EDGE)
    return [field.elem(int(a), int(b)) for a, b in zip(A[mask], B[mask])]


def _box_intervals(field: FieldData, lo1: float, hi1: float,
                   lo2: float, hi2: float, max_terms: int) -> list:
    """Lattice elements whose embeddings lie in [lo1, hi1] x [lo2, hi2]."""
    if lo1 > hi1 or lo2 > hi2:
        return []
    w1, w2 = field.w_embs
    span = w1 - w2
    b_lo = math.ceil((lo1 - hi2) / span)
    b_hi = math.floor((hi1 - lo2) / span)
    out = []
    for b in range(b_lo, b_hi + 1):
        a_lo = math.ceil(max(lo1 - b * w1, lo2 - b * w2))
        a_hi = math.floor(min(hi1 - b * w1, hi2 - b * w2))
        for a in range(a_lo, a_hi + 1):
            out.append(field.elem(a, b))
            assert len(out) <= max_terms, "lattice box too large"
    return out


def _box_arrays(field: FieldData, lo1: float, hi1: float,
                lo2: float, hi2: float, max_terms: int) -> tuple:
    """Vectorized _box_intervals: int64 coordinate arrays (a, b)."""
    if lo1 > hi1 or lo2 > hi2:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    w1, w2 = field.w_embs
    span = w1 - w2
    b = np.arange(math.ceil((lo1 - hi2) / span),
                  math.floor((hi1 - lo2) / span) + 1, dtype=np.int64)
    lo = np.ceil(np.maximum(lo1 - b * w1, lo2 - b * w2)).astype(np.int64)
    hi = np.floor(np.minimum(hi1 - b * w1, hi2 - b * w2)).astype(np.int64)
    cnt = np.maximum(hi - lo + 1, 0)
    total = int(cnt.sum())
    assert total <= max_terms, "lattice box too large"
    B = np.repeat(b, cnt)
    offs = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    A = np.arange(total, dtype=np.int64) - np.repeat(offs, cnt) \
        + np.repeat(lo, cnt)
    return A, B


def enumerate_module_orbits(data, norm_bound: float,
                            max_terms: int = 5_000_000) -> list:
    """Representatives of nonzero (M \\ 0)/U for the rank-2 module
    M = O_F + omega*O_F attached to quasi-elliptic data, where the unit
    group U is generated by -1, the fundamental unit of F (acting as a
    scalar) and the relative unit eps (acting through the matrix).

    Returns a list of (m, n) pairs of O_F-elements (beta = m + n*omega)
    with |N(beta)| <= norm_bound, one per orbit.  Orbits are keyed by two
    log coordinates: u = ln|beta_r1/beta_r2| (shifted by eps only) and,
    in degree 2, v = ln|beta_r1*beta_r2| - ln|beta_c|^2 (shifted by the
    F-units only); half-open centered windows pick the representative, and
    the sign is folded by requiring beta_r1 > 0.
    """
    F = data.field
    X = math.floor(norm_bound)
    if X < 1:
        return []
    T = math.log(X)
    Wu = abs(math.log(abs(data.eps_r1)))
    r1, r2 = data.omega_r1, data.omega_r2
    if F.n == 1:
        t_max = (T + Wu) / 2
        M1 = M2 = math.exp(t_max) * (1 + 1e-12)
        n_cap = int((M1 + M2) / (r1 - r2)) + 1
        out = []
        for nb in range(-n_cap, n_cap + 1):
            lo = max(-nb * r1 - M1, -nb * r2 - M2)
            hi = min(-nb * r1 + M1, -nb * r2 + M2)
            for ma in range(math.ceil(lo), math.floor(hi) + 1):
                m, n = F.elem(ma), F.elem(nb)
                if not m and not n:
                    continue
                b1, b2, _ = data.beta_embs(m, n)
                if b1 <= 0:
                    continue
                if abs(data.norm_beta(m, n)) > X:
                    continue
                u = math.log(abs(b1)) - math.log(abs(b2))
                if -Wu - _EDGE <= u < Wu - _EDGE:
                    out.append((m, n))
                    assert len(out) <= max_terms
        return out
    Wv = 2 * F.R_F
    S = (T + Wv) / 2
    M1 = M2 = math.exp((S + Wu) / 2) * (1 + 1e-12)
    M3 = math.exp(S / 2) * (1 + 1e-12)
    wc = data.omega_c[0]
    k_off = 1 - data.j
    n_box = _box_intervals(
        F if data.j == 0 else F,
        *((-(M1 + M2) / (r1 - r2), (M1 + M2) / (r1 - r2),
           -M3 / wc.imag, M3 / wc.imag) if data.j == 0 else
          (-M3 / wc.imag, M3 / wc.imag,
           -(M1 + M2) / (r1 - r2), (M1 + M2) / (r1 - r2))),
        max_terms)
    A = data.A
    cn = abs(A.c.norm())
    w_j, w_k = F.w_embs[data.j], F.w_embs[k_off]
    cj, ck = A.c.emb(data.j), A.c.emb(k_off)
    pj, pk = (A.a - A.d).emb(data.j), (A.a - A.d).emb(k_off)
    qj, qk = A.b.emb(data.j), A.b.emb(k_off)
    out = []
    for n in n_box:
        nj, nk = n.emb(data.j), n.emb(k_off)
        lo_j = max(-nj * r1 - M1, -nj * r2 - M2)
        hi_j = min(-nj * r1 + M1, -nj * r2 + M2)
        lo_k = -nk * wc.real - M3
        hi_k = -nk * wc.real + M3
        iv = (lo_j, hi_j, lo_k, hi_k) if data.j == 0 else \
            (lo_k, hi_k, lo_j, hi_j)
        ma, mb = _box_arrays(F, *iv, max_terms=max_terms)
        if ma.size == 0:
            continue
        mj = ma + mb * w_j
        mk = ma + mb * w_k
        b1 = mj + nj * r1
        b2 = mj + nj * r2
        bc2 = np.abs(mk + nk * wc) ** 2
        # float image of N(beta): N_F(c N_rel(beta)) / N_F(c)
        rel_j = cj * mj * mj + pj * mj * nj - qj * nj * nj
        rel_k = ck * mk * mk + pk * mk * nk - qk * nk * nk
        nrm = rel_j * rel_k / cn
        mask = (b1 > 0) & (np.abs(b2) <= M2) & (np.sqrt(bc2) <= M3) \
            & (np.abs(nrm) <= X * (1 + 1e-9)) & (np.abs(nrm) > 1e-9)
        if not mask.any():
            continue
        u = np.log(b1[mask]) - np.log(np.abs(b2[mask]))
        v = np.log(b1[mask] * np.abs(b2[mask])) - np.log(bc2[mask])
        ok = (u >= -Wu - _EDGE) & (u < Wu - _EDGE) \
            & (v >= -Wv - _EDGE) & (v < Wv - _EDGE)
        for a, b in zip(ma[mask][ok], mb[mask][ok]):
            m = F.elem(int(a), int(b))
            if abs(data.norm_beta(m, n)) <= X:   # exact boundary check
                out.append((m, n))
                assert len(out) <= max_terms
    return out


def _eps_action(data, m: OFElem, n: OFElem, k: int) -> tuple:
    """Coordinates of eps^k * (m + n*omega): since eps*omega = a*omega + b
    and eps = c*omega + d, one step maps (m, n) -> (d*m + b*n, c*m + a*n)."""
    A = data.A if k >= 0 else data.A.inv()
    for _ in range(abs(k)):
        m, n = A.d * m + A.b * n, A.c * m + A.a * n
    return m, n


def module_orbit_rep(data, m: OFElem, n: OFElem) -> tuple:
    """Canonical representative of the U-orbit of beta = m + n*omega, in the
    same half-open log windows used by enumerate_module_orbits; idempotent."""
    assert m or n
    F = data.field
    Wu = abs(math.log(abs(data.eps_r1)))
    b1, b2, _ = data.beta_embs(m, n)
    u = math.log(abs(b1)) - math.log(abs(b2))
    step = 2 * math.log(abs(data.eps_r1))  # u-shift of one power of eps
    k = -math.floor((u + Wu + _EDGE) / abs(step))
    if step < 0:
        k = -k
    m, n = _eps_action(data, m, n, k)
    if F.n == 2:
        Wv = 2 * F.R_F
        b1, b2, rest = data.beta_embs(m, n)
        v = math.log(abs(b1 * b2)) - 2 * math.log(abs(rest[0]))
        shift = 4 * math.log(abs(F.eps_fund.emb(data.j)))  # v-shift of eps_F
        l = -math.floor((v + Wv + _EDGE) / abs(shift))
        if shift < 0:
            l = -l
        e = F.eps_fund.pow(l)
        m, n = e * m, e * n
    b1, _, _ = data.beta_embs(m, n)
    if b1 < 0:
        m, n = -m, -n
    return m, n


def weighted_lattice(field: FieldData, alpha: float, beta: float,
                     bound: float, max_terms: int = 5_000_000) -> tuple:
    """All nonzero mu in O_F with alpha|mu_1| + beta|mu_2| <= bound.

    Returns numpy arrays (e1, e2, weight) of the embeddings and the weight
    alpha|mu_1| + beta|mu_2|.  Used as the inner loop of the exponential
    series, so it returns raw arrays instead of element objects.
    """
    assert alpha > 0 and beta > 0
    if field.n == 1:
        m = math.floor(bound / alpha)
        if m < 1:
            z = np.zeros(0)
            return z, z, z
        e = np.concatenate([np.arange(-m, 0), np.arange(1, m + 1)]).astype(float)
        return e, e, alpha * np.abs(e)
    A, B, e1, e2, _ = _box(field, bound / alpha, bound / beta, max_terms)
    w = alpha * np.abs(e1) + beta * np.abs(e2)
    mask = ((A != 0) | (B != 0)) & (w <= bound)
    return e1[mask], e2[mask], w[mask]
