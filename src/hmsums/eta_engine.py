"""Eta-type exponential series and transformation defects.

For a point z = (z_1, ..., z_n) in the product of upper half-planes, the
engine evaluates an exponential lattice series Omega_j(z), whose xi-sum and
divisor weights (_xi_chunks, _sigma_table) also serve the Eisenstein series
E_F of lfunctions, and from it the log-eta-type function

    Lambda_j(z) = i*pi*kappa_F * z_j * prod_{k != j} y_k
                  - (sqrt(d_F) / (2 R_F)) * Omega_j(z).

In degree 1 (D = 1) this is exactly ln(eta(z)) for the Dedekind eta function,
which serves as the exact cross-check of all conventions.

The transformation defect of Lambda_j under a determinant-1 matrix A is
purely imaginary up to a closed logarithmic term; its normalized imaginary
part phi_j(A) is a rational-valued cocycle on the matrix group (an analogue
of the Rademacher function, which it reproduces, divided by 12, in degree 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .field_arith import FieldData, InvalidInput, ModMatrix, kronecker
from .unit_domain import (CapExceeded, TruncationParams, _expand_rows,
                          _half_diamond_rows, _norms)

TWO_PI = 2.0 * math.pi


def check_uhp(field: FieldData, z: tuple) -> tuple:
    z = tuple(complex(w) for w in z)
    if len(z) != field.n or not all(w.imag > 0 for w in z):
        raise InvalidInput(f"need {field.n} points in the upper half-plane, "
                           f"got {z}")
    return z


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_estimate: float        # heuristic bound on the truncation error
    n_terms: int


def _insert(z_hat: tuple, j: int, zj: complex) -> tuple:
    """The point with off-components z_hat and component zj at index j."""
    return z_hat[:j] + (zj,) + z_hat[j:]


def _y_rest(z_hat: tuple) -> float:
    """prod_{k != j} y_k: the product of the heights of the off-components."""
    return math.prod(w.imag for w in z_hat)


# (D, ws) -> (X, start, sigs, r): the tables of _sigma_table.
_SIGMA: dict = {}


def _geom(p, e):
    """1 + p + ... + p^e (e may be an integer array), exact for integral p."""
    return e + 1 if p == 1 else (p ** (e + 1) - 1) / (p - 1)


def _prime_powers(g: int):
    """(p, v_p(g)) for the primes p dividing g, by trial division."""
    p = 2
    while g > 1:
        p, k = (p if p * p <= g else g), 0
        while g % p == 0:
            g, k = g // p, k + 1
        if k:
            yield p, k
        p += 1


def _sigma_table(field: FieldData, ws: tuple, X: int,
                 cap: float = math.inf) -> tuple:
    """(start, sigs, r) for every m in O_F with N = |N(m)| <= X and content
    g (1 over Q): sigs[i][start[g] + N // g^2] = sigma_w((m)), the sum of
    N(b)^w over the ideals b | (m), for w = ws[i] <= 0, and r[n] = sum_{d|n}
    chi(d), the number of ideals of norm n (1 over Q).  N and g fix (m) up
    to conjugating split primes.  A larger X rebuilds the table at
    min(max(X, twice the old), cap).

    One float sieve over the divisor pairs N = k e, k <= e, sums k^t and
    chi(k) + chi(e): t = -w for -1 <= w <= 0, exact integers at w = 0, -1,
    so sigma_w = sigma_t N^w is rounded once; t = w below -1, where k^-w
    could overflow.  For p | g with chi(p) != 0, k = v_p(g), n = v_p(N) and
    P = p^t, the factor _geom(P, n) becomes _geom(P, k) _geom(P, n-k) for
    split p and _geom(P^2, k) for inert p; P and 1/P give the same ratio.
    """
    key = (field.D, tuple(float(w) for w in ws))
    table = _SIGMA.get(key)
    if table is not None and table[0] >= X:
        return table[1:]
    X = max(X, 1) if table is None else int(min(max(X, 2 * table[0]), cap))
    d_F, G, ints = field.d_F, math.isqrt(X), np.arange(X + 1)
    ts = [-w if w >= -1 else w for w in key[1]]
    pws = [np.maximum(ints, 1) ** t for t in ts]      # pw[0] unused
    chi = np.resize([kronecker(d_F, a or d_F) for a in range(d_F)], X + 1)
    sums, r = [np.zeros(X + 1) for _ in ts], np.zeros(X + 1, dtype=np.int64)
    for k in range(1, G + 1):                   # N = k e for e = k..X//k
        for acc, pw in zip(sums, pws):
            acc[k * k::k] += pw[k] + pw[k:X // k + 1]
            acc[k * k] -= pw[k]                 # N = k^2 counted once
        r[k * k::k] += chi[k] + chi[k:X // k + 1]
        r[k * k] -= chi[k]
    if field.n == 1:
        r[1:] = 1
    G = G if field.n == 2 else 1                # content 1 over Q
    start = np.concatenate(([0, 0], np.cumsum(X // ints[1:G + 1] ** 2 + 1)))
    sigs = [np.zeros(start[-1]) for _ in ts]
    local = {}      # p -> (v_p(q) for q <= X/p^2, [(P, _geom(P, v)) per t])
    for g in range(1, G + 1):
        M = X // (g * g)
        N = g * g * ints[1:M + 1]
        vals = [acc[N] for acc in sums]
        for p, k in _prime_powers(g):
            if not chi[p]:
                continue
            if p not in local:
                vq, pk = np.zeros(X // (p * p), dtype=np.int64), p
                while pk <= vq.size:
                    vq[pk - 1::pk] += 1
                    pk *= p
                e = np.arange(int(math.log(X, p)) + 2)
                local[p] = vq, [(P, _geom(P, e))
                                for P in (float(p) ** t for t in ts)]
            vq, geoms = local[p]
            n = vq[:M] + 2 * k                  # v_p(N)
            for i, (P, f) in enumerate(geoms):
                vals[i] = vals[i] / f[n] * (
                    f[k] * f[n - k] if chi[p] > 0 else _geom(P * P, k))
        for sig, val, w, t in zip(sigs, vals, key[1], ts):
            sig[start[g] + 1:start[g + 1]] = val if t == w else val / N ** t
    _SIGMA[key] = (X, start, sigs, r)
    return start, sigs, r


def _xi_chunks(field: FieldData, y, j: int, B: float, max_terms: int):
    """The xi in delta^-1 with xi_j > 0 and w = 2 pi sum_k y_k |xi_k| <= B,
    of Omega and E_F's Fourier sum, per chunk as (xi, w, g, N): the arrays
    xi_k, and the content g and N = |N(m)| of m = xi*delta (_sigma_table).

    The m form the half-diamond 2 pi (y_1|m_1/delta_1| + y_2|m_2/delta_2|)
    <= B, sign(delta_j) m_j > 0 (unit_domain._half_diamond_rows); over Q,
    the row m = 1..floor(B/(2 pi y)) (Python floats: inf at tiny y), capped
    at max_terms + 1.  Float tests decide each term.  Raises CapExceeded,
    before expanding any point, for more than max_terms candidates.
    """
    d_embs = field.different.embeddings()
    if field.n == 1:
        top = math.floor(min(B / (TWO_PI * float(y[0])), max_terms + 1))
        rows = [np.array([v], dtype=np.int64) for v in (0, 0, 1, top)]
    else:
        scale = [[TWO_PI * yk / abs(dk)] for yk, dk in zip(y, d_embs)]
        rows = _half_diamond_rows(field.w_embs, *np.array(scale),
                                  np.sign([d_embs[j]]), j, B)
    n_cand = int(np.maximum(rows[3] - rows[2] + 1, 0).sum())
    if n_cand > max_terms:
        raise CapExceeded(f"series exceeds term cap: {n_cand} candidates")
    for _, a, b in _expand_rows(*rows):
        xi = [(a + b * wk) / dk for wk, dk in zip(field.w_embs, d_embs)]
        w = TWO_PI * sum(yk * np.abs(xk) for yk, xk in zip(y, xi))
        keep = np.nonzero((w <= B) & (xi[j] > 0))[0]
        a, b = a[keep], b[keep]
        g, N = (1, a) if field.n == 1 else \
            (np.gcd(a, b), np.abs(_norms(field, a, b)))
        yield [xk[keep] for xk in xi], w[keep], g, N


def omega(field: FieldData, z: tuple, j: int,
          trunc: TruncationParams = TruncationParams()) -> SeriesValue:
    """The exponential series Omega_j(z): over nu in (O_F \\ 0)/U_F^+,
    weighted by 1/([U_F:U_F^+] |N(nu)|), and mu in O_F \\ 0 with xi_j > 0,
    xi = mu*nu/delta, the sum of e(xi, z) = exp(2*pi*i * sum_k xi_k x_k - w),
    w = 2*pi * sum_k |xi_k| y_k, truncated at w <= B = weight_bound.

    A term depends on xi alone, and the pairs with mu*nu = m = xi*delta are
    [U_F:U_F^+] per ideal divisor (nu) of (m) (class number 1; AM-GM keeps
    |N(nu)| <= |N(m)| under the norm cap X).  Hence, as ln eta(z) =
    pi*i*z/12 - sum_n sigma_{-1}(n) q^n (Kronecker's limit formula; Siegel,
    Advanced Analytic Number Theory, ch. II; Zagier, Math. Ann. 213, 1975),

        Omega_j(z) = sum_{xi in delta^-1, xi_j > 0, w <= B}
                         sigma_{-1}((xi*delta)) e(xi, z),

    and n_terms, the pairs, is [U_F:U_F^+] sum tau((xi*delta)).  Raises
    CapExceeded for more candidates or pairs than max_terms.
    """
    z = check_uhp(field, z)
    B, idx, cap = trunc.weight_bound, field.unit_index, trunc.max_terms
    x, y = [w.real for w in z], [w.imag for w in z]
    X = math.floor(min(B / (TWO_PI * y[0]), cap + 1) if field.n == 1 else
                   (B / (4 * math.pi)) ** 2 * field.d_F / (y[0] * y[1]))
    total, n_terms = 0j, 0
    for xi, w, g, nrm in _xi_chunks(field, y, j, B, cap):
        start, (sig, tau), _ = _sigma_table(field, (-1, 0),
                                            int(nrm.max(initial=X)))
        key = start[g] + nrm // (g * g)
        n_terms += idx * int(tau[key].sum())
        if n_terms > cap:
            raise CapExceeded("series exceeds term cap")
        phase = TWO_PI * sum(xk * xr for xk, xr in zip(xi, x))
        total += complex(np.sum(sig[key] * np.exp(1j * phase - w)))
    # Dropped terms per nu of norm n: over Q the mu past B; in degree 2 about
    # 2(B+s)/(alpha*beta) in the weight shell [B+s, B+s+1), alpha*beta =
    # 4 pi^2 y_1 y_2 n/d_F.  The nu past the norm cap add e^-B at most each.
    n = np.arange(1, X + 1)
    count = idx * _sigma_table(field, (-1, 0), X)[2][1:X + 1]  # nu of norm n
    dens, shell = (2.0 / (1 - np.exp(-TWO_PI * y[0] * n)), 1.0) \
        if field.n == 1 else (2.0 * (B + 2.0) * field.d_F / (
            TWO_PI ** 2 * y[0] * y[1] * n) + 4.0, 1 - math.exp(-1.0))
    tail = float(np.sum(count * dens / (idx * n))) * math.exp(-B) / shell \
        + math.exp(-B) * max(1, int(count.sum()))
    return SeriesValue(total, tail, n_terms)


def lam(field: FieldData, z: tuple, j: int = 0,
        trunc: TruncationParams = TruncationParams()) -> complex:
    """Log-eta-type function Lambda_j(z); equals ln(eta(z)) when n = 1."""
    z = check_uhp(field, z)
    om = omega(field, z, j, trunc)
    return (1j * math.pi * field.kappa * z[j] * _y_rest(z[:j] + z[j + 1:])
            - math.sqrt(field.d_F) / (2 * field.R_F) * om.value)


def h_func(field: FieldData, z: tuple, j: int = 0,
           trunc: TruncationParams = TruncationParams()) -> float:
    """The real-analytic invariant h_j(z) = -4 Re Lambda_j(z)."""
    return -4.0 * lam(field, z, j, trunc).real


def delta_cocycle(field: FieldData, A: ModMatrix, z: tuple, j: int = 0,
                  trunc: TruncationParams = TruncationParams()) -> complex:
    """Transformation defect of Lambda_j under A (for c != 0):

    Lambda_j(Az) - Lambda_j(z)
        - (1/4) [ Log(-(c_j z_j + d_j)^2) + sum_{k != j} ln|c_k z_k + d_k|^2 ].

    The result is purely imaginary up to series truncation error; its
    imaginary part over pi is the cocycle value, which depends on A and on
    the components (z_k)_{k != j} only.
    """
    z = check_uhp(field, z)
    if not A.c:
        raise InvalidInput("the defect formula requires c != 0")
    Az = tuple(A.moebius(k, z[k]) for k in range(field.n))
    cj, dj = A.c.emb(j), A.d.emb(j)
    log_term = 0.25 * cmath.log(-((cj * z[j] + dj) ** 2))
    for k in range(field.n):
        if k != j:
            ck, dk = A.c.emb(k), A.d.emb(k)
            log_term += 0.25 * math.log(abs(ck * z[k] + dk) ** 2)
    return lam(field, Az, j, trunc) - lam(field, z, j, trunc) - log_term


def area_cocycle(A: ModMatrix, B: ModMatrix, j: int = 0) -> int:
    """Exact area cocycle Delta(A, B) = -sign(c_j c'_j c''_j) in {-1, 0, 1},
    where c, c', c'' are the lower-left entries of A, B and AB.  It measures
    the branch mismatch in the cocycle relation:

        phi_j(AB, zh) = phi_j(A, B zh) + phi_j(B, zh) + (1/4) Delta(A, B).
    """
    def sgn(e):
        v = e.emb(j)
        return 0 if v == 0 else (1 if v > 0 else -1)

    return -(sgn(A.c) * sgn(B.c) * sgn((A * B).c))


def apex_point(field: FieldData, A: ModMatrix) -> tuple:
    """Evaluation point (-d_k/c_k + i/|c_k|)_k at which the closed log term
    of the transformation defect vanishes exactly."""
    if not A.c:
        raise InvalidInput("the apex point requires c != 0")
    pt = []
    for k in range(field.n):
        ck, dk = A.c.emb(k), A.d.emb(k)
        pt.append(-dk / ck + 1j / abs(ck))
    return tuple(pt)


def phi(field: FieldData, A: ModMatrix, z: tuple = None, j: int = 0,
        trunc: TruncationParams = TruncationParams()) -> float:
    """Rational-valued cocycle phi_j(A) (Rademacher function / 12 when n = 1).

    For matrices with c != 0 the value does not depend on z; the default
    evaluation point makes the logarithmic term vanish identically.  For
    upper-triangular matrices the closed form kappa * b_j d_j * prod y_k is
    used (z-dependent in degree 2, via the off-components of z only).
    """
    if not A.c:
        if z is None:
            z = tuple(1j for _ in range(field.n))
        z = check_uhp(field, z)
        bd = (A.b * A.d).emb(j)
        return field.kappa * bd * _y_rest(z[:j] + z[j + 1:])
    if z is None:
        z = apex_point(field, A)
    return delta_cocycle(field, A, z, j, trunc).imag / math.pi


# -- degree-1 closed forms ----------------------------------------------------

def classical_ln_eta(z: complex, terms: int = 400) -> complex:
    """ln eta(z) by the q-product, principal branches (Im z > 0)."""
    if not z.imag > 0:
        raise InvalidInput(f"need Im z > 0, got {z}")
    q = cmath.exp(2j * math.pi * z)
    s = 1j * math.pi * z / 12
    for m in range(1, terms + 1):
        s += cmath.log(1 - q ** m)
    return s


def classical_dedekind_s(d: int, c: int):
    """Classical Dedekind sum s(d, c) as an exact Fraction (c > 0).

    Sum of ((k/c))((kd/c)) over k mod c, with ((x)) the sawtooth; each term
    is (2k - c)(2m - c)/(4c^2) for m = kd mod c != 0, accumulated in
    integers."""
    from fractions import Fraction

    if not c > 0:
        raise InvalidInput(f"need c > 0, got {c}")
    num = 0
    for k in range(1, c):
        m = (k * d) % c
        if m:
            num += (2 * k - c) * (2 * m - c)
    return Fraction(num, 4 * c * c)


def classical_phi_R(A: ModMatrix):
    """Rademacher function on SL_2(Z), exact rational value."""
    from fractions import Fraction
    if A.field.n != 1:
        raise InvalidInput("the Rademacher function is defined over Q")
    a, b, c, d = A.a.a, A.b.a, A.c.a, A.d.a
    if c == 0:
        return Fraction(b, d)
    sc = 1 if c > 0 else -1
    return Fraction(a + d, c) - 12 * sc * classical_dedekind_s(d, abs(c))
