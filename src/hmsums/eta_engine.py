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

from .field_arith import (FieldData, InvalidInput, ModMatrix, check_field,
                          kronecker)
from .unit_domain import (CapExceeded, TruncationParams, _expand_rows,
                          _half_diamond_rows)

TWO_PI = 2.0 * math.pi


def check_j(field: FieldData, j: int) -> None:
    if not 0 <= j < field.n:
        raise InvalidInput(f"need 0 <= j < {field.n}, got j={j}")


def check_uhp(field: FieldData, z: tuple, j: int) -> tuple:
    check_j(field, j)
    z = tuple(complex(w) for w in z)
    if not (len(z) == field.n and all(w.imag > 0 for w in z)):
        raise InvalidInput(f"need {field.n} upper half-plane points, got {z}")
    return z


@dataclass(frozen=True)
class SeriesValue:
    """A truncated series: its value, a heuristic tail bound, terms summed."""

    value: complex
    tail_error: float
    n_terms: int


def _insert(z_hat: tuple, j: int, zj: complex) -> tuple:
    """The point with off-components z_hat and component zj at index j."""
    return z_hat[:j] + (zj,) + z_hat[j:]


def _off_indices(n: int, j: int) -> list:
    """The embedding indices k != j of the off-components, in order."""
    return [k for k in range(n) if k != j]


def _y_rest(z_hat: tuple) -> float:
    """prod_{k != j} y_k: the product of the heights of the off-components."""
    return math.prod(w.imag for w in z_hat)


# (D, ws) -> (X, start, sigs, r, r_sums): the tables of _sigma_table.
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
    """(start, sigs, r) of _sigma_entry."""
    return _sigma_entry(field, ws, X, cap)[1:4]


def _sigma_entry(field: FieldData, ws: tuple, X: int,
                 cap: float = math.inf) -> tuple:
    """(X, start, sigs, r, r_sums) for every m in O_F with N = |N(m)| <= X
    and content g (1 over Q): sigs[i][start[g] + N // g^2] = sigma_w((m)),
    the sum of N(b)^w over the ideals b | (m), for w = ws[i] <= 0, and
    r[n] = sum_{d|n} chi(d), the number of ideals of norm n (1 over Q).
    N and g fix (m) up to conjugating split primes.  r_sums are the prefix
    sums of r(n)/n^k, k = 2, 1, 0, for Omega's tail (_prefix_sums).  A
    larger X rebuilds the table at min(max(X, twice the old), cap); a hit
    is one dict lookup (ws of ints find the entry of the equal floats).

    One float sieve over the divisor pairs N = k e, k <= e, sums k^t and
    chi(k) + chi(e): t = -w for -1 <= w <= 0, exact integers at w = 0, -1,
    so sigma_w = sigma_t N^w is rounded once; t = w below -1, where k^-w
    could overflow.  For p | g with chi(p) != 0, k = v_p(g), n = v_p(N) and
    P = p^t, the factor _geom(P, n) becomes _geom(P, k) _geom(P, n-k) for
    split p and _geom(P^2, k) for inert p; P and 1/P give the same ratio.
    """
    table = _SIGMA.get((field.D, ws))
    if table is not None and table[0] >= X:
        return table
    key = (field.D, tuple(float(w) for w in ws))
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
    _SIGMA[key] = table = (X, start, sigs, r, _prefix_sums(r, ints))
    return table


def _prefix_sums(r: np.ndarray, ints: np.ndarray) -> tuple:
    """(O, W, R0) with sum_{n' <= n} r(n')/n'^k = O[2 - k, n >> 3] +
    W[2 - k, n] for k = 2, 1 and R0[n] = sum_{n' <= n} r(n'), for Omega's
    tail; ints = 0, 1, ..., r.size - 1.  W sums the float terms within
    blocks of 8 entries and O the blocks before, in np.longdouble: each
    float sum adds at most 8 terms, so it stays within 8 ulps of its exact
    value (the terms are >= 0), where one float cumsum drifts to 2e-14 over
    1e5 terms.  The buffers are few: each new array of the table's length
    costs page faults comparable to computing it."""
    n = r.size
    W = np.zeros((2, -(-n // 8) * 8))
    pos = ints > 0
    np.divide(r, ints, out=W[1, :n], where=pos)
    np.divide(W[1, :n], ints, out=W[0, :n], where=pos)
    blocks = W.reshape(2, -1, 8)
    for i in range(1, 8):
        blocks[:, :, i] += blocks[:, :, i - 1]
    O = np.zeros(blocks.shape[:2], dtype=np.longdouble)
    np.cumsum(blocks[:, :-1, 7], axis=1, dtype=np.longdouble, out=O[:, 1:])
    return O, W, np.cumsum(r)


def _dot(c: list, v: list):
    """c_1 v_1 + c_2 v_2 (c_1 v_1 in degree 1) for floats c_k and arrays
    v_k."""
    return c[0] * v[0] if len(c) == 1 else c[0] * v[0] + c[1] * v[1]


def _xi_chunks(field: FieldData, y, j: int, B: float, max_terms: int):
    """The xi in delta^-1 with xi_j > 0 and w = 2 pi sum_k y_k |xi_k| <= B,
    of Omega and E_F's Fourier sum, per chunk as (xi, w, g, N): the arrays
    xi_k, and the content g and N = |N(m)| of m = xi*delta (_sigma_table).

    The m form the half-diamond 2 pi (y_1|m_1/delta_1| + y_2|m_2/delta_2|)
    <= B, sign(delta_j) m_j > 0, whose rows for the one point y come from
    unit_domain._half_diamond_rows; over Q, the row m = 1..floor(B/(2 pi y))
    (Python floats: inf at tiny y), capped at max_terms + 1.
    unit_domain._expand_rows expands the rows, in one chunk unless they
    hold more than _CHUNK candidates.  Float tests decide each term.
    Raises CapExceeded when called, before any point is expanded, for more
    than max_terms rows or candidates; the chunks come from the returned
    iterator.
    """
    d_embs, w_embs = field.different_embs, field.w_embs
    if field.n == 1:
        top = math.floor(min(B / (TWO_PI * float(y[0])), max_terms + 1))
        rows = np.array([[0], [1], [top]], dtype=np.int64)     # b, lo, hi
    else:
        rows = _half_diamond_rows(
            w_embs, TWO_PI * y[0] / abs(d_embs[0]),
            TWO_PI * y[1] / abs(d_embs[1]), math.copysign(1.0, d_embs[j]),
            j, B, max_terms)
    rows = _expand_rows(None, *rows, max_terms, "series exceeds term cap")

    def chunks():
        for _, a, b in rows:
            xi = [(a + b * wk) / dk for wk, dk in zip(w_embs, d_embs)]
            w = TWO_PI * _dot(y, [np.abs(xk) for xk in xi])
            keep = np.nonzero((w <= B) & (xi[j] > 0))[0]
            a, b = a[keep], b[keep]
            # gcd(b, a): |b| is mostly the smaller, which saves a step of
            # Euclid's algorithm per term
            g, N = (1, a) if field.n == 1 else \
                (np.gcd(b, a), np.abs(field.norm(a, b)))
            yield [xk[keep] for xk in xi], w[keep], g, N
    return chunks()


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

    The tail sums a density over the nu of norm n <= X.  In degree 2 it is
    a R2[X] + 4 R1[X] with the prefix sums of r(n)/n^2 and r(n)/n that
    _sigma_entry keeps beside r, so a call pays O(1) for it; over Q the
    density depends on y, and the n are summed directly.
    """
    z = check_uhp(field, z, j)
    B, idx, cap = trunc.weight_bound, field.unit_index, trunc.max_terms
    x, y = [w.real for w in z], [w.imag for w in z]
    chunks = _xi_chunks(field, y, j, B, cap)
    # the norm cap, finite once the candidates are within the cap
    X = math.floor(B / (TWO_PI * y[0]) if field.n == 1 else
                   (B / (4 * math.pi)) ** 2 * field.d_F / (y[0] * y[1]))
    total, n_terms = 0j, 0
    for xi, w, g, nrm in chunks:
        start, (sig, tau), _ = _sigma_table(field, (-1, 0),
                                            int(nrm.max(initial=X)))
        key = start[g] + nrm // (g * g)
        n_terms += idx * int(tau[key].sum())
        if n_terms > cap:
            raise CapExceeded("series exceeds term cap")
        phase = TWO_PI * _dot(x, xi)
        total += complex((sig[key] * np.exp(1j * phase - w)).sum())
    # Dropped terms per nu of norm n: over Q the mu past B; in degree 2 about
    # 2(B+s)/(alpha*beta) in the weight shell [B+s, B+s+1), alpha*beta =
    # 4 pi^2 y_1 y_2 n/d_F.  The nu past the norm cap add e^-B at most each.
    r, (O, W, r0) = _sigma_entry(field, (-1, 0), X)[3:]
    n_nu = idx * int(r0[X])                         # nu of norm <= X
    if field.n == 1:
        n = np.arange(1, X + 1)
        count = idx * r[1:X + 1]                    # nu of norm n
        dens = 2.0 / (1 - np.exp(-TWO_PI * y[0] * n))
        tail = float(np.sum(count * dens / (idx * n))) * math.exp(-B)
    else:
        a = 2.0 * (B + 2.0) * field.d_F / (TWO_PI ** 2 * y[0] * y[1])
        r2, r1 = O[:, X >> 3] + W[:, X]
        tail = float(a * r2 + 4.0 * r1) * math.exp(-B) / (1 - math.exp(-1.0))
    tail += math.exp(-B) * max(1, n_nu)
    return SeriesValue(total, tail, n_terms)


def lam(field: FieldData, z: tuple, j: int = 0,
        trunc: TruncationParams = TruncationParams()) -> complex:
    """Log-eta-type function Lambda_j(z); equals ln(eta(z)) when n = 1."""
    z = check_uhp(field, z, j)
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
    check_field(field, A)
    z = check_uhp(field, z, j)
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
    return -(A.c * B.c * (A * B).c).sign_emb(j)


def apex_point(field: FieldData, A: ModMatrix) -> tuple:
    """Evaluation point (-d_k/c_k + i/|c_k|)_k at which the closed log term
    of the transformation defect vanishes exactly."""
    if not A.c:
        raise InvalidInput("the apex point requires c != 0")
    return tuple(-dk / ck + 1j / abs(ck)
                 for ck, dk in zip(A.c.embeddings(), A.d.embeddings()))


def phi(field: FieldData, A: ModMatrix, z: tuple = None, j: int = 0,
        trunc: TruncationParams = TruncationParams()) -> float:
    """Rational-valued cocycle phi_j(A) (Rademacher function / 12 when n = 1).

    For matrices with c != 0 the value does not depend on z; the default
    evaluation point makes the logarithmic term vanish identically.  For
    upper-triangular matrices the closed form kappa * b_j d_j * prod y_k is
    used (z-dependent in degree 2, via the off-components of z only).
    """
    check_field(field, A)
    if not A.c:
        if z is None:
            z = tuple(1j for _ in range(field.n))
        z = check_uhp(field, z, j)
        bd = (A.b * A.d).emb(j)
        return field.kappa * bd * _y_rest(z[:j] + z[j + 1:])
    if z is None:
        z = apex_point(field, A)
    return delta_cocycle(field, A, z, j, trunc).imag / math.pi


# -- degree-1 closed forms ----------------------------------------------------

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
