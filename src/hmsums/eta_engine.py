"""Eta-type exponential series and transformation defects.

For a point z = (z_1, ..., z_n) in the product of upper half-planes, the
engine evaluates an exponential lattice series Omega_j(z) over orbits of
pairs (mu, nu) under the totally positive units, and from it the log-eta-type
function

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

from .field_arith import FieldData, ModMatrix
from .unit_domain import (CapExceeded, InvalidInput, TruncationParams,
                          _expand_rows, _half_diamond_rows,
                          enumerate_tp_orbits, tp_orbit_arrays,
                          weighted_lattice)

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


def omega(field: FieldData, z: tuple, j: int,
          trunc: TruncationParams = TruncationParams()) -> SeriesValue:
    """The exponential series Omega_j(z).

    Outer sum over nu in (O_F \\ 0)/U_F^+ weighted by 1/([U_F:U_F^+] |N(nu)|),
    inner sum over mu in O_F \\ 0 with (mu*nu/delta)_j > 0 of
    exp(2*pi*i * sum_k xi_k x_k - 2*pi * sum_k |xi_k| y_k), xi = mu*nu/delta.
    Truncated at decay exponent weight_bound.

    In degree 2 a term has weight alpha|mu_1| + beta|mu_2|, with
    alpha = 2 pi y_1 |nu_1/delta_1| and beta = 2 pi y_2 |nu_2/delta_2|.
    Each nu is balanced: nu*eta^k, eta the totally positive unit and
    k = -round(ln(alpha/beta)/(2 ln eta_1)), gives the same terms, because
    the inner sum runs over all mu and mu -> mu*eta^k is a bijection of
    O_F \\ 0; N(eta) = 1 keeps alpha*beta, the norm cap and the tail.  The
    kept mu = a + b*w form the half-diamond alpha|mu_1| + beta|mu_2| <= B,
    xi_j > 0.  Its rows b lie between its three vertices, since
    mu_1 - mu_2 = b(w_1 - w_2), and on each row the four constraints
    +-alpha mu_1 +- beta mu_2 <= B and the sign of mu_j bound a to one
    interval (unit_domain._half_diamond_rows).  The float tests w <= B and
    xi_j > 0 still decide each term.
    """
    z = check_uhp(field, z)
    n, B = field.n, trunc.weight_bound
    x = [w.real for w in z]
    y = [w.imag for w in z]
    d_embs = field.different.embeddings()
    idx = field.unit_index

    if n == 1:
        nu_cap = B / (TWO_PI * y[0])
        nus = enumerate_tp_orbits(field, nu_cap, trunc.max_terms)
        total = 0.0 + 0.0j
        tail = 0.0
        n_terms = 0
        for nu in nus:
            t0 = nu.emb(0) / d_embs[0]
            alpha = TWO_PI * y[0] * abs(t0)
            e1, _, w = weighted_lattice(field, alpha, 1.0, B, trunc.max_terms)
            xi1 = e1 * t0
            mask = xi1 > 0
            if not mask.any():
                continue
            terms = np.exp(1j * TWO_PI * xi1[mask] * x[0] - w[mask])
            total += complex(np.sum(np.sort_complex(terms))) \
                / (idx * abs(nu.norm()))
            n_terms += int(mask.sum())
            tail += 2.0 * math.exp(-B) / (1 - math.exp(-alpha)) \
                / (idx * abs(nu.norm()))
        tail += math.exp(-B) * max(1, len(nus))
        return SeriesValue(total, tail, n_terms)

    # degree 2: balance each nu by units, then expand its half-diamond
    nu_cap = (B / (4 * math.pi)) ** 2 * field.d_F / (y[0] * y[1])
    ne1, ne2, nrm = tp_orbit_arrays(field, nu_cap, trunc.max_terms)
    if ne1.size == 0:
        return SeriesValue(0.0 + 0.0j, math.exp(-B), 0)
    t1 = ne1 / d_embs[0]
    t2 = ne2 / d_embs[1]
    alpha = TWO_PI * y[0] * np.abs(t1)
    beta = TWO_PI * y[1] * np.abs(t2)
    # Dropped inner terms: lattice points of weight > B; the count in a unit
    # weight shell is about 2(B+s)/(alpha*beta) per orbit.  Orbits beyond the
    # norm cap have every term below e^-B already.
    dens = 2.0 * (B + 2.0) / (alpha * beta) + 4.0
    tail = float(np.sum(dens / (idx * nrm))) * math.exp(-B) \
        / (1 - math.exp(-1.0)) + math.exp(-B) * max(1, int(ne1.size))
    L = field.log_eta1
    g = np.exp(-np.round(np.log(alpha / beta) / (2 * L)) * L)   # eta_1^k
    t1, t2 = t1 * g, t2 / g
    rows = _half_diamond_rows(field.w_embs, alpha * g, beta / g,
                              np.sign(t1 if j == 0 else t2), j, B)
    w1, w2 = field.w_embs
    log_nrm = np.log(idx * nrm)
    total = 0.0 + 0.0j
    n_terms = 0
    for iv, a, b in _expand_rows(*rows):
        xi1 = (a + b * w1) * t1[iv]
        xi2 = (a + b * w2) * t2[iv]
        w = TWO_PI * (y[0] * np.abs(xi1) + y[1] * np.abs(xi2))
        keep = np.nonzero((w <= B) & ((xi1 if j == 0 else xi2) > 0))[0]
        n_terms += keep.size
        if n_terms > trunc.max_terms:
            raise CapExceeded("series exceeds term cap")
        phase = TWO_PI * (xi1[keep] * x[0] + xi2[keep] * x[1])
        total += complex(np.sum(np.exp(1j * phase - w[keep]
                                       - log_nrm[iv[keep]])))
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
    assert z.imag > 0
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

    assert c > 0
    num = 0
    for k in range(1, c):
        m = (k * d) % c
        if m:
            num += (2 * k - c) * (2 * m - c)
    return Fraction(num, 4 * c * c)


def classical_phi_R(A: ModMatrix):
    """Rademacher function on SL_2(Z), exact rational value."""
    from fractions import Fraction
    assert A.field.n == 1
    a, b, c, d = A.a.a, A.b.a, A.c.a, A.d.a
    if c == 0:
        return Fraction(b, d)
    sc = 1 if c > 0 else -1
    return Fraction(a + d, c) - 12 * sc * classical_dedekind_s(d, abs(c))
