"""Slow reference routes to values the library computes, kept out of it.

weighted_lattice and eis_per_mu are the per-mu Poisson evaluation of the
Eisenstein series: for each unit-orbit representative mu != 0 the free
nu-sum runs over the frequencies xi' of the codifferent, one lattice
enumeration per mu.  The library sums the same frequencies once per
xi = mu xi', so the two agree term set for term set at equal weight bound.
eis_direct sums the defining lattice series itself over a box.
divmod_near_scan is field_arith.divmod_near on OFElem arithmetic and exact
Fractions.

The first functions restate facts the library keeps in another form.
tp_unit and log_eta1 give the totally positive unit behind
FieldData.unit_index.  zeta2_siegel gives zeta_F(2), which
lfunctions.field_zeta computes.  classical_ln_eta gives the ln eta(z) that
eta_engine.lam equals over Q.  divides is the exact divisibility behind
field_arith.divide_exact.  rel_norm_num, norm_beta and beta_embs give the
exact norms and float embeddings of beta = m + n omega one element at a
time; unit_domain.module_orbit_arrays computes them as arrays.

The orbit functions at the end pick representatives of O_F \\ {0} under
U_F^+ and U_F, and of M \\ {0} under U, one element at a time.  Orbits are
keyed by a balanced logarithmic coordinate, such as t = ln|x_1| - ln|x_2|,
which a generator shifts by a fixed amount; a centred half-open window on it
picks a unique representative.  The library enumerates module orbits in
unit_domain.module_orbit_arrays, and no longer needs these.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gamma, kv

from hmsums.field_arith import (FieldData, InvalidInput, OFElem,
                                _zeta_minus_one, exact_quotient)
from hmsums.eta_engine import _off_indices
from hmsums.unit_domain import (_EDGE, CapExceeded, _expand_rows,
                                _lattice_boxes, _ragged_arange,
                                module_orbit_arrays)

TWO_PI = 2.0 * math.pi


# -- field, eta and module data ------------------------------------------------

def tp_unit(field: FieldData) -> OFElem:
    """Generator of the totally positive units U_F^+ (with embedding > 1)."""
    e = field.eps_fund
    return e if e.norm() == 1 else e * e


def log_eta1(field: FieldData) -> float:
    """ln of the first embedding of tp_unit."""
    return math.log(tp_unit(field).embeddings()[0])


def zeta2_siegel(field: FieldData) -> float:
    """zeta_F(2) = 4 pi^4 zeta_F(-1) / d_F^(3/2), by the functional equation
    from Siegel's exact zeta_F(-1); pi^2/6 over Q."""
    if field.n == 1:
        return math.pi ** 2 / 6
    d_F = field.d_F
    return 4 * math.pi ** 4 * float(_zeta_minus_one(d_F)) / d_F ** 1.5


def classical_ln_eta(z: complex, terms: int = 400) -> complex:
    """ln eta(z) by the q-product, principal branches (Im z > 0)."""
    if not z.imag > 0:
        raise InvalidInput(f"need Im z > 0, got {z}")
    q = cmath.exp(2j * math.pi * z)
    s = 1j * math.pi * z / 12
    for m in range(1, terms + 1):
        s += cmath.log(1 - q ** m)
    return s


def divides(y: OFElem, x: OFElem) -> bool:
    """True when y exactly divides x in O_F."""
    qa, qb = exact_quotient(x, y)
    return qa.denominator == 1 and qb.denominator == 1


def rel_norm_num(data, m: OFElem, n: OFElem) -> OFElem:
    """c * N_{K/F}(m + n omega) as an exact element of O_F, for the
    quasi_elliptic.QuasiEllipticData of A = (a, b; c, d)."""
    A = data.A
    return A.c * m * m + (A.a - A.d) * m * n - A.b * n * n


def norm_beta(data, m: OFElem, n: OFElem) -> Fraction:
    """N_{K/Q}(m + n omega) as an exact rational."""
    return Fraction(rel_norm_num(data, m, n).norm(), data.A.c.norm())


def beta_embs(data, m: OFElem, n: OFElem) -> tuple:
    """(beta_r1, beta_r2, (beta_k)_{k != j}) for beta = m + n omega."""
    j = data.j
    b_r1 = m.emb(j) + n.emb(j) * data.omega_r1
    b_r2 = m.emb(j) + n.emb(j) * data.omega_r2
    rest = tuple(m.emb(k) + n.emb(k) * w
                 for k, w in zip(_off_indices(data.field.n, j), data.omega_c))
    return b_r1, b_r2, rest


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
        owner = np.arange(len(ctr))
        chunks = _expand_rows(owner, np.zeros_like(owner), lo, hi,
                              max_terms, "direct-sum box too large")
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


# -- unit and module orbit representatives -----------------------------------

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
    if not x:
        raise InvalidInput("zero has no unit orbit")
    F = x.field
    if F.n == 1:
        return x, 0
    L = log_eta1(F)
    t = log_ratio(x)
    k = -math.floor((t + L + _EDGE) / (2 * L))
    return x * tp_unit(F).pow(k), k


def unit_orbit_rep(x: OFElem) -> OFElem:
    """Canonical representative of x * U_F (full unit group, sign folded)."""
    if not x:
        raise InvalidInput("zero has no unit orbit")
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
    weighted_lattice and the orbit enumerations below take one centred box
    each: the straight-line special case of unit_domain._lattice_boxes.
    """
    w1, w2 = field.w_embs
    Bb = math.floor((M1 + M2) / (w1 - w2)) + 1
    b = np.arange(-Bb, Bb + 1, dtype=np.int64)
    lo = np.ceil(np.maximum(-M1 - b * w1, -M2 - b * w2)).astype(np.int64)
    hi = np.floor(np.minimum(M1 - b * w1, M2 - b * w2)).astype(np.int64)
    cnt = np.maximum(hi - lo + 1, 0)
    total = int(cnt.sum())
    if total > max_terms:
        raise CapExceeded(f"lattice box too large: {total} points, "
                          f"cap {max_terms}")
    B = np.repeat(b, cnt)
    A = _ragged_arange(lo, cnt)
    return A, B, A + B * w1, A + B * w2, field.norm(A, B)


def _in_window(e1, e2, nrm, X: int, W: float) -> np.ndarray:
    """Mask of the points with 0 < |N| <= X and log-ratio
    ln|e1| - ln|e2| in the window [-W, W), nudged by _EDGE."""
    mask = (nrm != 0) & (np.abs(nrm) <= X)
    t = np.where(mask, np.log(np.abs(np.where(mask, e1, 1.0)))
                 - np.log(np.abs(np.where(mask, e2, 1.0))), 0.0)
    return mask & (t >= -W - _EDGE) & (t < W - _EDGE)


def _window_radius(X: int, W: float) -> float:
    """Box radius |e1|, |e2| <= M holding every point with |N| <= X and
    log-ratio in [-W, W)."""
    return math.sqrt(X * math.exp(W)) * (1 + 1e-12)


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
    L = log_eta1(field)
    A, B, e1, e2, nrm = _box(field, _window_radius(X, L), _window_radius(X, L),
                             max_terms)
    mask = _in_window(e1, e2, nrm, X, L)
    return [field.elem(int(a), int(b)) for a, b in zip(A[mask], B[mask])]


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
    A, B, e1, e2, nrm = _box(field, _window_radius(X, R), _window_radius(X, R),
                             max_terms)
    mask = _in_window(e1, e2, nrm, X, R) & (e1 > 0)
    return [field.elem(int(a), int(b)) for a, b in zip(A[mask], B[mask])]



def enumerate_module_orbits(data, norm_bound: float,
                            max_terms: int = 5_000_000) -> list:
    """Representatives of (M \\ 0)/U with |N(beta)| <= norm_bound as a list
    of (m, n) pairs of O_F-elements, beta = m + n*omega, one per orbit; see
    module_orbit_arrays for the orbit windows."""
    F = data.field
    orb = module_orbit_arrays(data, norm_bound, max_terms)
    return [(F.elem(a, b), F.elem(c, d)) for a, b, c, d in zip(
        orb.ma.tolist(), orb.mb.tolist(), orb.na.tolist(), orb.nb.tolist())]


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
    if not (m or n):
        raise InvalidInput("zero has no unit orbit")
    F = data.field
    Wu = abs(math.log(abs(data.eps_r1)))
    b1, b2, _ = beta_embs(data, m, n)
    u = math.log(abs(b1)) - math.log(abs(b2))
    step = 2 * math.log(abs(data.eps_r1))  # u-shift of one power of eps
    k = -math.floor((u + Wu + _EDGE) / abs(step))
    if step < 0:
        k = -k
    m, n = _eps_action(data, m, n, k)
    if F.n == 2:
        Wv = 2 * F.R_F
        b1, b2, rest = beta_embs(data, m, n)
        v = math.log(abs(b1 * b2)) - 2 * math.log(abs(rest[0]))
        shift = 4 * math.log(abs(F.eps_fund.emb(data.j)))  # v-shift of eps_F
        l = -math.floor((v + Wv + _EDGE) / abs(shift))
        if shift < 0:
            l = -l
        e = F.eps_fund.pow(l)
        m, n = e * m, e * n
    b1, _, _ = beta_embs(data, m, n)
    if b1 < 0:
        m, n = -m, -n
    return m, n
