"""Partial L-function of a quasi-elliptic matrix, the real-analytic
Eisenstein series of F, and the geodesic-period identity tying them.

For quasi-elliptic A with module M = O_F + omega*O_F and unit group
U = U_F x <eps>, the partial L-function is

    L_A(s) = sign(c_j tr A_j) * sum' sign(beta_r1 beta_r2) / |N(beta)|^s

over beta in (M \\ 0)/U, convergent for Re(s) > 1.  The module evaluates it
by direct orbit summation (Re(s) >= 1.5 for a calibrated tail), evaluates
the Eisenstein series

    E_F(z, s) = sum'_{(mu,nu) in O_F^2/U_F} prod_k y_k^s / |mu_k z_k + nu_k|^{2s}

and its z_j-derivative, and checks the period identity: the integral of
(d/dz_j) E_F along the geodesic arc from tau to A_j(tau) above the real
fixed points equals

    Gamma((s+1)/2)^2 * Vol^s / (Gamma(s) * 2i * d_F^s) * L_A(s),

with Vol = d_F * (omega_r1 - omega_r2) * prod Im(omega_c).

The derivative d/dz_j is the standard Wirtinger operator (1/2)(d/dx - i d/dy);
with this factor both the finite-difference check and the period identity
hold.  The inner nu-lattice sums are evaluated by Poisson summation over the
codifferent, turning the polynomially decaying series into Bessel-type terms
with exponential decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gamma as _gamma, kv as _kv

from .field_arith import FieldData, ModMatrix
from .eta_engine import _insert, check_uhp
from .quasi_elliptic import QuasiEllipticData, quasi_data, psi, NotQuasiElliptic
from .unit_domain import (CapExceeded, InvalidInput, TruncationParams,
                          enumerate_unit_orbits, module_orbit_arrays,
                          weighted_lattice)

TWO_PI = 2.0 * math.pi


# -- the partial L-function ---------------------------------------------------

@dataclass(frozen=True)
class LASeriesValue:
    """Truncated orbit sum for L_A(s) with a calibrated tail estimate.

    The tail uses the empirically linear growth of the orbit count: the
    density is measured on [X/2, X] and doubled.  heuristic_tail records
    that this is a calibration, not a proof.  n_terms counts the orbit
    representatives summed.
    """

    s: complex
    value: complex
    tail_error: float
    norm_bound: float
    heuristic_tail: bool = True
    n_terms: int = 0


def l_a(A: ModMatrix, s: complex, norm_bound: float = 2000.0,
        max_terms: int = 5_000_000) -> LASeriesValue:
    """L_A(s) by summation over module orbits with |N(beta)| <= norm_bound."""
    s = complex(s)
    if not s.real >= 1.5:
        raise InvalidInput(f"calibrated tails require Re(s) >= 1.5, got {s}")
    if not norm_bound >= 1:
        raise InvalidInput(f"need norm_bound >= 1, got {norm_bound}")
    data = quasi_data(A)
    X = float(norm_bound)
    orb = module_orbit_arrays(data, X, max_terms)
    nrm = orb.norm_num.astype(float) / orb.norm_den
    sign = np.sign(orb.beta_r1 * orb.beta_r2)
    total = complex(np.sum(sign * np.exp(-s * np.log(nrm))))
    # |N| <= X/2 decided exactly: norm_num <= floor(X |N_F(c)| / 2)
    half = math.floor(Fraction(X) * orb.norm_den / 2)
    n_reps = orb.norm_num.size
    n_half = int(np.count_nonzero(orb.norm_num <= half))
    sigma = s.real
    density = (n_reps - n_half) / (X / 2)
    tail = 2.0 * density * X ** (1 - sigma) / (sigma - 1)
    return LASeriesValue(s, data.sign_c_tr * total, tail, X, n_terms=n_reps)


# -- Eisenstein series by Poisson summation -----------------------------------

def _ghat0(s: float, h):
    """Fourier transform of (t^2 + h^2)^(-s) at frequency 0."""
    return math.sqrt(math.pi) * _gamma(s - 0.5) / _gamma(s) * h ** (1 - 2 * s)


def _ghat(s: float, h: float, xi):
    """Fourier transform of (t^2 + h^2)^(-s) at frequency xi != 0:
    2 pi^s / Gamma(s) * h^(1/2-s) |xi|^(s-1/2) K_{s-1/2}(2 pi h |xi|)."""
    a = np.abs(xi)
    return (2 * math.pi ** s / _gamma(s) * h ** (0.5 - s)
            * a ** (s - 0.5) * _kv(s - 0.5, TWO_PI * h * a))


def _dghat_dh(s: float, h: float, xi):
    """d/dh of _ghat; the Bessel order shifts up by one."""
    a = np.abs(xi)
    return -(TWO_PI * a) * (2 * math.pi ** s / _gamma(s) * h ** (0.5 - s)
                            * a ** (s - 0.5) * _kv(s + 0.5, TWO_PI * h * a))


_REP_CACHE: dict = {}


def _unit_rep_arrays(field: FieldData, cap: float) -> tuple:
    """Embedding arrays of (O_F \\ 0)/U_F representatives, cached."""
    key = (field.D, float(cap))
    if key not in _REP_CACHE:
        reps = enumerate_unit_orbits(field, cap)
        embs = np.array([r.embeddings() for r in reps], dtype=float)
        _REP_CACHE[key] = tuple(embs[:, k] for k in range(field.n))
    return _REP_CACHE[key]


def _eis_core(field: FieldData, z: tuple, s: float, j: int, want_deriv: bool,
              trunc: TruncationParams, mu_cap: float):
    """E_F(z, s) and optionally its Wirtinger z_j-derivative.

    Pairs are grouped by the first entry: (0, nu) runs over unit-orbit
    representatives, and for each representative mu != 0 the free nu-sum
    is evaluated by Poisson summation over the codifferent, with frequency
    terms cut at exponential weight trunc.weight_bound.

    The frequencies of mu form weighted_lattice(field, alpha, beta, B) with
    alpha = 2 pi h_1/|delta_1|, beta = 2 pi h_2/|delta_2|.  Every nonzero xi
    in O_F has |N(xi)| >= 1, so by AM-GM alpha|xi_1| + beta|xi_2| >=
    2 sqrt(alpha beta): in degree two a mu with 4 alpha beta > B^2 has no
    frequency inside the bound and is skipped without enumerating it.  The
    test only drops empty lattices, so the value does not change.
    """
    z = check_uhp(field, z)
    s = float(s)
    if not s >= 1.5:
        raise InvalidInput(f"the truncation requires s >= 1.5, got {s}")
    n = field.n
    x = np.array([w.real for w in z])
    y = np.array([w.imag for w in z])
    py = float(np.prod(y))
    covol = math.sqrt(field.d_F)
    d_embs = np.array(field.different.embeddings()) if n == 2 else np.array([1.0])
    B = trunc.weight_bound

    embs = _unit_rep_arrays(field, mu_cap)
    if embs[0].size > trunc.max_terms:
        raise CapExceeded("too many unit-orbit representatives")

    # (0, nu): prod y^s / prod |nu_k|^{2s}
    q0 = np.ones_like(embs[0])
    for k in range(n):
        q0 = q0 * np.abs(embs[k]) ** (2 * s)
    e_zero_mu = py ** s * float(np.sum(1.0 / q0))
    value = e_zero_mu
    dvalue = 0.5 * (-1j) * (s / y[j]) * e_zero_mu if want_deriv else 0.0

    # (mu, nu), mu != 0: frequency-zero part, vectorized over all mu reps
    h = [np.abs(embs[k]) * y[k] for k in range(n)]
    g0 = _ghat0(s, h[0])
    for k in range(1, n):
        g0 = g0 * _ghat0(s, h[k])
    zero_terms = py ** s / covol * g0
    value += float(np.sum(zero_terms))
    if want_deriv:
        # d/dx_j = 0 here; d/dy_j = (s + (1-2s))/y_j = (1-s)/y_j per term
        dvalue += 0.5 * (-1j) * ((1 - s) / y[j]) * complex(np.sum(zero_terms))

    # nonzero frequencies survive only while 2 pi h_1 <= B (degree one) or
    # 2 sqrt(alpha beta) <= B (degree two; the margin keeps borderline mu)
    alpha = TWO_PI * h[0] / abs(d_embs[0])
    if n == 1:
        beta = np.ones_like(alpha)
        active = np.nonzero(alpha <= B)[0]
    else:
        beta = TWO_PI * h[1] / abs(d_embs[1])
        active = np.nonzero(4 * alpha * beta <= B * B * (1 + 1e-12))[0]
    for i in active:
        mu = np.array([embs[k][i] for k in range(n)])
        hk = np.array([h[k][i] for k in range(n)])
        e1, e2, _ = weighted_lattice(field, alpha[i], beta[i], B,
                                     trunc.max_terms)
        xis = [e / dk for e, dk in zip((e1, e2), d_embs)]
        if xis[0].size == 0:
            continue
        phase = np.exp(2j * math.pi * sum(mu[k] * x[k] * xis[k]
                                          for k in range(n)))
        gs = [_ghat(s, hk[k], xis[k]) for k in range(n)]
        prod_g = gs[0]
        for k in range(1, n):
            prod_g = prod_g * gs[k]
        contrib = py ** s / covol * np.sum(phase * prod_g)
        value += contrib.real  # conjugate frequencies pair up
        if want_deriv:
            dx = py ** s / covol * np.sum(
                (2j * math.pi * mu[j] * xis[j]) * phase * prod_g)
            prod_dg = _dghat_dh(s, hk[j], xis[j])
            for k in range(n):
                if k != j:
                    prod_dg = prod_dg * gs[k]
            dy = (s / y[j]) * contrib \
                + py ** s / covol * abs(mu[j]) * np.sum(phase * prod_dg)
            dvalue += 0.5 * (dx - 1j * dy)
    return value, dvalue


def eis(field: FieldData, z: tuple, s: float,
        trunc: TruncationParams = TruncationParams(),
        mu_cap: float = 20000.0) -> float:
    """The Eisenstein series E_F(z, s) for real s >= 1.5."""
    value, _ = _eis_core(field, z, s, 0, False, trunc, mu_cap)
    return value


def eis_dz1(field: FieldData, z: tuple, s: float, j: int = 0,
            trunc: TruncationParams = TruncationParams(),
            mu_cap: float = 20000.0) -> complex:
    """Wirtinger derivative (1/2)(d/dx_j - i d/dy_j) of E_F(z, s)."""
    _, dvalue = _eis_core(field, z, s, j, True, trunc, mu_cap)
    return dvalue


def eis_direct(field: FieldData, z: tuple, s: float, box: float = 60.0,
               max_terms: int = 5_000_000) -> tuple:
    """Reference implementation by direct lattice summation (slowly
    convergent; used to cross-check the Poisson evaluation).  Returns
    (E_F, dE_F/dz_1) with the derivative from its own termwise series:

        (s/2i) sum y_1^{s-1} (mu_1 conj(z_1) + nu_1)^2 / |mu_1 z_1 + nu_1|^{2s+2}
               * prod_{k>1} y_k^s / |mu_k z_k + nu_k|^{2s}.
    """
    z = tuple(complex(w) for w in z)
    n = field.n
    y = [w.imag for w in z]
    py = float(np.prod(y))
    val = 0.0
    dval = 0.0 + 0.0j
    # (0, nu): nu runs over unit-orbit representatives, not the whole box
    for nu in enumerate_unit_orbits(field, (box / min(y)) ** n):
        ne = nu.embeddings()
        val += py ** s / float(np.prod([abs(e) ** (2 * s) for e in ne]))
        dval += (s / 2j) * y[0] ** (s - 1) / abs(ne[0]) ** (2 * s) \
            * float(np.prod([y[k] ** s / abs(ne[k]) ** (2 * s)
                             for k in range(1, n)]))
    for mu in enumerate_unit_orbits(field, (box / min(y)) ** n):
        me = np.array(mu.embeddings())
        # nu in a real-part box around -mu_k z_k at every embedding
        if n == 1:
            lo = [-me[0] * z[0].real - box]
            hi = [-me[0] * z[0].real + box]
            nu1 = np.arange(math.ceil(lo[0]), math.floor(hi[0]) + 1)
            f = [me[0] * np.asarray(z[0]) + nu1]
        else:
            w1, w2 = field.w_embs
            ctr = [-me[k] * z[k].real for k in range(2)]
            bb = np.arange(math.ceil((ctr[0] - box - (ctr[1] + box)) / (w1 - w2)),
                           math.floor((ctr[0] + box - (ctr[1] - box)) / (w1 - w2)) + 1)
            rows_a, rows_b = [], []
            for b in bb:
                a_lo = math.ceil(max(ctr[0] - box - b * w1, ctr[1] - box - b * w2))
                a_hi = math.floor(min(ctr[0] + box - b * w1, ctr[1] + box - b * w2))
                if a_hi >= a_lo:
                    aa = np.arange(a_lo, a_hi + 1)
                    rows_a.append(aa)
                    rows_b.append(np.full(aa.shape, b))
            A = np.concatenate(rows_a) if rows_a else np.zeros(0)
            Bc = np.concatenate(rows_b) if rows_b else np.zeros(0)
            if A.size > max_terms:
                raise CapExceeded("direct-sum box too large")
            f = [me[k] * z[k] + (A + Bc * field.w_embs[k]) for k in range(2)]
        q = np.abs(f[0]) ** 2
        for k in range(1, n):
            q = q * np.abs(f[k]) ** 2
        ok = q > 1e-18
        val += py ** s * float(np.sum(1.0 / q[ok] ** s))
        dterm = (np.conj(f[0]) ** 2 / np.abs(f[0]) ** (2 * s + 2))[ok]
        rest = np.ones_like(dterm)
        for k in range(1, n):
            rest = rest * (y[k] ** s / np.abs(f[k]) ** (2 * s))[ok]
        dval += (s / 2j) * y[0] ** (s - 1) * np.sum(dterm * rest)
    return val, dval


# -- the geodesic arc and its period ------------------------------------------

@dataclass(frozen=True)
class GeodesicArc:
    """Arc of the semicircle over the real fixed points, from tau to A(tau).

    The chart f(w) = i (w - omega_r2)/(w - omega_r1) maps the semicircle to
    the positive reals with f(A w) = eps_r1^2 f(w); the arc is parametrized
    by g(t) = (t omega_r1 - i omega_r2)/(t - i) with f(g(t)) = t, running
    from t_base to eps_r1^2 * t_base.
    """

    data: QuasiEllipticData
    t_base: float
    t_end: float

    def g(self, t: float) -> complex:
        d = self.data
        return (t * d.omega_r1 - 1j * d.omega_r2) / (t - 1j)

    def g_prime(self, t: float) -> complex:
        d = self.data
        return -1j * (d.omega_r1 - d.omega_r2) / (t - 1j) ** 2

    @property
    def tau(self) -> complex:
        return self.g(self.t_base)

    @property
    def endpoint(self) -> complex:
        return self.g(self.t_end)


def geodesic_arc(data: QuasiEllipticData, t_base: float = 1.0) -> GeodesicArc:
    if not t_base > 0:
        raise InvalidInput(f"t_base must be positive, got {t_base}")
    arc = GeodesicArc(data, t_base, data.eps_r1 ** 2 * t_base)
    # invariant: the chart intertwines A with scaling by eps_r1^2
    a_tau = data.A.moebius(data.j, arc.tau)
    f = 1j * (a_tau - data.omega_r2) / (a_tau - data.omega_r1)
    expected = data.eps_r1 ** 2 * arc.t_base
    if not abs(f - expected) < 1e-9 * max(1.0, abs(expected)):
        raise InvalidInput(f"the chart does not intertwine A with eps_r1^2 "
                           f"at t_base={t_base}: {f} != {expected}")
    return arc


def period_integrand(arc: GeodesicArc, s: float, u: float,
                     trunc: TruncationParams = TruncationParams(),
                     mu_cap: float = 20000.0) -> complex:
    """The integrand of geodesic_period in u = log t,
    (d/dz_j) E_F(g(e^u), omega_c, s) * g'(e^u) * e^u."""
    d = arc.data
    t = math.exp(u)
    z = _insert(d.omega_c, d.j, arc.g(t))
    return eis_dz1(d.field, z, s, d.j, trunc, mu_cap) * arc.g_prime(t) * t


def geodesic_period(A: ModMatrix, s: float, m: int = 64,
                    trunc: TruncationParams = TruncationParams(),
                    t_base: float | None = None, tol: float = 1e-6,
                    mu_cap: float = 20000.0) -> tuple:
    """Integral of (d/dz_j) E_F(z_j, omega_c, s) dz_j along the arc from tau
    to A(tau), by the trapezoidal rule in u = log t over one period.

    The integrand is periodic in u with period L = 2 log|eps_r1|: E_F is
    invariant under A, so (d/dz_j) E_F dz_j is A-invariant once the
    off-components sit at the fixed points omega_c of A, and the chart turns
    A into the shift u -> u + L.  For an analytic periodic integrand the
    trapezoidal rule on N equispaced nodes converges exponentially in N
    (Trefethen and Weideman, SIAM Review 56, 2014), and its nodes nest: each
    doubling evaluates only the N new midpoints and keeps the running sum.
    m is the initial node count; N doubles until two consecutive values
    agree within tol/10 or N reaches 512.

    t_base=None starts at 1/|eps_r1|, which centres the arc on the top of
    the semicircle and keeps its lowest point, where (d/dz_j) E_F costs
    most, as high as possible.  Periodicity makes the value independent of
    t_base, up to the truncation of E_F at mu_cap, which breaks the
    A-invariance by about mu_cap^-2 (1e-8 at mu_cap = 8000).

    Returns (value, error_estimate).
    """
    if m < 1:
        raise InvalidInput(f"need at least one node, got m={m}")
    data = quasi_data(A)
    if t_base is None:
        t_base = 1.0 / abs(data.eps_r1)
    arc = geodesic_arc(data, t_base)
    u0 = math.log(arc.t_base)
    L = math.log(arc.t_end) - u0

    def f(u: float) -> complex:
        return period_integrand(arc, s, u, trunc, mu_cap)

    n = m
    total = sum(f(u0 + k * L / n) for k in range(n))
    prev = total * L / n
    while True:
        total += sum(f(u0 + (k + 0.5) * L / n) for k in range(n))
        n *= 2
        cur = total * L / n
        err = abs(cur - prev)
        if err < tol / 10 or n >= 512:
            return cur, err
        prev = cur


def volume(data: QuasiEllipticData) -> float:
    """Vol = d_F * (omega_r1 - omega_r2) * prod Im(omega_c)."""
    v = data.omega_r1 - data.omega_r2
    for w in data.omega_c:
        v *= w.imag
    return data.field.d_F * v


def period_rhs(A: ModMatrix, s: float, norm_bound: float = 2000.0) -> tuple:
    """Right-hand side of the period identity,

        Gamma((s+1)/2)^2 Vol^s / (Gamma(s) 2i d_F^s) * L_A(s),

    returned as (value, tail_budget)."""
    data = quasi_data(A)
    la = l_a(A, s, norm_bound)
    pref = (_gamma((s + 1) / 2) ** 2 * volume(data) ** s
            / (_gamma(s) * 2j * data.field.d_F ** s))
    return pref * la.value, abs(pref) * la.tail_error


def period_defect(A: ModMatrix, s: float, norm_bound: float = 2000.0,
                  m: int = 64, trunc: TruncationParams = TruncationParams(),
                  tol: float = 1e-6, mu_cap: float = 20000.0) -> tuple:
    """|period - RHS| of the period identity, with its combined budget.

    Returns (defect, budget, period, rhs); the budget adds the quadrature
    estimate and the L-series tail (heuristic)."""
    period, qerr = geodesic_period(A, s, m, trunc, tol=tol, mu_cap=mu_cap)
    rhs, la_budget = period_rhs(A, s, norm_bound)
    return abs(period - rhs), qerr + la_budget + tol, period, rhs


def l_a_deriv_report(A: ModMatrix,
                     trunc: TruncationParams = TruncationParams()) -> dict:
    """The order-(n-1) derivative of L_A at s = 0 via its closed form
    L_A^{(n-1)}(0) = (n-1)! Psi(A).

    This is the only access to s = 0 data in this package: the series for
    L_A is summed on Re(s) >= 1.5 only, and no analytic continuation is
    performed; the derivative value comes from the special-value formula."""
    field = A.field
    n = field.n
    return {
        "deriv_order": n - 1,
        "value": math.factorial(n - 1) * psi(field, A, trunc=trunc),
        "method": "special-value formula (n-1)! * Psi(A); "
                  "no analytic continuation of the series",
    }
