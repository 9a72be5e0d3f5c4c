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
hold.  E_F is a divisor sum: Poisson summation over nu gives Bessel terms at
the frequencies xi' in the codifferent delta^-1, and grouping the pairs
(mu, xi') by xi = mu xi' leaves one term per xi, weighted by the ideal
divisors (mu) of (xi delta), plus two closed-form constant terms (Siegel,
Advanced Analytic Number Theory, ch. II; Zagier, A Kronecker limit formula
for real quadratic fields, Math. Ann. 213, 1975):

    E_F(z, s) = N(y)^s zeta_F(2s)
        + d_F^-1/2 (sqrt(pi) Gamma(s-1/2)/Gamma(s))^n N(y)^(1-s) zeta_F(2s-1)
        + 2 d_F^-1/2 (2 pi^s/Gamma(s))^n sqrt(N(y)) Re sum_{xi_1 > 0}
              sigma_{1-2s}((xi delta)) prod_k |xi_k|^(s-1/2)
              K_{s-1/2}(2 pi |xi_k| y_k) e(xi x),

with n = [F:Q], N(y) = prod y_k and sigma_w(a) = sum_{b | a} N(b)^w.  The xi
and sigma_w come from eta_engine, whose Omega is the same sum at w = -1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .field_arith import FieldData, ModMatrix, kronecker
from .eta_engine import (TWO_PI, SeriesValue, _insert, _sigma_table,
                         _xi_chunks, check_uhp)
from .quasi_elliptic import QuasiEllipticData, quasi_data, psi, NotQuasiElliptic
from .unit_domain import (CapExceeded, InvalidInput, TruncationParams,
                          check_max_terms, module_orbit_arrays)


@lru_cache(maxsize=None)
def _special():
    """scipy.special, imported on first use: only E_F, zeta_F and the
    period identity's Gamma factors need it, and the import costs more than
    the rest of the package's."""
    import scipy.special
    return scipy.special


def _kv(v, x):
    """The modified Bessel function K_v(x) (scipy.special.kv)."""
    return _special().kv(v, x)


# -- the partial L-function ---------------------------------------------------

class _OrbitSeries(NamedTuple):
    """The s-independent part of l_a for one (A, X, max_terms)."""

    sign_c_tr: int
    log_norm: np.ndarray        # log|N(beta)| per representative, read-only
    sign: np.ndarray            # sign(beta_r1 beta_r2), read-only
    n_reps: int
    n_half: int                 # representatives with |N(beta)| <= X/2


@lru_cache(maxsize=8)
def _orbit_series(A: ModMatrix, X: float, max_terms: int) -> _OrbitSeries:
    """quasi_data and module_orbit_arrays for l_a, kept for the last 8
    (A, X, max_terms).  Keyed on A, not on its module: A^-1 and -A share
    A's module and unit group, and L_{A^-1} = -L_A is checked, not cached."""
    data = quasi_data(A)
    orb = module_orbit_arrays(data, X, max_terms)
    log_norm = np.log(orb.norm_num.astype(float) / orb.norm_den)
    sign = np.sign(orb.beta_r1 * orb.beta_r2)
    log_norm.flags.writeable = sign.flags.writeable = False
    # |N| <= X/2 decided exactly: norm_num <= floor(X |N_F(c)| / 2)
    half = math.floor(Fraction(X) * orb.norm_den / 2)
    n_half = int(np.count_nonzero(orb.norm_num <= half))
    return _OrbitSeries(data.sign_c_tr, log_norm, sign, orb.norm_num.size,
                        n_half)


def l_a(A: ModMatrix, s: complex, norm_bound: float = 2000.0,
        max_terms: int = TruncationParams.max_terms) -> SeriesValue:
    """L_A(s) by summation over module orbits with |N(beta)| <= norm_bound.

    n_terms counts the orbit representatives summed.  The tail is a
    calibration, not a proof: the orbit count grows about linearly, so its
    density is measured on [X/2, X] and doubled.

    Everything but the s-sum depends on (A, X, max_terms) alone: the module
    orbits, log|N(beta)|, sign(beta_r1 beta_r2) and the count for the tail
    are kept for the last 8 such triples (about 16 bytes per
    representative, 0.2 MB for A1^2 at X = 8000, 12,594 representatives).
    On a 2-core VM at X = 8000 a first call takes 6-12 ms per matrix and a
    call at a new s for a kept (A, X) 0.1-0.3 ms; the values are the same
    either way."""
    s = complex(s)
    if not (1.5 <= s.real < math.inf and math.isfinite(s.imag)):
        raise InvalidInput(f"need a finite s with Re(s) >= 1.5, got {s}")
    if not 1 <= norm_bound < math.inf:
        raise InvalidInput(f"need 1 <= norm_bound < inf, got {norm_bound}")
    check_max_terms(max_terms)
    X = float(norm_bound)
    orb = _orbit_series(A, X, int(max_terms))
    total = complex(np.sum(orb.sign * np.exp(-s * orb.log_norm)))
    sigma = s.real
    density = (orb.n_reps - orb.n_half) / (X / 2)
    tail = 2.0 * density * X ** (1 - sigma) / (sigma - 1)
    return SeriesValue(orb.sign_c_tr * total, tail, orb.n_reps)


# -- Eisenstein series as a divisor sum ---------------------------------------

@lru_cache(maxsize=None)
def field_zeta(field: FieldData, w: float) -> float:
    """zeta_F(w) for real w > 1: zeta(w) L(w, chi) with chi = chi_{d_F} and
    L(w, chi) = d_F^-w sum_{a < d_F} chi(a) zeta(w, a/d_F) (Hurwitz zeta);
    zeta(w) over Q.  Raises InvalidInput where zeta(w, 1/d_F) > d_F^w leaves
    double range."""
    if not w > 1:
        raise InvalidInput(f"zeta_F is evaluated for real w > 1, got {w}")
    zeta = _special().zeta
    if field.n == 1:
        return float(zeta(w))
    d = field.d_F
    if w * math.log(d) > math.log(sys.float_info.max):
        raise InvalidInput(f"the Hurwitz terms of zeta_F({w}) overflow")
    return float(zeta(w)) * d ** -w * math.fsum(
        kronecker(d, a) * zeta(w, a / d) for a in range(1, d))


def _eis_core(field: FieldData, z: tuple, s: float, j: int, want_deriv: bool,
              trunc: TruncationParams, mu_cap: float):
    """E_F(z, s) and optionally its Wirtinger z_j-derivative, by the divisor
    sum of the module docstring: with nu = s - 1/2,

        E_F = c_2s + c_2s1 + pref Re sum_{xi_1 > 0} sigma_{1-2s}((xi delta))
                  prod_k |xi_k|^nu K_nu(2 pi |xi_k| y_k) e(xi x),

    c_2s = N(y)^s zeta_F(2s), c_2s1 = d_F^-1/2 (sqrt(pi) Gamma(nu)/Gamma(s))^n
    N(y)^(1-s) zeta_F(2s-1) and pref = 2 d_F^-1/2 (2 pi^s/Gamma(s))^n
    sqrt(N(y)); -xi gives the conjugate term of xi.  eta_engine._xi_chunks
    gives the xi with 2 pi sum_k y_k |xi_k| <= B = trunc.weight_bound, the
    terms of the per-mu Poisson sums at bound B, and _sigma_table sigma_w.

    d/dx_j brings down 2 pi i xi_j; d/dy_j gives s/y_j times a term minus
    2 pi |xi_j| times it with K_{nu+1} at j (K'_nu(x) = -K_{nu+1}(x) +
    (nu/x) K_nu(x), and 1/(2 y_j) from sqrt(N(y))), and s/y_j c_2s +
    (1-s)/y_j c_2s1.  Raises CapExceeded for more candidates than
    trunc.max_terms, or for an |N(xi delta)| above mu_cap, and InvalidInput
    when a Bessel term |xi_k|^nu K_nu, N(y)^s, N(y)^(1-s), Gamma(s) or
    zeta_F(2s) leaves double range (large s).
    """
    z, s = check_uhp(field, z, j), float(s)
    if not s >= 1.5:
        raise InvalidInput(f"the truncation requires s >= 1.5, got {s}")
    x, y = np.array([w.real for w in z]), np.array([w.imag for w in z])
    n, ny, nu, B = field.n, math.prod(y), s - 0.5, trunc.weight_bound
    total, d_x, d_y = 0j, 0j, 0j
    for xi, _, g, nrm in _xi_chunks(field, y, 0, B, trunc.max_terms):
        top = int(nrm.max(initial=0))
        if top > mu_cap:
            raise CapExceeded(f"|N(xi delta)| = {top} exceeds mu_cap {mu_cap}")
        start, (sig,), _ = _sigma_table(field, (1 - 2 * s,), top, mu_cap)
        arg = TWO_PI * y[:, None] * np.abs(xi)       # 2 pi y_k |xi_k|
        base = sig[start[g] + nrm // (g * g)] * np.exp(1j * TWO_PI * (x @ xi))
        with np.errstate(over="ignore", invalid="ignore"):
            factor = np.abs(xi) ** nu * _kv(nu, arg)
            term = base * factor.prod(0)
            total += term.sum()
            if want_deriv:
                d_x += np.sum(xi[j] * term)
                factor[j] = np.abs(xi[j]) ** (nu + 1) * _kv(nu + 1, arg[j])
                d_y += np.sum(base * factor.prod(0))
        if not np.isfinite((total, d_x, d_y)).all():
            raise InvalidInput(f"the Bessel terms of E_F leave double range "
                               f"at s = {s}")
    gamma = _special().gamma
    with np.errstate(over="ignore"):
        g_s, y_s, y_1s = gamma(s), ny ** s, ny ** (1 - s)
    if not all(map(math.isfinite, (g_s, y_s, y_1s))):
        raise InvalidInput(f"N(y)^s, N(y)^(1-s) or Gamma(s) of E_F leaves "
                           f"double range at s = {s}")
    c_2s = y_s * field_zeta(field, 2 * s)
    c_2s1 = (math.sqrt(math.pi) * gamma(nu) / g_s) ** n \
        * y_1s * field_zeta(field, 2 * s - 1) / math.sqrt(field.d_F)
    pref = 2 * (2 * math.pi ** s / g_s) ** n * math.sqrt(ny / field.d_F)
    value = c_2s + c_2s1 + pref * total.real
    if not want_deriv:
        return value, 0.0
    dx = pref * (TWO_PI * 1j * d_x).real
    dy = (s * c_2s + (1 - s) * c_2s1) / y[j] \
        + pref * (s / y[j] * total - TWO_PI * d_y).real
    return value, 0.5 * (dx - 1j * dy)


def eis(field: FieldData, z: tuple, s: float,
        trunc: TruncationParams = TruncationParams(),
        mu_cap: float = 20000.0) -> float:
    """The Eisenstein series E_F(z, s) for real s >= 1.5; a summed
    frequency with |N(xi delta)| above mu_cap raises CapExceeded."""
    value, _ = _eis_core(field, z, s, 0, False, trunc, mu_cap)
    return value


def eis_dz1(field: FieldData, z: tuple, s: float, j: int = 0,
            trunc: TruncationParams = TruncationParams(),
            mu_cap: float = 20000.0) -> complex:
    """Wirtinger derivative (1/2)(d/dx_j - i d/dy_j) of E_F(z, s); mu_cap as
    for eis."""
    _, dvalue = _eis_core(field, z, s, j, True, trunc, mu_cap)
    return dvalue


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
    t_base.

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
    gamma = _special().gamma
    pref = (gamma((s + 1) / 2) ** 2 * volume(data) ** s
            / (gamma(s) * 2j * data.field.d_F ** s))
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
