import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hmsums import lfunctions
from hmsums.field_arith import make_field, matrix_S
from hmsums.lfunctions import (InvalidInput, eis, eis_dz1, field_zeta,
                               geodesic_arc, geodesic_period, l_a,
                               l_a_deriv_report, period_defect,
                               period_integrand, period_rhs, volume)
from hmsums.quasi_elliptic import NotQuasiElliptic, quasi_data
from hmsums.unit_domain import CapExceeded, TruncationParams
from oracles import (_box, divides, eis_direct, eis_per_mu,
                     enumerate_module_orbits, enumerate_unit_orbits, norm_beta,
                     zeta2_siegel)

F1 = make_field(1)
F7 = make_field(7)
FAST = TruncationParams(weight_bound=30.0)
RT7 = math.sqrt(7)

A1 = F7.matrix((-2, -1), (1, 1), (3, 1), (-2, -1))
A1P = F7.matrix((18, 7), (39, 15), (9, 3), (18, 7))
B1 = F1.matrix(2, 3, 1, 2)          # hyperbolic over Q with L != 0
Z2 = (0.2 + 0.9j, -0.3 + 1.2j)


# -- the partial L-function ----------------------------------------------------

def test_l_a_value_and_tail():
    la = l_a(A1, 2.0, 2000)
    assert la.value.imag == pytest.approx(0.0, abs=1e-12)
    assert la.tail_error > 0
    # doubling the bound moves the value by less than the reported tail
    la2 = l_a(A1, 2.0, 4000)
    assert abs(la2.value - la.value) < la.tail_error


@pytest.mark.parametrize("A,value,tail,reps", [
    (A1, -1.2020723317735222, 1.95e-4, 6297),
    (A1P, 0.937421628191694, 3.79375e-4, 12273)])
def test_l_a_pinned(A, value, tail, reps):
    # L_A(2) by orbit summation at norm bound 8000
    la = l_a(A, 2.0, 8000)
    assert la.value.real == pytest.approx(value, rel=1e-12)
    assert la.tail_error == pytest.approx(tail, rel=1e-12)
    assert la.n_terms == reps


def test_l_a_tail_counts_half_exactly():
    # the tail's density counts orbits with |N| <= X/2; take X so that an
    # orbit sits exactly on X/2
    qd = quasi_data(A1)
    norms = [abs(norm_beta(qd, m, n))
             for m, n in enumerate_module_orbits(qd, 300)]
    X = 2 * max(v for v in norms if v.denominator == 1 and v <= 150)
    reps = [abs(norm_beta(qd, m, n))
            for m, n in enumerate_module_orbits(qd, X)]
    n_half = sum(v <= X / 2 for v in reps)
    assert X / 2 in reps
    la = l_a(A1, 2.0, float(X))
    assert la.n_terms == len(reps)
    assert la.tail_error == pytest.approx(
        2.0 * (len(reps) - n_half) / (X / 2) / X, rel=1e-12)


def test_l_a_inverse_negates():
    la = l_a(A1, 2.0, 2000)
    lainv = l_a(A1.inv(), 2.0, 2000)
    assert lainv.value.real == pytest.approx(-la.value.real, abs=1e-9)


def test_l_a_negation_invariant():
    la = l_a(A1, 2.0, 2000)
    laneg = l_a(-A1, 2.0, 2000)
    assert laneg.value.real == pytest.approx(la.value.real, abs=1e-12)


def test_l_a_square_doubles():
    la = l_a(A1, 2.0, 2000)
    la2 = l_a(A1 * A1, 2.0, 2000)
    assert la2.value.real == pytest.approx(2 * la.value.real, abs=1e-4)


def test_l_a_rejects_elliptic():
    with pytest.raises(NotQuasiElliptic):
        l_a(matrix_S(F7), 2.0, 100)


def test_l_a_rejects_parabolic():
    with pytest.raises(InvalidInput):
        l_a(F7.matrix(1, (2, 1), 0, 1), 2.0, 100)


@pytest.mark.parametrize("j", [-1, 2])
def test_eis_dz1_embedding_index_must_lie_in_range(j):
    with pytest.raises(InvalidInput, match="need 0 <= j <"):
        eis_dz1(F7, Z2, 2.0, j, FAST)


def test_l_a_requires_large_real_part():
    with pytest.raises(InvalidInput):
        l_a(A1, 1.2, 100)
    assert issubclass(InvalidInput, ValueError)


@pytest.mark.parametrize("norm_bound", [0, 0.5, math.inf, math.nan])
def test_l_a_rejects_norm_bound_below_one(norm_bound):
    # 0 used to divide by zero in the tail, 0.5 to return 0 with a zero
    # tail, inf to raise OverflowError in the orbit enumeration
    with pytest.raises(InvalidInput):
        l_a(A1, 2.0, norm_bound)
    from hmsums import unit_domain
    assert InvalidInput is unit_domain.InvalidInput


@pytest.mark.parametrize("s", [complex(2, math.nan), complex(math.inf, 1)])
def test_l_a_rejects_non_finite_s(s):
    # s = 2 + nan*i used to return nan+nanj
    with pytest.raises(InvalidInput):
        l_a(A1, s, 100)


@pytest.mark.parametrize("max_terms", [0, -1, 2.5])
def test_l_a_rejects_max_terms_below_one(max_terms):
    # each used to raise CapExceeded ("lattice box too large") from the
    # enumeration instead
    with pytest.raises(InvalidInput, match="max_terms"):
        l_a(A1, 2.0, 100, max_terms=max_terms)


# -- the per-(A, X) orbit data kept across calls -------------------------------

@pytest.mark.parametrize("A", [A1, A1P])
@pytest.mark.parametrize("X", [2000.0, 8000.0])
def test_l_a_warm_equals_cold(A, X):
    for s in (1.5, 2 + 1j, 3.0):
        lfunctions._orbit_series.cache_clear()
        cold = l_a(A, s, X)
        assert lfunctions._orbit_series.cache_info().currsize == 1
        warm = l_a(A, s, X)
        assert lfunctions._orbit_series.cache_info().hits == 1
        assert (warm.value, warm.tail_error, warm.n_terms) \
            == (cold.value, cold.tail_error, cold.n_terms)


def test_l_a_term_cap_still_applies_after_a_cached_call():
    l_a(A1, 2.0, 2000)
    with pytest.raises(CapExceeded):
        l_a(A1, 2.0, 2000, max_terms=50)


def test_l_a_cache_is_bounded():
    info = lfunctions._orbit_series.cache_info
    pairs = [(A, X) for A in (A1, A1.inv(), -A1, A1P)
             for X in (10.0, 20.0, 30.0)]
    assert len(pairs) > info().maxsize
    for A, X in pairs:
        l_a(A, 2.0, X)
        assert info().currsize <= info().maxsize
    assert info().currsize == info().maxsize


def test_l_a_cached_arrays_are_read_only():
    l_a(A1, 2.0, 100)
    orb = lfunctions._orbit_series(A1, 100.0, TruncationParams.max_terms)
    for arr in (orb.log_norm, orb.sign):
        assert arr.size == orb.n_reps > 0
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


# -- Eisenstein series ---------------------------------------------------------

def test_eis_positive():
    assert eis(F7, Z2, 2.0, FAST) > 0
    assert eis(F1, (0.3 + 1.1j,), 2.0, FAST, mu_cap=5000) > 0


def test_eis_modular_invariance():
    S = matrix_S(F7)
    T = F7.matrix(1, (1, 0), 0, 1)
    U = F7.matrix(1, (0, 1), 0, 1)
    base = eis(F7, Z2, 2.0, FAST)
    for A in (S, T, U, T * S):
        Az = tuple(A.moebius(k, Z2[k]) for k in range(2))
        assert eis(F7, Az, 2.0, FAST) == pytest.approx(base, abs=1e-5)


def test_eis_matches_direct_sum():
    v, dv = eis_direct(F7, Z2, 2.0, box=60.0)
    assert eis(F7, Z2, 2.0, FAST) == pytest.approx(v, abs=1e-3)
    assert eis_dz1(F7, Z2, 2.0, 0, FAST) == pytest.approx(dv, abs=1e-3)


def test_eis_degree_one_matches_direct():
    z = (0.3 + 1.1j,)
    v, dv = eis_direct(F1, z, 2.0, box=300.0)
    assert eis(F1, z, 2.0, FAST, mu_cap=5000) == pytest.approx(v, abs=1e-4)
    assert eis_dz1(F1, z, 2.0, 0, FAST, mu_cap=5000) \
        == pytest.approx(dv, abs=1e-4)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2, 3, 5, 7, 13]), st.sampled_from([0, 1]),
       st.tuples(st.floats(-1, 1), st.floats(-2, 1)),
       st.tuples(st.floats(-1, 1), st.floats(-2, 1)))
@example(2, 0, (0.0, -2.0), (1.0, -2.0))
@example(2, 0, (0.0, -1.75), (1.0, -2.0))
def test_eis_matches_per_mu_oracle(D, j, p1, p2):
    # one Bessel term per xi weighted by sigma_{1-2s}((xi delta)) is the
    # per-mu Poisson sum over the same frequencies; the oracle's mu-cap holds
    # every divisor of every summed xi delta.  Both routes round each term,
    # so the bound is relative to the summed term size the oracle returns:
    # at the two examples the terms reach 989 and c_2s1 = 533 against
    # E_F = 2.04, and both routes sit 3e-13 to 3e-12 (value) and 3e-12 to
    # 2e-11 (derivative) from a 30-digit sum of the same terms, about 1e-16
    # of that size
    F = make_field(D)
    z = tuple(complex(x, math.exp(t)) for x, t in (p1, p2)[:F.n])
    j = min(j, F.n - 1)
    B, s = 20.0, 2.7
    v, dv, size, dsize = eis_per_mu(F, z, s, j, B, 20000.0)
    trunc = TruncationParams(weight_bound=B)
    assert abs(eis(F, z, s, trunc) - v) <= 1e-14 * size
    assert abs(eis_dz1(F, z, s, j, trunc) - dv) <= 1e-14 * dsize


def test_eis_mu_cap_raises():
    # the largest |N(xi delta)| summed at Z2 with B = 30 is the cap that
    # just passes; one below it raises instead of truncating
    B, d = FAST.weight_bound, np.abs(F7.different.embeddings())
    M = [B * dk / (2 * math.pi * w.imag) for dk, w in zip(d, Z2)]
    _, _, e1, e2, nrm = _box(F7, *M, 10 ** 6)
    w = 2 * math.pi * (np.abs(e1) / d[0] * Z2[0].imag
                       + np.abs(e2) / d[1] * Z2[1].imag)
    top = int(np.abs(nrm[w <= B]).max())
    assert top > 100
    eis(F7, Z2, 2.0, FAST, mu_cap=top)
    with pytest.raises(CapExceeded):
        eis(F7, Z2, 2.0, FAST, mu_cap=top - 1)
    with pytest.raises(CapExceeded):
        eis_dz1(F1, (0.3 + 0.01j,), 2.0, 0, FAST, mu_cap=400)
    with pytest.raises(CapExceeded):    # B/(2 pi y) overflows over Q
        eis(F1, (0.1 + 1e-320j,), 2.0)
    # in degree 2 the half-diamond's row count is capped before its rows
    # are built: 1.1e13 rows at y = 1e-12, 1.1e161 at 1e-160
    for y in (1e-12, 1e-160):
        with pytest.raises(CapExceeded):
            eis(F7, (complex(0.1, y), complex(0.2, y)), 2.0)


@pytest.mark.parametrize("D", [1, 2, 3, 5, 7, 13])
def test_sigma_table_matches_ideal_divisor_sums(D):
    # sigma_w((m)) = sum of N(b)^w over the ideals b | (m) at the weights
    # w = 1 - 2s that E_F reads, by brute force over one generator per
    # ideal (class number 1)
    F = make_field(D)
    reps = enumerate_unit_orbits(F, 300)
    by_norm = {}
    for b in reps:
        by_norm.setdefault(abs(b.norm()), []).append(b)
    for w in (-2.0, -2.4, -3.0):
        start, (sig,), _ = lfunctions._sigma_table(F, (w,), 300)
        for m in reps:
            N = abs(m.norm())
            g = 1 if F.n == 1 else math.gcd(m.a, m.b)
            ref = math.fsum(k ** w * sum(divides(b, m) for b in bs)
                            for k, bs in by_norm.items() if N % k == 0)
            assert sig[start[g] + N // (g * g)] == pytest.approx(ref,
                                                                 rel=1e-14)


@pytest.mark.parametrize("D", [1, 2, 3, 5, 7, 13])
def test_field_zeta_closed_forms(D):
    # zeta_F(2) against Siegel's closed form; zeta_F(3) against a 30-digit
    # Hurwitz sum
    import mpmath
    from sympy.functions.combinatorial.numbers import kronecker_symbol

    F = make_field(D)
    assert field_zeta(F, 2.0) == pytest.approx(zeta2_siegel(F), rel=1e-14)
    d = F.d_F
    with mpmath.workdps(30):
        L = 1 if d == 1 else sum(
            kronecker_symbol(d, a) * mpmath.zeta(3, mpmath.mpf(a) / d)
            for a in range(1, d)) / mpmath.mpf(d) ** 3
        ref = float(mpmath.zeta(3) * L)
    assert field_zeta(F, 3.0) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("field", [F1, F7])
def test_field_zeta_rejects_w_at_most_one(field):
    # the Hurwitz sum holds for w > 1 only; below it the sum is NaN
    # (w = 0.5) or fails inside fsum (w = 1) for D = 7
    for w in (1.0, 0.5, -1.0, math.nan):
        with pytest.raises(InvalidInput):
            field_zeta(field, w)


# the last two: the Bessel terms |xi_k|^nu K_nu leave double range
@pytest.mark.parametrize("z,s", [((0.2 + 0.9j,), 2.0),
                                 ((0.2 + 0.9j, -0.3 - 1.2j), 2.0),
                                 ((0.2 + 0.9j, -0.3), 2.0),
                                 (Z2, 1.2),
                                 ((0.1 + 0.3j, 0.2 + 0.4j), 100.0),
                                 (Z2, 160.0)])
def test_eis_rejects_bad_input(z, s):
    with pytest.raises(InvalidInput):
        eis(F7, z, s, FAST)
    with pytest.raises(InvalidInput):
        eis_dz1(F7, z, s, 0, FAST)


# N(y)^s overflows at y = 1000 (s = 150 and 700; zeta_F(1400) fails too),
# Gamma(s) at s = 172, and zeta(220, 1/28) > 28^220 inside zeta_F(2s)
@pytest.mark.parametrize("field,z,s", [(F7, (0.1 + 1e3j, 0.2 + 1e3j), 150.0),
                                       (F7, (0.1 + 1e3j, 0.2 + 1e3j), 700.0),
                                       (F1, (0.1 + 1e3j,), 150.0),
                                       (F1, (0.1 + 1j,), 172.0),
                                       (F7, (0.1 + 1j, 0.2 + 1j), 110.0)])
def test_eis_large_s_raises(field, z, s):
    with pytest.raises(InvalidInput):
        eis(field, z, s)
    with pytest.raises(InvalidInput):
        eis_dz1(field, z, s)


def test_field_zeta_rejects_overflow():
    # the Hurwitz term zeta(w, 1/28) > 28^w leaves double range past w = 213
    assert field_zeta(F7, 212.0) == pytest.approx(1.0, abs=1e-13)
    for w in (214.0, 300.0, 1400.0):
        with pytest.raises(InvalidInput):
            field_zeta(F7, w)


def test_eis_direct_term_cap():
    with pytest.raises(CapExceeded):
        eis_direct(F7, Z2, 2.0, box=60.0, max_terms=10)


@pytest.mark.parametrize("field,z,cap", [(F1, (0.3 + 1.1j,), 5000),
                                         (F7, Z2, 20000.0)])
def test_eis_dz1_finite_difference(field, z, cap):
    # Wirtinger convention: dz = (1/2)(dx - i dy) at step 1e-4
    s, h = 2.0, 1e-4
    def at(w):
        return eis(field, (w,) + z[1:], s, FAST, mu_cap=cap)
    fd = ((at(z[0] + h) - at(z[0] - h)) / (2 * h)
          - 1j * (at(z[0] + 1j * h) - at(z[0] - 1j * h)) / (2 * h)) / 2
    assert eis_dz1(field, z, s, 0, FAST, mu_cap=cap) \
        == pytest.approx(fd, abs=1e-5)


# -- geodesic arcs and periods -------------------------------------------------

def test_geodesic_arc_chart():
    arc = geodesic_arc(quasi_data(A1))
    d = arc.data
    assert arc.tau.imag > 0 and arc.endpoint.imag > 0
    # endpoint is A(tau)
    assert d.A.moebius(d.j, arc.tau) == pytest.approx(arc.endpoint, abs=1e-12)
    assert arc.t_end == pytest.approx(d.eps_r1 ** 2, abs=1e-12)


def test_geodesic_arc_rejects_bad_input():
    qd = quasi_data(A1)
    for t_base in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidInput):
            geodesic_arc(qd, t_base)
    # data whose eigenvalue does not match A breaks the chart intertwining
    wrong = dataclasses.replace(qd, eps_r1=1 / qd.eps_r1)
    with pytest.raises(InvalidInput):
        geodesic_arc(wrong)
    with pytest.raises(InvalidInput):
        geodesic_period(A1, 2.0, m=0)


def test_bad_t_base_raises_under_optimize():
    # the checks are exceptions, not asserts, so python -O keeps them
    code = ("from hmsums.field_arith import make_field\n"
            "from hmsums.lfunctions import InvalidInput, geodesic_period\n"
            "F = make_field(7)\n"
            "A = F.matrix((-2, -1), (1, 1), (3, 1), (-2, -1))\n"
            "try:\n"
            "    geodesic_period(A, 2.0, t_base=-1.0)\n"
            "except InvalidInput:\n"
            "    print('raised')\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [os.path.abspath(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_period_integrand_is_periodic():
    # A-invariance of (d/dz_j) E_F dz_j: one period in u = log t apart
    qd = quasi_data(A1)
    arc = geodesic_arc(qd, 1 / abs(qd.eps_r1))
    u0 = math.log(arc.t_base)
    L = math.log(arc.t_end) - u0
    for u in (u0, u0 + 0.3 * L):
        f0 = period_integrand(arc, 2.0, u, FAST)
        f1 = period_integrand(arc, 2.0, u + L, FAST)
        assert abs(f0) > 0.1
        assert f1 == pytest.approx(f0, abs=1e-8)


@pytest.mark.parametrize("s", [1.5, 2.0])
def test_period_integrand_is_periodic_to_1e11(s):
    # E_F is A-invariant term for term once the mu-sum is complete; at
    # B = 40 the weight cut leaves under 2e-12 down to the arc's low points
    # (at B = 35 it is 2e-11 at u0 + 0.3 L for s = 2)
    qd = quasi_data(A1)
    arc = geodesic_arc(qd, 1 / abs(qd.eps_r1))
    u0 = math.log(arc.t_base)
    L = math.log(arc.t_end) - u0
    trunc = TruncationParams(weight_bound=40.0)
    for u in (u0, u0 + 0.3 * L, u0 + 0.77 * L):
        f0 = period_integrand(arc, s, u, trunc, mu_cap=1e5)
        f1 = period_integrand(arc, s, u + L, trunc, mu_cap=1e5)
        assert abs(f0) > 0.1
        assert f1 == pytest.approx(f0, abs=1e-11)


def test_period_base_point_independence_degree_two():
    p1, _ = geodesic_period(A1, 2.0, m=16, trunc=FAST, t_base=1.0,
                            tol=1e-4, mu_cap=8000)
    p2, _ = geodesic_period(A1, 2.0, m=16, trunc=FAST, tol=1e-4,
                            mu_cap=8000)
    assert p1 == pytest.approx(p2, abs=1e-7)


def test_period_base_point_independence():
    p1, _ = geodesic_period(B1, 2.0, m=32, trunc=FAST, t_base=1.0,
                            tol=1e-7, mu_cap=5000)
    p2, _ = geodesic_period(B1, 2.0, m=32, trunc=FAST, t_base=1.7,
                            tol=1e-7, mu_cap=5000)
    assert p1 == pytest.approx(p2, abs=1e-6)


def test_period_inverse_negates():
    p, _ = geodesic_period(B1, 2.0, m=32, trunc=FAST, tol=1e-7, mu_cap=5000)
    pinv, _ = geodesic_period(B1.inv(), 2.0, m=32, trunc=FAST, tol=1e-7,
                              mu_cap=5000)
    assert pinv == pytest.approx(-p, abs=1e-6)


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
def test_period_identity_degree_one(s):
    # flagship identity over Q, where everything is cheap:
    # period = Gamma((s+1)/2)^2 Vol^s / (Gamma(s) 2i d_F^s) * L_A(s)
    per, qerr = geodesic_period(B1, s, m=32, trunc=FAST, tol=1e-7,
                                mu_cap=5000)
    rhs, la_budget = period_rhs(B1, s, 20000)
    assert abs(rhs) > 0.1
    assert abs(per - rhs) < qerr + la_budget + 1e-6


def test_period_identity_degree_two():
    defect, budget, per, rhs = period_defect(
        A1, 2.0, norm_bound=3000, m=16, trunc=FAST, tol=1e-4, mu_cap=8000)
    assert abs(rhs) > 1.0
    assert defect < budget
    assert defect / abs(rhs) < 1e-3


def test_volume():
    qd = quasi_data(A1)
    assert volume(qd) == pytest.approx(
        28 * 2 * math.sqrt(-2 + RT7) * math.sqrt(2 + RT7), abs=1e-10)


# -- derivative at s = 0 -------------------------------------------------------

def test_deriv_report_main_value():
    rep = l_a_deriv_report(-(A1.inv()), trunc=FAST)
    target = math.log((9 + 3 * RT7) * math.sqrt(2 + RT7) + 18 + 7 * RT7)
    assert rep["deriv_order"] == 1
    assert rep["value"] == pytest.approx(target, abs=1e-6)
    assert "no analytic continuation" in rep["method"]


def test_deriv_report_symmetries():
    base = l_a_deriv_report(A1, trunc=FAST)["value"]
    assert l_a_deriv_report(A1.inv(), trunc=FAST)["value"] \
        == pytest.approx(-base, abs=1e-8)
    assert l_a_deriv_report(A1 * A1, trunc=FAST)["value"] \
        == pytest.approx(2 * base, abs=1e-6)
