import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hmsums.field_arith import (InvalidInput, NotCoprime, divmod_near,
                                ext_gcd, identity, kronecker, make_field,
                                matrix_S, of_gcd)

SUPPORTED = [2, 3, 5, 7, 13]


def fld(D):
    return make_field(D)


# -- field constants ----------------------------------------------------------

def test_field_constants_d7():
    F = fld(7)
    assert F.d_F == 28
    assert not F.basis_half
    eps = F.eps_fund
    assert (eps.a, eps.b) == (8, 3)
    assert eps.norm() == 1
    assert F.unit_index == 2
    assert F.R_F == pytest.approx(math.log(8 + 3 * math.sqrt(7)), abs=1e-14)
    d = F.different
    assert d.norm() == -F.d_F
    assert F.tp_unit == eps


def test_field_constants_d5():
    F = fld(5)
    assert F.d_F == 5 and F.basis_half
    eps = F.eps_fund
    assert (eps.a, eps.b) == (0, 1)
    assert eps.norm() == -1
    assert F.unit_index == 4
    assert F.tp_unit == eps * eps
    assert F.tp_unit.is_totally_positive()
    assert F.different.norm() == -5


@pytest.mark.parametrize("D", SUPPORTED)
def test_unit_and_regulator(D):
    F = fld(D)
    eps = F.eps_fund
    assert abs(eps.norm()) == 1
    assert eps.embeddings()[0] > 1
    u = F.tp_unit
    assert u.is_totally_positive() and u.norm() == 1
    assert F.unit_index == (2 if eps.norm() == 1 else 4)


@pytest.mark.parametrize("D,expected", [
    # zeta_F(2) reference values (Dedekind zeta at 2).
    (5, 1.1616711956186385),
    (2, 1.4349714337366840),
])
def test_zeta2_reference(D, expected):
    assert fld(D).zeta2 == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("D,value", [(2, Fraction(1, 12)), (3, Fraction(1, 6)),
                                     (5, Fraction(1, 30)), (7, Fraction(2, 3)),
                                     (13, Fraction(1, 6))])
def test_zeta_closed_form(D, value):
    # Siegel's zeta_F(-1), and zeta_F(2) = zeta(2) L(2, chi_d) summed with
    # Hurwitz zeta values in 30 digits
    import mpmath
    from sympy.functions.combinatorial.numbers import kronecker_symbol
    from hmsums.field_arith import _zeta_minus_one
    F = fld(D)
    d = F.d_F
    assert _zeta_minus_one(d) == value
    with mpmath.workdps(30):
        L = sum(kronecker_symbol(d, r) * mpmath.zeta(2, mpmath.mpf(r) / d)
                for r in range(1, d + 1)) / d ** 2
        ref = float(mpmath.zeta(2) * L)
    assert F.zeta2 == pytest.approx(ref, rel=2e-15)


def test_kappa_rational_mode():
    F = fld(1)
    assert F.kappa == pytest.approx(1 / 12)
    assert F.R_F == 0.5
    assert F.elem(3, 4).a == 7     # coordinates collapse in degree 1


def test_kappa_formula_d7():
    F = fld(7)
    assert F.kappa == pytest.approx(
        F.d_F * F.zeta2 / (4 * F.R_F * math.pi ** 3), rel=1e-14)
    assert 0 < F.kappa < 1


# -- element arithmetic -------------------------------------------------------

def coords(draw_range=40):
    return st.integers(-draw_range, draw_range)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUPPORTED), coords(), coords(), coords(), coords())
def test_norm_multiplicative(D, a, b, c, d):
    F = fld(D)
    x, y = F.elem(a, b), F.elem(c, d)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).trace() == (x * y).conj().trace()
    assert x * x.conj() == F.elem(x.norm())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUPPORTED), coords(), coords())
def test_embeddings_match_exact_data(D, a, b):
    F = fld(D)
    x = F.elem(a, b)
    e = x.embeddings()
    assert sum(e) == pytest.approx(x.trace(), abs=1e-8)
    assert e[0] * e[1] == pytest.approx(x.norm(), abs=1e-6)
    for k in range(2):
        s = x.sign_emb(k)
        if abs(e[k]) > 1e-9:
            assert s == (1 if e[k] > 0 else -1)


def test_sign_emb_tight_cases():
    F = fld(7)
    # 8 - 3*sqrt(7) is tiny but positive; 3*sqrt(7) - 8 negative.
    assert F.elem(8, -3).sign_emb(0) == 1
    assert F.elem(-8, 3).sign_emb(0) == -1
    assert F.elem(8, 3).sign_emb(1) == 1       # second embedding flips b
    assert F.elem(0, 0).sign_emb(0) == 0
    G = fld(5)
    # (1 - sqrt(5))/2 < 0 < (1 + sqrt(5))/2
    assert G.elem(0, 1).sign_emb(0) == 1
    assert G.elem(0, 1).sign_emb(1) == -1


def test_inv_unit():
    F = fld(7)
    e = F.eps_fund
    assert e * e.inv_unit() == F.one
    G = fld(5)
    u = G.eps_fund                      # norm -1
    assert u * u.inv_unit() == G.one
    assert u.pow(-3) * u.pow(3) == G.one


# -- division and gcd ---------------------------------------------------------

def test_divmod_near_example():
    F = fld(7)
    d = F.elem(-2, -1)                  # -2 - sqrt(7)
    c = F.elem(3, 1)                    # 3 + sqrt(7)
    q, r = divmod_near(d, c)
    assert d == c * q + r
    assert abs(r.norm()) < abs(c.norm())
    assert (q.a, q.b) == (-1, 0) and (r.a, r.b) == (1, 0)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUPPORTED), coords(), coords(), coords(), coords())
def test_divmod_near_descends(D, a, b, c, d):
    F = fld(D)
    x, y = F.elem(a, b), F.elem(c, d)
    if not y:
        return
    q, r = divmod_near(x, y)
    assert x == y * q + r
    assert abs(r.norm()) < abs(y.norm())


def test_ext_gcd_witnesses():
    F = fld(7)
    c = F.elem(3, 1)
    d = F.elem(-2, -1)
    a, b = ext_gcd(c, d)
    assert a * d - b * c == F.one
    a, b = ext_gcd(F.elem(1), F.zero)
    assert a * F.zero - b * F.one == F.one
    a, b = ext_gcd(c, F.one)
    assert a * F.one - b * c == F.one


def test_ext_gcd_not_coprime():
    F = fld(7)
    with pytest.raises(NotCoprime):
        ext_gcd(F.elem(2), F.elem(0, 2))     # both divisible by 2... gcd 2
    g = of_gcd(F.elem(2), F.elem(0, 2))
    assert abs(g.norm()) == 4


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SUPPORTED), coords(12), coords(12), coords(12), coords(12))
def test_ext_gcd_random(D, a, b, c, d):
    F = fld(D)
    x, y = F.elem(a, b), F.elem(c, d)
    if not (x or y):
        return
    try:
        u, v = ext_gcd(x, y)
    except NotCoprime:
        return
    assert u * y - v * x == F.one


# -- matrices -----------------------------------------------------------------

def test_matrix_basics():
    F = fld(7)
    S = matrix_S(F)
    assert S * S.inv() == identity(F)
    assert (S * S) == -identity(F)
    A = F.matrix((-2, -1), (1, 1), (3, 1), (-2, -1))
    assert A * A.inv() == identity(F)
    z = 0.3 + 1.1j
    w = A.moebius(0, z)
    assert A.inv().moebius(0, w) == pytest.approx(z, abs=1e-12)


def test_matrix_det_check():
    F = fld(7)
    with pytest.raises(InvalidInput):
        F.matrix(1, 0, 0, 2)


# -- the character of F -------------------------------------------------------

@pytest.mark.parametrize("D", SUPPORTED)
def test_kronecker_counts_roots(D):
    # chi(p) + 1 is the number of roots mod p of the minimal polynomial of
    # w, and chi has period d_F (the divisor sums of omega rely on both)
    F = fld(D)
    q = (D - 1) // 4 if F.basis_half else D
    for p in [p for p in range(2, 200) if all(p % k for k in range(2, p))]:
        roots = sum((x * x - (x if F.basis_half else 0) - q) % p == 0
                    for x in range(p))
        assert kronecker(F.d_F, p) == roots - 1
    for n in range(1, 200):
        assert kronecker(F.d_F, n + F.d_F) == kronecker(F.d_F, n)
    with pytest.raises(InvalidInput):
        kronecker(F.d_F, 0)
