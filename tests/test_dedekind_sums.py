import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hmsums.field_arith import make_field
from hmsums.eta_engine import classical_dedekind_s, phi
from hmsums.dedekind_sums import (fundamental_s, hecke_defect,
                                  hecke_transform, inv_conj, moebius_factor,
                                  neg_conj, reciprocity_defect,
                                  reciprocity_rhs, reduce_to_fundamental,
                                  sum_s, translate, unit_scale)
from hmsums.unit_domain import InvalidInput, TruncationParams
from oracles import tp_unit

F1 = make_field(1)
F7 = make_field(7)
FAST = TruncationParams(weight_bound=30.0)
ZH = (0.35 + 1.05j,)


def s1(d, c):
    return sum_s(F1, F1.elem(d), F1.elem(c), (), 0, FAST)


# -- degree 1: exact classical oracle -----------------------------------------

@pytest.mark.parametrize("d,c", [(1, 3), (5, 7), (0, 1), (3, 5), (-2, 7)])
def test_degree_one_matches_classical(d, c):
    expected = float(classical_dedekind_s(d % c, c))
    assert s1(d % c, c) == pytest.approx(expected, abs=1e-12)


def test_degree_one_common_factor_stripped():
    # s(4, 6) = s(2, 3) = -1/18
    assert s1(4, 6) == pytest.approx(-1 / 18, abs=1e-12)
    assert s1(4, 6) == pytest.approx(s1(2, 3), abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12))
def test_degree_one_random_classical(d, c):
    if math.gcd(d, c) != 1:
        return
    assert s1(d, c) == pytest.approx(float(classical_dedekind_s(d, c)),
                                     abs=1e-11)


def test_degree_one_negative_c_sign():
    # With no off-components the conjugation identity is trivial, so
    # negating c leaves the value unchanged.
    assert s1(2, -7) == pytest.approx(float(classical_dedekind_s(2, 7)),
                                      abs=1e-12)


@pytest.mark.parametrize("d,c", [(5, 7), (4, 9), (-11, 8), (1, 3)])
def test_degree_one_reduction(d, c):
    rs = reduce_to_fundamental(F1, F1.elem(d), F1.elem(c), (), 0)
    assert rs.eval(F1, FAST) == pytest.approx(s1(d, c), abs=1e-12)


def test_degree_one_hecke():
    assert hecke_defect(F1, F1.elem(5), F1.elem(7), (), F1.elem(2), 0, FAST) \
        == pytest.approx(0.0, abs=1e-12)
    assert hecke_defect(F1, F1.elem(1), F1.elem(3), (), F1.elem(3), 0, FAST) \
        == pytest.approx(0.0, abs=1e-12)


# -- degree 2: transformation identities --------------------------------------

C7 = F7.elem(3, 1)          # totally positive, norm 2
D7 = F7.elem(1, 0)


def test_well_defined_across_completions():
    # The value is independent of the Bezout completion: compare against an
    # explicit alternative completion shifted by the column (c, d).
    base = sum_s(F7, D7, C7, ZH, 0, FAST)
    alt = sum_s(F7, D7 + C7 * F7.elem(0, 0), C7, ZH, 0, FAST)
    assert alt == pytest.approx(base, abs=1e-12)


def test_negate_c_identity():
    lhs = sum_s(F7, D7, -C7, ZH, 0, FAST)
    rhs = sum_s(F7, D7, C7, neg_conj(ZH), 0, FAST)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_negate_d_identity():
    lhs = sum_s(F7, -D7, C7, ZH, 0, FAST)
    rhs = -sum_s(F7, D7, C7, neg_conj(ZH), 0, FAST)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("q", [(1, 0), (0, 1), (2, -1)])
def test_translation_identity(q):
    qe = F7.elem(*q)
    lhs = sum_s(F7, D7 + qe * C7, C7, ZH, 0, FAST)
    rhs = sum_s(F7, D7, C7, translate(ZH, qe, 0), 0, FAST)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_unit_scaling_identity():
    eps = tp_unit(F7)
    lhs = sum_s(F7, D7, eps * C7, ZH, 0, FAST)
    rhs = sum_s(F7, D7, C7, unit_scale(ZH, eps, 0), 0, FAST)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_scaling_both_arguments():
    lam = F7.elem(3, 0)
    lhs = sum_s(F7, lam * D7, lam * C7, ZH, 0, FAST)
    assert lhs == pytest.approx(sum_s(F7, D7, C7, ZH, 0, FAST), abs=1e-13)


# -- degree 2: reciprocity and reduction --------------------------------------

@pytest.mark.parametrize("d,zh", [((1, 0), ZH), ((4, 1), ZH),
                                  ((1, 0), (0.8 + 0.7j,))])
def test_reciprocity(d, zh):
    assert reciprocity_defect(F7, F7.elem(*d), C7, zh, 0, FAST) \
        == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("d,c", [((1, 0), (3, 1)), ((-2, -1), (3, 1)),
                                 ((5, 2), (4, 1))])
def test_degree_two_reduction(d, c):
    de, ce = F7.elem(*d), F7.elem(*c)
    rs = reduce_to_fundamental(F7, de, ce, ZH, 0)
    assert rs.eval(F7, FAST) == pytest.approx(
        sum_s(F7, de, ce, ZH, 0, FAST), abs=1e-11)
    assert all(sgn in (1.0, -1.0) for sgn, _ in rs.terms)


@pytest.mark.parametrize("d,c", [((2, 0), (-1, 0)), ((3, 1), (-8, -3))])
def test_reduction_ends_at_negative_unit(d, c):
    # c is a unit with c_j < 0: the reduction flips it to -c and conjugates
    # the off-point before it rescales by the unit
    de, ce = F7.elem(*d), F7.elem(*c)
    assert abs(ce.norm()) == 1 and ce.sign_emb(0) < 0
    rs = reduce_to_fundamental(F7, de, ce, ZH, 0)
    assert len(rs.terms) == 1
    assert rs.eval(F7, FAST) == pytest.approx(
        sum_s(F7, de, ce, ZH, 0, FAST), abs=1e-13)


@pytest.mark.parametrize("call", [
    lambda F: reduce_to_fundamental(F, F7.one, C7, ZH),
    lambda F: reciprocity_rhs(F, F7.one, C7, ZH),
    lambda F: sum_s(F, F7.one, C7, ZH),
    lambda F: hecke_transform(F, F7.one, C7, ZH, F7.elem(3, 1)),
])
def test_field_must_be_the_elements_field(call):
    with pytest.raises(InvalidInput, match="must lie in"):
        call(make_field(2))


def test_worked_reduction_closed_form():
    # s(d, c; z2) for d = -2-sqrt7, c = 3+sqrt7 in terms of two fundamental
    # sums and an elementary term, checked at two points.
    rt7 = math.sqrt(7)
    d = F7.elem(-2, -1)
    c1, c2 = 3 + rt7, 3 - rt7
    for z2 in (0.35 + 1.05j, -0.6 + 0.8j):
        y = z2.imag
        w = z2 - 1
        T = (1 / c1 + c1 / abs(w) ** 2
             + 1 / (c1 * abs(c2 * w + 1) ** 2)) * y
        closed = (fundamental_s(F7, (w,), 0, FAST)
                  - fundamental_s(F7, (1 / w.conjugate() + c2,), 0, FAST)
                  - 0.25 + F7.kappa * T)
        assert sum_s(F7, d, C7, (z2,), 0, FAST) \
            == pytest.approx(closed, abs=1e-11)


def test_special_value_closed_form():
    # Psi(A)/R_F for the hyperbolic matrix fixing sqrt(-2+sqrt7), expressed
    # through two fundamental sums; the elementary bracket collapses to
    # -12 kappa sqrt(2+sqrt7).
    rt7 = math.sqrt(7)
    wc = 1j * math.sqrt(2 + rt7)
    y = wc.imag
    A1 = F7.matrix((-2, -1), (1, 1), (3, 1), (-2, -1))
    psi_over_R = 4 * phi(F7, A1, z=(1j, wc), j=0, trunc=FAST) + 1
    c2 = 3 - rt7
    w = wc - 1
    closed = (4 * fundamental_s(F7, (1 / w.conjugate() + c2,), 0, FAST)
              - 4 * fundamental_s(F7, (w,), 0, FAST)
              + 2 - 12 * F7.kappa * y)
    assert psi_over_R == pytest.approx(closed, abs=1e-9)


def test_fundamental_is_minus_phi_of_inversion():
    from hmsums.field_arith import matrix_S
    S = matrix_S(F7)
    assert fundamental_s(F7, ZH, 0, FAST) \
        == pytest.approx(-phi(F7, S, z=(1j,) + ZH, j=0, trunc=FAST),
                         abs=1e-12)


# -- degree 2: Hecke eigenvalue identity --------------------------------------

def test_hecke_ramified_prime():
    # p = 3 + sqrt7 is totally positive of norm 2; eigenvalue N(p) + 1 = 3.
    assert hecke_defect(F7, D7, C7, ZH, F7.elem(3, 1), 0, FAST) \
        == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("D,p", [(3, (3, 1)), (13, (3, 1)), (7, (3, 0)),
                                 (7, (4, 1))])
def test_hecke_rejects_composite(D, p):
    # totally positive but not prime: N(3 + sqrt3) = 6; 3 + w over Q(sqrt13)
    # and 3 and 4 + sqrt7 over Q(sqrt7) have norm 9, and 3 splits in both
    # fields (N(2 + sqrt7) = -3); p = 3 over Q(sqrt7) gave a defect of 1.83
    F = make_field(D)
    p = F.elem(*p)
    assert p.is_totally_positive()
    with pytest.raises(InvalidInput):
        hecke_transform(F, F.one, F.elem(3, 1), (0.35 + 1.05j,), p)
