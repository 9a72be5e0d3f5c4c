import math
from fractions import Fraction

import pytest

from hmsums.field_arith import identity, make_field, matrix_S
from hmsums.quasi_elliptic import (NotClassifiable, NotElliptic,
                                   NotQuasiElliptic, NotStable, _sign_c_tr,
                                   classify, matrix_from_unit, matrix_order,
                                   psi, psi_elliptic_closed, quasi_data)
from hmsums.unit_domain import InvalidInput, TruncationParams
from oracles import norm_beta

F1 = make_field(1)
F7 = make_field(7)
FAST = TruncationParams(weight_bound=30.0)
RT7 = math.sqrt(7)

A1 = F7.matrix((-2, -1), (1, 1), (3, 1), (-2, -1))
A1P = F7.matrix((18, 7), (39, 15), (9, 3), (18, 7))
E3 = F7.matrix(0, (-1, 0), (1, 0), (-1, 0))       # order 3
PSI_REF = math.log((9 + 3 * RT7) * math.sqrt(2 + RT7) + 18 + 7 * RT7)


# -- classification ------------------------------------------------------------

def test_classify_examples():
    assert classify(A1) == ("hyperbolic", "elliptic")
    assert classify(matrix_S(F7)) == ("elliptic", "elliptic")
    assert classify(F7.matrix(1, (2, 1), 0, 1)) == ("parabolic", "parabolic")
    assert classify(A1P) == ("hyperbolic", "elliptic")


def test_classify_stable_under_negation_and_inverse():
    for A in (A1, matrix_S(F7), E3):
        assert classify(-A) == classify(A)
        assert classify(A.inv()) == classify(A)


# -- quasi-elliptic data -------------------------------------------------------

def test_quasi_data_fixed_points():
    qd = quasi_data(A1)
    assert qd.j == 0
    assert qd.omega_r1 == pytest.approx(math.sqrt(-2 + RT7), abs=1e-12)
    assert qd.omega_r2 == pytest.approx(-math.sqrt(-2 + RT7), abs=1e-12)
    assert qd.omega_c[0] == pytest.approx(1j * math.sqrt(2 + RT7), abs=1e-12)
    assert qd.eps_r1 == pytest.approx(
        (3 + RT7) * math.sqrt(-2 + RT7) - 2 - RT7, abs=1e-12)
    assert qd.sign_c_tr == -1


def test_quasi_data_norm_form():
    qd = quasi_data(A1)
    # N(m + n omega) with omega^2 = -2 + sqrt7: N_F(m^2 - (-2+sqrt7) n^2)
    assert norm_beta(qd, F7.one, F7.zero) == 1
    assert norm_beta(qd, F7.zero, F7.one) == (
        F7.elem(-2, 1).norm())
    assert norm_beta(qd, F7.one, F7.one) == F7.elem(3, -1).norm()


def test_quasi_data_rejects_elliptic():
    with pytest.raises(NotQuasiElliptic):
        quasi_data(matrix_S(F7))


def test_conjugate_has_conjugate_fixed_point():
    P = matrix_S(F7) * F7.matrix(1, (1, 0), 0, 1)
    B = P.inv() * A1 * P
    qd, qdB = quasi_data(A1), quasi_data(B)
    # omega_c(P^-1 A P) = P^-1(omega_c), and the K-data is unchanged
    w = qd.omega_c[0]
    assert qdB.omega_c[0] == pytest.approx(P.inv().moebius(1, w), abs=1e-10)
    assert (B.trace() * B.trace()).emb(0) == (A1.trace() * A1.trace()).emb(0)


# -- building matrices from units ---------------------------------------------

def test_matrix_from_unit_roundtrip():
    # omega^2 = -2 + sqrt7, eps = (3+sqrt7) omega - 2 - sqrt7 rebuilds A1
    M = matrix_from_unit(F7, F7.zero, F7.elem(-2, 1),
                         F7.elem(3, 1), F7.elem(-2, -1))
    assert M == A1
    # omega'^2 = 2 + sqrt7, eps' = (9+3sqrt7) omega' + 18+7sqrt7
    M2 = matrix_from_unit(F7, F7.zero, F7.elem(2, 1),
                          F7.elem(9, 3), F7.elem(18, 7))
    assert M2 == A1P
    assert matrix_from_unit(F7, F7.zero, F7.elem(-2, 1),
                            F7.zero, F7.one) == identity(F7)


def test_matrix_from_unit_rejects_a_non_unit():
    # eps = omega + 1 has relative norm 1 - (-2 + sqrt7) = 3 - sqrt7
    with pytest.raises(NotStable):
        matrix_from_unit(F7, F7.zero, F7.elem(-2, 1), F7.one, F7.one)


# -- the invariant Psi ---------------------------------------------------------

def test_psi_main_value():
    # The engine pairs the canonical matrix (positive trace and c at the
    # hyperbolic embedding) with +log of the fundamental relative unit.
    assert psi(F7, -(A1.inv()), trunc=FAST) == pytest.approx(PSI_REF, abs=1e-9)
    assert psi(F7, A1, trunc=FAST) == pytest.approx(-PSI_REF, abs=1e-9)


def test_psi_second_field_value():
    # Second construction: the invariant of this matrix (fixed points
    # +-sqrt(2+sqrt7)) is the log of a relative unit of the *other*
    # quadratic extension, generated by sqrt(-2+sqrt7); the engine pairs the
    # matrix with expanding eigenvalue > 1 to the unit representative > 1.
    qd = quasi_data(A1P)
    assert qd.eps_r1 == pytest.approx(
        (9 + 3 * RT7) * math.sqrt(2 + RT7) + 18 + 7 * RT7, abs=1e-10)
    target = math.log((3 + RT7) * math.sqrt(-2 + RT7) + 2 + RT7)
    assert psi(F7, A1P, trunc=FAST) == pytest.approx(target, abs=1e-8)


def test_psi_of_S_vanishes():
    assert psi(F7, matrix_S(F7), trunc=FAST) == pytest.approx(0.0, abs=1e-10)


def test_psi_negation_and_inverse():
    base = psi(F7, A1, trunc=FAST)
    assert psi(F7, -A1, trunc=FAST) == pytest.approx(base, abs=1e-9)
    assert psi(F7, A1.inv(), trunc=FAST) == pytest.approx(-base, abs=1e-9)


def test_psi_conjugation_invariance():
    base = psi(F7, A1, trunc=FAST)
    Ps = [matrix_S(F7), F7.matrix(1, (1, 0), 0, 1) * matrix_S(F7)]
    for P in Ps:
        assert psi(F7, P.inv() * A1 * P, trunc=FAST) \
            == pytest.approx(base, abs=1e-10)


def test_psi_power_doubling():
    base = psi(F7, A1, trunc=FAST)
    assert psi(F7, A1 * A1, trunc=FAST) == pytest.approx(2 * base, abs=1e-10)


def test_sign_c_tr_is_exact():
    # c = (8 - 3 sqrt 7)^k: the first embedding cancels in floating point
    # (it reads 0.0 at k = 7); the sign of c tr(A) is decided exactly
    u = F7.elem(8, -3)
    for k in range(1, 13):
        for sg in (1, -1):
            M = F7.matrix(1, 0, u.pow(k) * F7.elem(sg), 1)      # tr = 2
            assert _sign_c_tr(M, 0) == sg and _sign_c_tr(M, 1) == sg
    assert _sign_c_tr(matrix_S(F7), 0) == 0                     # tr = 0
    assert _sign_c_tr(F7.matrix(1, (1, 0), 0, 1), 0) == 0       # c = 0
    assert quasi_data(A1).sign_c_tr == -1
    assert quasi_data(A1P).sign_c_tr == 1


def test_psi_values_pinned():
    # the exact sign moves none of the invariants
    assert psi(F7, A1, trunc=FAST) == pytest.approx(-4.290826836070007,
                                                    rel=1e-14)
    assert psi(F7, A1P, trunc=FAST) == pytest.approx(2.2173104995708184,
                                                     rel=1e-14)
    for j in (0, 1):
        assert psi_elliptic_closed(F7, matrix_S(F7), j) == (0.0, 0)
        val, witness = psi_elliptic_closed(F7, E3, j)
        assert val == pytest.approx(1.845772922209049, rel=1e-14)
        assert witness == Fraction(4, 3)


# -- elliptic closed form ------------------------------------------------------

def test_matrix_order():
    assert matrix_order(matrix_S(F7)) == 4      # S^2 = -1
    assert matrix_order(E3) == 3
    with pytest.raises(NotElliptic):
        matrix_order(A1)


def test_elliptic_closed_form_matches_series():
    for A, j in ((matrix_S(F7), 0), (E3, 0), (E3, 1), (E3.inv(), 0),
                 (-E3, 0)):
        val, witness = psi_elliptic_closed(F7, A, j)
        assert val == pytest.approx(psi(F7, A, j=j, trunc=FAST), abs=1e-6)
        assert float(witness) == pytest.approx(2 * val / F7.R_F, abs=1e-9)


def test_elliptic_witness_denominator():
    _, witness = psi_elliptic_closed(F7, E3, 0)
    assert 3 % witness.denominator == 0
    val, wS = psi_elliptic_closed(F7, matrix_S(F7), 0)
    assert val == 0 and wS == 0


def test_elliptic_closed_rejects_quasi():
    with pytest.raises(NotElliptic):
        psi_elliptic_closed(F7, A1, 0)


@pytest.mark.parametrize("call", [
    lambda: psi(make_field(2), A1),
    lambda: psi_elliptic_closed(make_field(2), matrix_S(F7)),
])
def test_field_must_be_the_matrix_field(call):
    with pytest.raises(InvalidInput, match="must lie in"):
        call()


@pytest.mark.parametrize("call", [
    lambda: psi(F7, E3, -1),
    lambda: psi(F7, E3, 2),
    lambda: psi(F1, matrix_S(F1), 1),
    lambda: psi_elliptic_closed(F7, E3, -1),
    lambda: psi_elliptic_closed(F7, E3, 2),
])
def test_embedding_index_must_lie_in_range(call):
    with pytest.raises(InvalidInput, match="need 0 <= j <"):
        call()


def test_classification_errors_are_invalid_input():
    for exc in (NotQuasiElliptic, NotElliptic, NotClassifiable, NotStable):
        assert issubclass(exc, InvalidInput)


# -- degree-1 sanity -----------------------------------------------------------

def test_degree_one_psi():
    # 2 R Phi - (R/2) sign(c tr) with Phi the Rademacher value / 12.
    A = F1.matrix(2, 1, 1, 1)
    assert classify(A) == ("hyperbolic",)
    assert psi(F1, A, trunc=FAST) == pytest.approx(0.0, abs=1e-10)
    S = matrix_S(F1)
    assert psi(F1, S, trunc=FAST) == pytest.approx(0.0, abs=1e-10)
