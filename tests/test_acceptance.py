"""End-to-end acceptance suite.

Each block exercises one headline guarantee of the package, at its stated
tolerance and runtime budget, using only public API.  Random campaigns use
fixed seeds so failures are reproducible.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from hmsums.dedekind_sums import (fundamental_s, hecke_defect,
                                  reciprocity_defect, reduce_to_fundamental,
                                  sum_s)
from hmsums.eta_engine import (area_cocycle, classical_dedekind_s,
                               classical_phi_R, omega, phi)
from hmsums.field_arith import make_field, matrix_S, of_gcd, residues_mod
from hmsums.lfunctions import period_defect
from hmsums.quasi_elliptic import (matrix_order, psi, psi_elliptic_closed)
from hmsums.unit_domain import TruncationParams

F1 = make_field(1)
F7 = make_field(7)
RT7 = math.sqrt(7)
FAST = TruncationParams(weight_bound=30.0)
CAMPAIGN = TruncationParams(weight_bound=18.0, max_terms=100_000_000)

A1 = F7.matrix((-2, -1), (1, 1), (3, 1), (-2, -1))
A1P = F7.matrix((18, 7), (39, 15), (9, 3), (18, 7))
PSI_REF = math.log((9 + 3 * RT7) * math.sqrt(2 + RT7) + 18 + 7 * RT7)


def coprime_pairs(cmax):
    return [(d, c) for c in range(1, cmax + 1) for d in range(1, c)
            if math.gcd(c, d) == 1]


def rand_sl2z(rng, entry_cap=None):
    S = matrix_S(F1)
    while True:
        M = S
        for _ in range(rng.randint(1, 4)):
            M = M * F1.matrix(1, rng.randint(-3, 3), 0, 1) * S
        es = [abs(e.a) for e in (M.a, M.b, M.c, M.d)]
        if entry_cap is None or max(es) <= entry_cap:
            return M


def rand_mat7(rng, norm_cap=12):
    S = matrix_S(F7)
    while True:
        M = S
        for _ in range(rng.randint(1, 2)):
            q = F7.elem(rng.randint(-3, 3), rng.randint(-1, 1))
            M = M * F7.matrix(1, (q.a, q.b), 0, 1) * S
        if M.c and abs(M.c.norm()) <= norm_cap:
            return M


def rand_elem7(rng, coeff=5):
    while True:
        e = F7.elem(rng.randint(-coeff, coeff), rng.randint(-2, 2))
        if e:
            return e


# -- 1. classical exactness (exact rational arithmetic) ------------------------

def test_classical_reciprocity_and_hecke_exhaustive_under_10s():
    t0 = time.monotonic()
    pairs = coprime_pairs(60)
    for d, c in pairs:
        lhs = classical_dedekind_s(d, c) + classical_dedekind_s(c, d)
        rhs = Fraction(-1, 4) + Fraction(1, 12) * (
            Fraction(d, c) + Fraction(c, d) + Fraction(1, c * d))
        assert lhs == rhs, (d, c)
    for p in (2, 3, 5):
        for d, c in pairs:
            lhs = classical_dedekind_s(d * p, c) \
                + sum(classical_dedekind_s(d + c * r, c * p)
                      for r in range(p))
            assert lhs == (p + 1) * classical_dedekind_s(d, c), (d, c, p)
    # 500 random pairs of the degree-1 cocycle defect, exact values
    rng = random.Random(11)
    for _ in range(500):
        A, B = rand_sl2z(rng), rand_sl2z(rng)
        cs = A.c.a * B.c.a * (A * B).c.a
        sgn = (1 if cs > 0 else -1) if cs else 0
        defect = classical_phi_R(A * B) - classical_phi_R(A) \
            - classical_phi_R(B)
        assert defect == -3 * sgn
    assert time.monotonic() - t0 < 10.0


def test_classical_cocycle_defect_has_printed_positive_sign():
    # Printed form of the degree-1 relation: defect equal to +3 sign(cc'c'').
    # The engine (and the exact rational oracle) realize -3 sign(cc'c''), so
    # this check documents the sign discrepancy; see the sibling exhaustive
    # test for the relation that actually holds.
    rng = random.Random(11)
    for _ in range(500):
        A, B = rand_sl2z(rng), rand_sl2z(rng)
        cs = A.c.a * B.c.a * (A * B).c.a
        sgn = (1 if cs > 0 else -1) if cs else 0
        defect = classical_phi_R(A * B) - classical_phi_R(A) \
            - classical_phi_R(B)
        assert defect == 3 * sgn


# -- 2. degree-1 series engine against the exact Rademacher function -----------

def test_series_engine_bridge_printed_negative_sign():
    # Printed normalization: the series cocycle equals -Phi_R/12.  The engine
    # realizes +Phi_R/12 (verified below); this check documents the printed
    # sign.
    rng = random.Random(23)
    for _ in range(50):
        A = rand_sl2z(rng, entry_cap=20)
        assert phi(F1, A, trunc=FAST) == pytest.approx(
            -float(classical_phi_R(A)) / 12, abs=1e-9)


def test_series_engine_matches_rademacher_over_12():
    rng = random.Random(23)
    for _ in range(50):
        A = rand_sl2z(rng, entry_cap=20)
        assert phi(F1, A, trunc=FAST) == pytest.approx(
            float(classical_phi_R(A)) / 12, abs=1e-9)


# -- 3. degree-2 cocycle relation campaign -------------------------------------

def test_cocycle_relation_campaign_under_2min():
    t0 = time.monotonic()
    rng = random.Random(7)
    worst = 0.0
    for _ in range(100):
        while True:
            A, B = rand_mat7(rng), rand_mat7(rng)
            AB = A * B
            if AB.c and abs(AB.c.norm()) <= 12:
                break
        for _ in range(5):
            z = tuple(rng.uniform(-1, 1) + 1j * rng.uniform(0.5, 2.0)
                      for _ in range(2))
            Bz = tuple(B.moebius(k, z[k]) for k in range(2))
            d = phi(F7, AB, z, 0, CAMPAIGN) - phi(F7, A, Bz, 0, CAMPAIGN) \
                - phi(F7, B, z, 0, CAMPAIGN) - 0.25 * area_cocycle(A, B, 0)
            worst = max(worst, abs(d))
    assert worst < 1e-6
    assert time.monotonic() - t0 < 120.0


# -- 4. degree-2 reciprocity campaign ------------------------------------------

def test_reciprocity_campaign():
    rng = random.Random(41)
    done = 0
    while done < 50:
        c, d = rand_elem7(rng), rand_elem7(rng)
        if c.sign_emb(0) < 0:
            c = -c
        if d.sign_emb(0) < 0:
            d = -d
        if abs(c.norm()) > 50 or abs(d.norm()) > 50 \
                or not of_gcd(c, d).is_unit():
            continue
        zh = (rng.uniform(-1, 1) + 1j * rng.uniform(0.5, 2.0),)
        assert abs(reciprocity_defect(F7, d, c, zh, 0, FAST)) < 1e-6, (c, d)
        done += 1


# -- 5. Euclidean reduction to the fundamental sum -----------------------------

def test_reduction_script_matches_direct_sum():
    rng = random.Random(57)
    done = 0
    while done < 20:
        c, d = rand_elem7(rng), rand_elem7(rng)
        if abs(c.norm()) > 50 or not of_gcd(c, d).is_unit():
            continue
        zh = (rng.uniform(-1, 1) + 1j * rng.uniform(0.5, 2.0),)
        rs = reduce_to_fundamental(F7, d, c, zh, 0)
        direct = sum_s(F7, d, c, zh, 0, FAST)
        budget = 3 * (len(rs.terms) + 1) * 1e-8
        assert abs(rs.eval(F7, FAST) - direct) < budget, (c, d)
        done += 1


def test_worked_reduction_printed_rational_constant():
    # Printed two-term script for the pair (-2-sqrt7, 3+sqrt7) at the
    # distinguished elliptic point: elementary bracket printed as the
    # rational (72037+23827*sqrt7)/4683.  The direct evaluation disagrees
    # with this constant (the corrected closed form, verified elsewhere, has
    # bracket -12*sqrt(2+sqrt7)); this check documents the printed value.
    wc = 1j * math.sqrt(2 + RT7)
    lhs = PSI_REF / F7.R_F
    bracket = (72037 + 23827 * RT7) / 4683
    rhs = (4 * fundamental_s(F7, (wc / (-wc + 1),), 0, FAST)
           - 4 * fundamental_s(F7, (wc + 1,), 0, FAST)
           + 2 + F7.kappa * math.sqrt(2 + RT7) * bracket)
    assert lhs == pytest.approx(rhs, abs=1e-6)


# -- 6. Hecke eigen-identity ---------------------------------------------------

# D -> totally positive primes on {1, w}: a split, an inert and, where one
# has a totally positive generator, a ramified prime (2 and 3 over Q)
HECKE_PRIMES = {1: [(2, 0), (3, 0)], 2: [(3, 1), (3, 0), (2, 1)],
                3: [(4, 1), (5, 0)], 5: [(4, 1), (2, 0), (2, 1)],
                7: [(6, 1), (5, 0), (3, 1)], 13: [(4, 1), (2, 0), (5, 3)]}


def test_hecke_identity_campaign():
    rng = random.Random(63)
    for D, primes in HECKE_PRIMES.items():
        F = make_field(D)
        d, c = F.elem(1, 0), F.elem(3, 1)
        for p in (F.elem(*v) for v in primes):
            # 10 points at norm < 10, 3 above, where T_p costs N(p) + 1 sums
            for _ in range(10 if abs(p.norm()) < 10 else 3):
                zh = tuple(rng.uniform(-1, 1) + 1j * rng.uniform(0.5, 2.0)
                           for _ in range(F.n - 1))
                assert abs(hecke_defect(F, d, c, zh, p, 0, FAST)) < 1e-5, \
                    (D, p)


def test_hecke_identity_series_level():
    p = F7.elem(3, 1)
    rs = residues_mod(p)
    z = (0.13 + 0.8j, -0.4 + 1.1j)
    p1, p2 = p.embeddings()
    lhs = omega(F7, (p1 * z[0], p2 * z[1]), 0, FAST).value
    for r in rs:
        r1, r2 = r.embeddings()
        lhs += omega(F7, ((z[0] + r1) / p1, (z[1] + r2) / p2), 0, FAST).value
    rhs = (abs(p.norm()) + 1) * omega(F7, z, 0, FAST).value
    assert lhs == pytest.approx(rhs, abs=1e-8)


# -- 7. the class invariant at the worked matrices -----------------------------

def test_invariant_values_and_symmetries_under_5min():
    t0 = time.monotonic()
    # canonical representative (positive trace and c at the distinguished
    # embedding) of the first worked class: + log of the fundamental
    # relative unit of the sibling quadratic extension
    assert psi(F7, -(A1.inv()), trunc=FAST) == pytest.approx(PSI_REF,
                                                             abs=1e-4)
    # second worked class: the realized convention pairs the matrix with
    # expanding eigenvalue > 1 to the unit representative > 1, giving
    # +2.2173 (the absolute value of the log of the printed 0.1089-unit)
    target = math.log((3 + RT7) * math.sqrt(-2 + RT7) + 2 + RT7)
    v = psi(F7, A1P, trunc=FAST)
    assert v == pytest.approx(target, abs=1e-4)
    assert abs(v) == pytest.approx(2.2174, abs=2e-4)
    # symmetries: conjugation invariance, antisymmetry under inverse,
    # additivity on powers
    base = psi(F7, A1, trunc=FAST)
    P = matrix_S(F7) * F7.matrix(1, (1, 0), 0, 1)
    assert psi(F7, P.inv() * A1 * P, trunc=FAST) == pytest.approx(base,
                                                                  abs=1e-5)
    assert psi(F7, A1.inv(), trunc=FAST) == pytest.approx(-base, abs=1e-5)
    assert psi(F7, A1 * A1, trunc=FAST) == pytest.approx(2 * base, abs=1e-5)
    assert time.monotonic() - t0 < 300.0


# -- 8. geodesic period against the L-value closed form ------------------------

@pytest.mark.parametrize("A,norm_bound", [(A1, 3000), (A1P, 3000)])
def test_period_identity_worked_matrices(A, norm_bound):
    defect, budget, per, rhs = period_defect(
        A, 2.0, norm_bound=norm_bound, m=16, trunc=FAST, tol=1e-4,
        mu_cap=8000)
    assert abs(rhs) > 1.0
    assert defect < budget
    assert defect / abs(rhs) < 1e-3


# -- 9. elliptic rationality ---------------------------------------------------

@pytest.mark.parametrize("A", [matrix_S(F7),
                               F7.matrix(0, (-1, 0), (1, 0), (-1, 0))])
def test_elliptic_invariant_is_rational_multiple_of_regulator(A):
    order = matrix_order(A)
    val, witness = psi_elliptic_closed(F7, A, 0)
    assert psi(F7, A, j=0, trunc=FAST) == pytest.approx(val, abs=1e-6)
    assert abs(2 * val / F7.R_F - float(witness)) < 1e-6
    assert order % witness.denominator == 0
