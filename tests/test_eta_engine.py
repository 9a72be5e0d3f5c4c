import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hmsums import eta_engine, unit_domain
from hmsums.cli import _rand_matrix, _rand_point
from hmsums.dedekind_sums import hecke_transform
from hmsums.field_arith import InvalidInput, make_field, matrix_S, residues_mod
from hmsums.eta_engine import (apex_point, area_cocycle, classical_dedekind_s,
                               classical_phi_R, delta_cocycle, lam, omega,
                               phi)
from hmsums.unit_domain import CapExceeded, TruncationParams
from oracles import (classical_ln_eta, divides, enumerate_tp_orbits,
                     enumerate_unit_orbits, tp_orbit_rep, tp_unit,
                     unit_orbit_rep, weighted_lattice)

F1 = make_field(1)
F7 = make_field(7)
FAST = TruncationParams(weight_bound=30.0)


def sl2z(a, b, c, d):
    return F1.matrix(a, b, c, d)


def rand_sl2z(seed):
    # Short words in the standard generators give small entries.
    import random
    rng = random.Random(seed)
    M = sl2z(1, 0, 0, 1)
    S = matrix_S(F1)
    for _ in range(rng.randint(1, 4)):
        M = M * S * sl2z(1, rng.randint(-3, 3), 0, 1)
    return M


# -- degree-1 exact oracles ---------------------------------------------------

def test_classical_dedekind_values():
    assert classical_dedekind_s(1, 3) == Fraction(1, 18)
    assert classical_dedekind_s(0, 1) == 0
    assert classical_dedekind_s(1, 2) == 0
    assert classical_dedekind_s(5, 7) == -classical_dedekind_s(2, 7)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40))
def test_classical_reciprocity(c, d):
    if math.gcd(c, d) != 1:
        return
    lhs = classical_dedekind_s(d, c) + classical_dedekind_s(c, d)
    rhs = Fraction(-1, 4) + Fraction(d, 12 * c) + Fraction(c, 12 * d) \
        + Fraction(1, 12 * c * d)
    assert lhs == rhs


def test_phi_R_frozen_values():
    S = matrix_S(F1)
    assert classical_phi_R(S) == 0
    assert classical_phi_R(sl2z(1, 0, 1, 1)) == 2
    assert classical_phi_R(S * sl2z(1, 0, 1, 1)) == -1
    assert classical_phi_R(sl2z(1, 5, 0, 1)) == 5


@pytest.mark.parametrize("seed", range(8))
def test_phi_R_homomorphism_defect(seed):
    A = rand_sl2z(seed)
    B = rand_sl2z(seed + 100)
    c, cp, cpp = A.c.a, B.c.a, (A * B).c.a
    sgn = (1 if c * cp * cpp > 0 else -1) if c * cp * cpp else 0
    assert classical_phi_R(A * B) - classical_phi_R(A) - classical_phi_R(B) \
        == -3 * sgn


# -- degree-1 series engine vs closed forms -----------------------------------

@pytest.mark.parametrize("z", [0.3 + 0.8j, -1.2 + 0.4j, 2.7 + 2.0j])
def test_lam_is_ln_eta(z):
    assert lam(F1, (z,)) == pytest.approx(classical_ln_eta(z), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_phi_matches_rademacher_over_12(seed):
    A = rand_sl2z(seed)
    expected = float(classical_phi_R(A)) / 12
    assert phi(F1, A) == pytest.approx(expected, abs=1e-10)


# -- degree-2 transformation properties ---------------------------------------

A_MAIN = F7.matrix((-2, -1), (1, 1), (3, 1), (-2, -1))
OMEGA_C = 1j * math.sqrt(2 + math.sqrt(7))


def test_omega_conjugation_symmetry():
    z = (0.4 + 1.1j, -0.2 + 0.9j)
    zc = (-z[0].conjugate(), -z[1].conjugate())
    a = omega(F7, z, 0, FAST).value
    b = omega(F7, zc, 0, FAST).value
    assert b == pytest.approx(a.conjugate(), abs=1e-12)


def test_omega_term_cap():
    # at this point the nu-box holds 32,037 points and the series 32,678
    # terms, so a cap between them stops the series itself
    z = (0.3 + 0.2j, 0.1 + 0.3j)
    with pytest.raises(CapExceeded, match="series exceeds term cap"):
        omega(F7, z, 0, TruncationParams(weight_bound=30.0, max_terms=32_300))
    # over Q the row of 5.6e12 candidates is capped before it is allocated,
    # and an infinite one (B/(2 pi y) overflows) before any norm cap is cast
    for y in (1e-12, 1e-320):
        with pytest.raises(CapExceeded, match="series exceeds term cap"):
            omega(F1, (complex(0.1, y),), 0)
    # in degree 2 the half-diamond's rows are capped before they are built,
    # and before the norm cap X (inf at 1e-160) is cast
    for y in (1e-12, 1e-160):
        with pytest.raises(CapExceeded, match="series exceeds term cap"):
            omega(F7, (complex(0.1, y), complex(0.2, y)), 0)


# Omega at B = 30 at a balanced, a low and a skewed point: the term counts,
# tails and values (j = 0, 1) of the box enumeration the half-diamond rows
# replaced
OMEGA_PINNED = [
    ((0.1 + 0.27j, -0.3 + 0.27j), 25562, 5.964933939011855e-10,
     (1.3740382452110382 + 0.8760557334710397j),
     (1.3740382452110382 - 2.4586258889726005j)),
    ((0.2 + 0.08j, 0.4 + 0.9j), 26690, 6.020742364229884e-10,
     (-0.09844307821270419 + 1.2841688679711534j),
     (-0.09844307821270418 + 0.10028887541618378j)),
    ((0.3 + 0.02j, -0.1 + 3.6j), 26670, 6.020742364229884e-10,
     (-0.17816644019735825 - 0.015169578005838714j),
     (-0.17816644019735828 + 1.1132630256527047j)),
]


@pytest.mark.parametrize("z, n_terms, tail, value0, value1", OMEGA_PINNED)
def test_omega_pinned(z, n_terms, tail, value0, value1):
    for j, value in enumerate((value0, value1)):
        sv = omega(F7, z, j, FAST)
        assert sv.n_terms == n_terms
        assert sv.value == pytest.approx(value, rel=1e-12)
        assert sv.tail_error == pytest.approx(tail, rel=1e-15)


def test_omega_same_in_chunks(monkeypatch):
    # the xi expanded in chunks of at most 50 candidates (rows of one owner)
    # give the same terms as one chunk; only the summation order moves
    z = OMEGA_PINNED[0][0]
    whole = omega(F7, z, 1, FAST)
    monkeypatch.setattr(unit_domain, "_CHUNK", 50)
    parts = omega(F7, z, 1, FAST)
    assert parts.n_terms == whole.n_terms
    assert parts.tail_error == whole.tail_error
    assert parts.value == pytest.approx(whole.value, rel=1e-13)


def _omega_pairs(F, z, j, B):
    """Omega_j(z) as its defining double sum: for each nu in
    (O_F \\ 0)/U_F^+ with |N(nu)| <= nu_cap, every mu with
    alpha|mu_1| + beta|mu_2| <= B and xi_j > 0, weighted by
    1/([U_F:U_F^+] |N(nu)|); with the density tail summed per nu."""
    idx = F.unit_index
    d = F.different.embeddings()
    nu_cap = (B / (4 * math.pi)) ** 2 * F.d_F / (z[0].imag * z[1].imag)
    nus = enumerate_tp_orbits(F, nu_cap)
    total, n_terms, tail = 0j, 0, []
    for nu in nus:
        t = [nu.emb(k) / d[k] for k in (0, 1)]
        alpha, beta = (2 * math.pi * z[k].imag * abs(t[k]) for k in (0, 1))
        e1, e2, w = weighted_lattice(F, alpha, beta, B)
        xi1, xi2 = e1 * t[0], e2 * t[1]
        keep = (xi1 if j == 0 else xi2) > 0
        phase = 2 * math.pi * (xi1[keep] * z[0].real + xi2[keep] * z[1].real)
        total += np.sum(np.exp(1j * phase - w[keep])) / (idx * abs(nu.norm()))
        n_terms += int(keep.sum())
        tail.append((2.0 * (B + 2.0) / (alpha * beta) + 4.0)
                    / (idx * abs(nu.norm())))
    tail = math.fsum(tail) * math.exp(-B) / (1 - math.exp(-1.0)) \
        + math.exp(-B) * max(1, len(nus))
    return total, tail, n_terms


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13]), st.sampled_from([0, 1]),
       st.sampled_from([12.0, 20.0]),
       st.tuples(st.floats(-1, 1), st.floats(-2, 1)),
       st.tuples(st.floats(-1, 1), st.floats(-2, 1)))
def test_omega_matches_pairwise_sum(D, j, B, p1, p2):
    # one exponential per xi weighted by sigma_{-1}((xi delta)) is the
    # double sum over the pairs (nu, mu): the same pairs, values and tails
    F = make_field(D)
    z = tuple(complex(x, math.exp(t)) for x, t in (p1, p2))
    value, tail, n_terms = _omega_pairs(F, z, j, B)
    sv = omega(F, z, j, TruncationParams(weight_bound=B))
    assert sv.n_terms == n_terms
    assert sv.value == pytest.approx(value, rel=1e-12, abs=1e-300)
    assert sv.tail_error == pytest.approx(tail, rel=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13]), st.sampled_from([0, 1]),
       st.sampled_from([12.0, 20.0]), st.floats(-1, 1),
       st.one_of(st.just(0.0), st.floats(-6, 6)),
       st.tuples(st.floats(-1, 1), st.floats(-1, 1)))
@example(7, 1, 20.0, 0.0, 0.0, (0.1, 0.2))
@example(13, 0, 20.0, 0.5, 6.0, (0.3, -0.4))
@example(2, 1, 20.0, 0.5, -6.0, (-0.7, 0.9))
def test_omega_matches_pairwise_sum_at_skew_and_ties(D, j, B, m, skew, x):
    # the half-diamond rows at their edges: heights skewed up to
    # |ln(y_0/y_1)| = 6, and exact ties y_0 = y_1, where alpha = beta and
    # the rows drop their ill-conditioned second pair of bounds
    F = make_field(D)
    y = (math.exp(m),) * 2 if skew == 0 else \
        (math.exp(m + skew / 2), math.exp(m - skew / 2))
    z = tuple(complex(xk, yk) for xk, yk in zip(x, y))
    value, tail, n_terms = _omega_pairs(F, z, j, B)
    sv = omega(F, z, j, TruncationParams(weight_bound=B))
    assert sv.n_terms == n_terms
    assert sv.value == pytest.approx(value, rel=1e-12, abs=1e-300)
    assert sv.tail_error == pytest.approx(tail, rel=1e-15)


def test_omega_tail_prefix_sums_match_direct_sum(monkeypatch):
    # Omega's degree-2 tail reads the prefix sums of r(n)/n^2 and r(n)/n
    # kept with the ideal table; at a norm cap X one past the table's
    # bound (40 -> 80, doubled) and one past twice the new bound (161) it
    # equals the density summed over n <= X directly
    monkeypatch.setattr(eta_engine, "_SIGMA", {})
    F, B, key = F7, 30.0, (7, (-1.0, 0.0))
    eta_engine._sigma_table(F, (-1, 0), 40)
    c = (B / (4 * math.pi)) ** 2 * F.d_F
    for X, size in ((41, 80), (161, 161)):
        y = math.sqrt(c / (X + 0.5))            # norm cap floor(X + 0.5)
        sv = omega(F, (0.1 + 1j * y, 0.3 + 1j * y), 0, FAST)
        assert eta_engine._SIGMA[key][0] == size
        r = eta_engine._sigma_table(F, (-1, 0), X)[2]
        n = np.arange(1, X + 1)
        a = 2.0 * (B + 2.0) * F.d_F / ((2 * math.pi) ** 2 * y * y)
        direct = math.fsum(r[1:X + 1] * (a / n + 4.0) / n) \
            * math.exp(-B) / (1 - math.exp(-1.0)) \
            + math.exp(-B) * F.unit_index * int(r[1:X + 1].sum())
        assert sv.tail_error == pytest.approx(direct, rel=1e-15)


def _ideal_key(F, m):
    """The table entry of m: content g (1 over Q) and |N(m)|/g^2."""
    g = 1 if F.n == 1 else math.gcd(m.a, m.b)
    return g, abs(m.norm()) // (g * g)


@pytest.mark.parametrize("D", [1, 2, 3, 5, 7, 13])
def test_ideal_divisor_sums_match_brute_force(D):
    # sigma_w((m)), the sum of N(b)^w over the ideals b | (m), for every
    # |N(m)| <= 300, against the divisors nu | m among the unit-orbit
    # representatives (one per ideal), in the joint (-1, 0) table Omega
    # reads: tau = sigma_0 exactly, and sigma_-1 rounded once;
    # test_lfunctions checks E_F's weights
    F = make_field(D)
    reps = enumerate_unit_orbits(F, 300.0)
    start, (sig, tau), _ = eta_engine._sigma_table(F, (-1, 0), 300)
    for m in reps:
        ns = [abs(nu.norm()) for nu in reps
              if abs(m.norm()) % abs(nu.norm()) == 0 and divides(nu, m)]
        g, q = _ideal_key(F, m)
        assert tau[start[g] + q] == len(ns)
        assert sig[start[g] + q] == pytest.approx(
            math.fsum(1 / n for n in ns), rel=1e-15, abs=0)


@pytest.mark.parametrize("D", [1, 2, 3, 5, 7, 13])
def test_ideal_counts_match_unit_orbits(D):
    # r(n) = sum_{d | n} chi(d) counts the principal ideals of norm n,
    # that is the unit-orbit representatives of norm +-n
    F = make_field(D)
    r = eta_engine._sigma_table(F, (-1, 0), 500)[2]
    counts = np.bincount([abs(m.norm()) for m in enumerate_unit_orbits(
        F, 500.0)], minlength=501)
    assert (r[1:501] == counts[1:]).all()


def test_ideal_table_grows_by_doubling(monkeypatch):
    # the table grows 40 -> 80 (twice its bound) -> 500; each state holds
    # the entries of a fresh build, and Omega does not depend on the state
    monkeypatch.setattr(eta_engine, "_SIGMA", {})
    F, ws = F7, (-1, 0)
    key = (7, (-1.0, 0.0))
    z = (0.1 + 2.0j, 0.2 + 2.3j)        # norm cap 34
    first = omega(F, z, 1, FAST)
    assert eta_engine._SIGMA[key][0] == 34
    monkeypatch.setattr(eta_engine, "_SIGMA", {})
    reps = enumerate_unit_orbits(F, 500.0)
    for X, size in ((40, 40), (50, 80), (45, 80), (500, 500)):
        start, (sig, tau), r = eta_engine._sigma_table(F, ws, X)
        assert eta_engine._SIGMA[key][0] == size
        assert r.size == size + 1
        monkeypatch.setattr(eta_engine, "_SIGMA", {})
        f_start, (f_sig, f_tau), f_r = eta_engine._sigma_table(F, ws, size)
        assert (r == f_r).all()
        for m in reps:
            if abs(m.norm()) <= size:
                g, q = _ideal_key(F, m)
                assert sig[start[g] + q] == f_sig[f_start[g] + q]
                assert tau[start[g] + q] == f_tau[f_start[g] + q]
        assert omega(F, z, 1, FAST) == first


def test_input_checks_survive_optimize():
    # a point off the upper half-plane, a zero c (in apex_point, sum_s,
    # reduce_to_fundamental and delta_cocycle), a determinant other than 1,
    # a zero divisor, a sum, difference and product across two fields, the
    # unit inverse of 2, the residues modulo 0, a negative c_j in
    # reciprocity_rhs, two off-components in degree 2, and a term cap that
    # is a float, a bool or zero (in TruncationParams and
    # module_orbit_arrays), a point off the upper half-plane in lam and phi,
    # and an image point Az that underflows off it in delta_cocycle raise
    # InvalidInput, not AssertionError, so python -O keeps the checks
    code = ("from hmsums.field_arith import (divmod_near, make_field,\n"
            "                                residues_mod)\n"
            "from hmsums.quasi_elliptic import quasi_data\n"
            "from hmsums.unit_domain import (TruncationParams,\n"
            "                                module_orbit_arrays)\n"
            "from hmsums.dedekind_sums import (check_zhat, reciprocity_rhs,\n"
            "                                  reduce_to_fundamental, sum_s)\n"
            "from hmsums.eta_engine import (apex_point, delta_cocycle, lam,\n"
            "                               omega, phi)\n"
            "from hmsums.unit_domain import InvalidInput\n"
            "F, G = make_field(7), make_field(5)\n"
            "T, zh = F.matrix(1, 1, 0, 1), (0.3 + 1j,)\n"
            "calls = [lambda: omega(F, (0.1 + 0.5j, 0.2 - 0.1j), 0),\n"
            "         lambda: apex_point(F, T),\n"
            "         lambda: sum_s(F, F.one, F.zero, zh),\n"
            "         lambda: reduce_to_fundamental(F, F.one, F.zero, zh),\n"
            "         lambda: delta_cocycle(F, T, (0.3 + 1j, 2j)),\n"
            "         lambda: F.matrix(2, 0, 0, 1),\n"
            "         lambda: divmod_near(F.one, F.zero),\n"
            "         lambda: F.one + G.one,\n"
            "         lambda: F.one - G.one,\n"
            "         lambda: F.one * G.one,\n"
            "         lambda: F.elem(2).inv_unit(),\n"
            "         lambda: residues_mod(F.zero),\n"
            "         lambda: reciprocity_rhs(F, F.one, -F.elem(3, 1), zh),\n"
            "         lambda: check_zhat(F, zh + zh, 0),\n"
            "         lambda: TruncationParams(30.0, 2.5),\n"
            "         lambda: TruncationParams(20.0, True),\n"
            "         lambda: TruncationParams(20.0, 0),\n"
            "         lambda: lam(F, (0.1 + 0.5j, -0.1j)),\n"
            "         lambda: phi(F, F.matrix(0, -1, 1, 0), (1j, -2j)),\n"
            "         lambda: delta_cocycle(F, F.matrix(1, 0, 1, 1),\n"
            "                               (1e15 + 1e-300j, 1j))]\n"
            "A1 = quasi_data(F.matrix((-2, -1), (1, 1), (3, 1), (-2, -1)))\n"
            "for c in (0, 55.5, True):\n"
            "    calls.append(lambda c=c: module_orbit_arrays(A1, 100.0, c))\n"
            "for call in calls:\n"
            "    try:\n"
            "        call()\n"
            "    except InvalidInput:\n"
            "        print('raised')\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [os.path.abspath(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"] * 23


@pytest.mark.parametrize("call", [
    lambda: classical_ln_eta(0.3 - 0.1j),
    lambda: classical_dedekind_s(1, 0),
    lambda: classical_phi_R(A_MAIN),
    lambda: hecke_transform(F7, F7.one, F7.elem(3, 1), (0.2 + 1j,),
                            F7.elem(1, 1)),
    lambda: tp_orbit_rep(F7.zero),
    lambda: unit_orbit_rep(F7.zero),
    lambda: weighted_lattice(F7, 0.0, 1.0, 10.0),
])
def test_bad_input_raises_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


Z = (0.3 + 1.1j, 0.2 + 0.9j)


@pytest.mark.parametrize("call", [
    lambda: phi(make_field(2), A_MAIN),
    lambda: phi(make_field(2), F7.matrix(1, 1, 0, 1)),
    lambda: delta_cocycle(make_field(2), A_MAIN, Z),
])
def test_field_must_be_the_matrix_field(call):
    with pytest.raises(InvalidInput, match="must lie in"):
        call()


@pytest.mark.parametrize("call", [
    lambda: phi(F7, A_MAIN, j=-1),
    lambda: phi(F7, A_MAIN, j=2),
    lambda: phi(F7, F7.matrix(1, 1, 0, 1), j=2),
    lambda: phi(F1, sl2z(1, 0, 1, 1), j=1),
    lambda: omega(F7, Z, -1),
    lambda: omega(F1, (0.3 + 1.1j,), 1),
    lambda: lam(F7, Z, 2),
    lambda: delta_cocycle(F7, A_MAIN, Z, -1),
    lambda: delta_cocycle(F1, sl2z(1, 0, 1, 1), (0.3 + 1.1j,), 1),
])
def test_embedding_index_must_lie_in_range(call):
    with pytest.raises(InvalidInput, match="need 0 <= j <"):
        call()


def test_points_checked_once_per_public_call(monkeypatch):
    # phi, delta_cocycle, lam and omega call one another on points
    # already checked and skip the check there: phi and delta_cocycle
    # validate z and the image point Az, the others z
    fresh = []
    check = eta_engine.check_uhp

    def counting(field, z, j):
        fresh.append(type(z) is not eta_engine._UHPPoint)
        return check(field, z, j)

    monkeypatch.setattr(eta_engine, "check_uhp", counting)
    for call, points in ((lambda: phi(F7, A_MAIN, trunc=FAST), 2),
                         (lambda: phi(F7, A_MAIN, z=Z, trunc=FAST), 2),
                         (lambda: delta_cocycle(F7, A_MAIN, Z, 0, FAST), 2),
                         (lambda: lam(F7, Z, 1, FAST), 1),
                         (lambda: omega(F7, Z, 0, FAST), 1)):
        fresh.clear()
        call()
        assert sum(fresh) == points


def test_image_point_leaving_upper_half_plane_raises():
    # Im(Az) = y/|cz + d|^2 underflows to 0 at a checked z
    with pytest.raises(InvalidInput, match="upper half-plane"):
        delta_cocycle(F1, sl2z(1, 0, 1, 1), (1e15 + 1e-300j,))


def test_lam_translation_invariance():
    z = (0.2 + 0.7j, 0.4 + 1.1j)
    q = F7.elem(1, 1)
    zq = (z[0] + q.emb(0), z[1] + q.emb(1))
    expected = 1j * math.pi * F7.kappa * q.emb(0) * z[1].imag
    assert lam(F7, zq, 0, FAST) - lam(F7, z, 0, FAST) \
        == pytest.approx(expected, abs=1e-12)


def test_lam_unit_scaling_invariance():
    # the second point is skewed (y_1/y_2 = 1/180), where unit balancing acts
    e1, e2 = tp_unit(F7).embeddings()
    for z in [(0.2 + 0.7j, 0.4 + 1.1j), (0.3 + 0.02j, -0.1 + 3.6j)]:
        zu = (e1 * e1 * z[0], e2 * e2 * z[1])
        assert lam(F7, zu, 0, FAST) \
            == pytest.approx(lam(F7, z, 0, FAST), abs=1e-11)


def test_transformation_defect_purely_imaginary():
    z = (0.3 + 0.9j, -0.7 + 1.3j)
    d = delta_cocycle(F7, A_MAIN, z, 0, FAST)
    assert abs(d.real) < 1e-9


def test_phi_independent_of_own_component():
    # the defect at z depends on z_j only through its truncation error, so
    # phi, which evaluates it with z_j at the apex, ignores z_j exactly
    z1, z2 = (0.3 + 0.9j, -0.7 + 1.3j), (-1.1 + 0.4j, -0.7 + 1.3j)
    d1, d2 = (delta_cocycle(F7, A_MAIN, z, 0, FAST).imag / math.pi
              for z in (z1, z2))
    assert d1 == pytest.approx(d2, abs=1e-9)
    assert phi(F7, A_MAIN, z1, 0, FAST) == phi(F7, A_MAIN, z2, 0, FAST)


def test_phi_matches_defect_at_drawn_points():
    # the draws of `hmsums verify cocycle --d 7 --trials 100 --seed 3`,
    # where a j-height falls to 0.004: phi at the apex agrees with the
    # defect at the drawn z wherever the term cap lets that be evaluated
    rng, worst, refused = random.Random(3), 0.0, 0
    for _ in range(100):
        while True:
            A, B = _rand_matrix(F7, rng), _rand_matrix(F7, rng)
            if A.c and B.c and (A * B).c and abs((A * B).c.norm()) <= 12:
                break
        z = _rand_point(rng, 2)
        j = rng.randrange(2)
        Bz = tuple(B.moebius(k, z[k]) for k in range(2))
        for M, w in ((A * B, z), (A, Bz), (B, z)):
            try:
                drawn = delta_cocycle(F7, M, w, j).imag / math.pi
            except CapExceeded:
                refused += 1
                continue
            worst = max(worst, abs(phi(F7, M, w, j) - drawn))
    assert 0 < refused < 100 and worst < 1e-12


def test_cocycle_relation_degree_two():
    S = matrix_S(F7)
    B = S * F7.matrix(1, 0, (1, 1), 1)
    AB = A_MAIN * B
    z = apex_point(F7, AB)
    for j in (0, 1):
        Bz = tuple(B.moebius(k, z[k]) for k in range(2))
        defect = phi(F7, AB, z=z, j=j, trunc=FAST) \
            - phi(F7, A_MAIN, z=Bz, j=j, trunc=FAST) \
            - phi(F7, B, z=z, j=j, trunc=FAST)
        sgn = (A_MAIN.c * B.c * AB.c).sign_emb(j)
        assert defect == pytest.approx(-0.25 * sgn, abs=1e-7)


def test_area_cocycle_exact_values():
    S1 = matrix_S(F1)
    T = sl2z(1, 1, 0, 1)
    L = sl2z(1, 0, 1, 1)
    assert area_cocycle(T, T) == 0          # both triangular
    assert area_cocycle(S1, S1) == 0        # AB = -I has c'' = 0
    assert area_cocycle(S1, L) == -1
    S7 = matrix_S(F7)
    B = S7 * F7.matrix(1, 0, (1, 1), 1)
    for j in (0, 1):
        sgn = (A_MAIN.c * B.c * (A_MAIN * B).c).sign_emb(j)
        assert area_cocycle(A_MAIN, B, j) == -sgn
    # u = eps^-12 is about 4e-15 at the first embedding, where its float
    # image a + b w rounds to 0.0; c'' = 2u, so Delta = -sign(u_j)
    u = F7.eps_fund.pow(-12)
    L7 = F7.matrix(1, 0, u, 1)
    assert (area_cocycle(L7, L7, 0), area_cocycle(L7, L7, 1)) == (-1, -1)


def test_worked_invariant_value():
    # Matrix with eigenvalue > 1 fixing omega = sqrt(-2+sqrt(7)); its
    # normalized special value is the log of a fundamental relative unit.
    A = -(A_MAIN.inv())
    assert A.trace().sign_emb(0) > 0 and A.c.sign_emb(0) > 0
    p = phi(F7, A, z=(1j, OMEGA_C), j=0, trunc=FAST)
    psi = 4 * F7.R_F * p - F7.R_F
    target = math.log((9 + 3 * math.sqrt(7)) * math.sqrt(2 + math.sqrt(7))
                      + 18 + 7 * math.sqrt(7))
    assert psi == pytest.approx(target, abs=1e-9)


def test_hecke_identity_omega_level():
    p = F7.elem(3, 1)        # totally positive, norm 2
    rs = residues_mod(p)
    assert len(rs) == 2
    z = (0.13 + 0.8j, -0.4 + 1.1j)
    p1, p2 = p.embeddings()
    lhs = omega(F7, (p1 * z[0], p2 * z[1]), 0, FAST).value
    for r in rs:
        r1, r2 = r.embeddings()
        lhs += omega(F7, ((z[0] + r1) / p1, (z[1] + r2) / p2), 0, FAST).value
    rhs = (abs(p.norm()) + 1) * omega(F7, z, 0, FAST).value
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_phi_upper_triangular():
    U = F7.matrix(1, (2, 1), 0, 1)
    z = (0.5 + 0.8j, 0.1 + 1.7j)
    expected = F7.kappa * U.b.emb(0) * z[1].imag
    assert phi(F7, U, z=z, j=0) == pytest.approx(expected, abs=1e-14)
    eps = F7.eps_fund
    D = F7.matrix(eps, 0, 0, eps.inv_unit())
    assert phi(F7, D, z=z, j=0) == 0.0


def test_tail_estimate_reported():
    sv = omega(F7, (0.3 + 1.0j, 0.1 + 1.2j), 0, FAST)
    assert sv.n_terms > 0
    assert 0 < sv.tail_error < 1e-8
