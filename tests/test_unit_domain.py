import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hmsums import unit_domain
from hmsums.field_arith import make_field
from hmsums.quasi_elliptic import quasi_data
from hmsums.unit_domain import (CapExceeded, InvalidInput, TruncationParams,
                                module_orbit_arrays)
from oracles import (_box, _eps_action, enumerate_module_orbits,
                     enumerate_tp_orbits, enumerate_unit_orbits, log_eta1,
                     log_ratio, module_orbit_rep, norm_beta, rel_norm_num,
                     tp_orbit_rep, tp_unit, unit_orbit_rep, weighted_lattice)

SUPPORTED = [2, 3, 5, 7, 13]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SUPPORTED), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-4, 4))
# x = -7(3 + sqrt 7) sits on the window edge, and the small embedding of
# x * eta^4 cancels in floating point
@example(D=7, a=-21, b=-7, k=3)
def test_tp_rep_canonical_and_invariant(D, a, b, k):
    F = make_field(D)
    x = F.elem(a, b)
    if not x:
        return
    rep, _ = tp_orbit_rep(x)
    L = log_eta1(F)
    t = log_ratio(rep)
    assert -L - 1e-6 <= t < L
    # Representative is constant along the orbit.
    rep2, _ = tp_orbit_rep(x * tp_unit(F).pow(k))
    assert rep2 == rep
    assert rep.norm() == x.norm()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SUPPORTED), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-3, 3), st.sampled_from([1, -1]))
def test_unit_rep_invariant(D, a, b, k, s):
    F = make_field(D)
    x = F.elem(a, b)
    if not x:
        return
    rep = unit_orbit_rep(x)
    assert rep.sign_emb(0) > 0
    y = x * F.eps_fund.pow(k)
    assert unit_orbit_rep(y if s == 1 else -y) == rep
    assert abs(rep.norm()) == abs(x.norm())


def test_tp_orbit_count_small():
    F = make_field(7)
    reps = enumerate_tp_orbits(F, 1.0)
    # Norm +-1 orbits: exactly the units, i.e. {+-1} mod eta^Z.
    assert sorted((r.a, r.b) for r in reps) == [(-1, 0), (1, 0)]
    reps8 = enumerate_tp_orbits(F, 8.0)
    norms = sorted(abs(r.norm()) for r in reps8)
    assert norms.count(1) == 2
    # Every orbit appears exactly once.
    seen = set()
    for r in reps8:
        key = tp_orbit_rep(r)[0]
        assert key not in seen
        seen.add(key)


@pytest.mark.parametrize("D", SUPPORTED)
def test_tp_vs_full_orbit_counts(D):
    # |orbits mod U_F^+| = [U_F : U_F^+] * |orbits mod U_F| for each |N|.
    F = make_field(D)
    tp = enumerate_tp_orbits(F, 20.0)
    full = enumerate_unit_orbits(F, 20.0)
    from collections import Counter
    ctp = Counter(abs(r.norm()) for r in tp)
    cfull = Counter(abs(r.norm()) for r in full)
    assert set(ctp) == set(cfull)
    for n in ctp:
        assert ctp[n] == F.unit_index * cfull[n]


def test_rational_mode_orbits():
    F = make_field(1)
    assert sorted(r.a for r in enumerate_tp_orbits(F, 3.0)) == [-3, -2, -1, 1, 2, 3]
    assert [r.a for r in enumerate_unit_orbits(F, 3.0)] == [1, 2, 3]
    x = F.elem(-5)
    assert tp_orbit_rep(x)[0] == x
    assert unit_orbit_rep(x) == F.elem(5)


def test_weighted_lattice_quadratic():
    F = make_field(7)
    e1, e2, w = weighted_lattice(F, 0.7, 1.3, 12.0)
    assert len(e1) > 0
    assert (w <= 12.0 + 1e-12).all()
    assert w.min() == pytest.approx(2.0, abs=1e-12)     # mu = +-1
    # Consistency of weights with the embedding arrays.
    import numpy as np
    assert np.allclose(w, 0.7 * np.abs(e1) + 1.3 * np.abs(e2))
    # Closed under negation.
    pairs = {(round(a, 9), round(b, 9)) for a, b in zip(e1, e2)}
    assert all((-a, -b) in pairs for a, b in pairs)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SUPPORTED), st.floats(0.2, 20.0), st.floats(0.2, 20.0),
       st.floats(0.5, 25.0))
def test_weighted_lattice_norm_bound(D, alpha, beta, bound):
    # |N(mu)| >= 1 and AM-GM: every weight is at least 2 sqrt(alpha beta),
    # so the lattice is empty once 4 alpha beta > bound^2
    F = make_field(D)
    _, _, w = weighted_lattice(F, alpha, beta, bound)
    floor = 2 * math.sqrt(alpha * beta)
    assert (w >= floor * (1 - 1e-12)).all()
    if 4 * alpha * beta > bound * bound:
        assert w.size == 0


def test_weighted_lattice_rational():
    F = make_field(1)
    e1, e2, w = weighted_lattice(F, 0.5, 0.5, 3.0)
    assert sorted(e1) == [-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("w", [make_field(7).w_embs, make_field(5).w_embs,
                               (1 + math.sqrt(3), 1 - math.sqrt(3))])
def test_lattice_boxes_match_brute_force(w, monkeypatch):
    # every integer point a + b*w of each box, ordered by box, b, a, and the
    # same points whether expanded at once or in chunks of 7
    rng = np.random.default_rng(11)
    lo1, lo2 = rng.uniform(-9, 5, 6), rng.uniform(-9, 5, 6)
    hi1, hi2 = lo1 + rng.uniform(-1, 8, 6), lo2 + rng.uniform(-1, 8, 6)
    expect = [(i, a, b) for i in range(6) for b in range(-30, 31)
              for a in range(-60, 61)
              if lo1[i] <= a + b * w[0] <= hi1[i]
              and lo2[i] <= a + b * w[1] <= hi2[i]]
    for chunk in (2_000_000, 7):
        monkeypatch.setattr(unit_domain, "_CHUNK", chunk)
        parts = list(unit_domain._lattice_boxes(w, lo1, hi1, lo2, hi2, 10_000))
        got = [tuple(map(int, p)) for part in parts for p in zip(*part)]
        assert got == expect
        # a chunk holds at most `chunk` points, or one row
        assert all(p[0].size <= chunk
                   or np.unique(p[0] * 1000 + p[2]).size == 1 for p in parts)
        assert len(parts) > 1 if chunk == 7 else len(parts) == 1
    with pytest.raises(CapExceeded):
        list(unit_domain._lattice_boxes(w, lo1, hi1, lo2, hi2, 10))


def _half_diamond_points(F, alpha, beta, sign, j, bound):
    """The rows' points (i, a, b) of each diamond i and the row count, and
    the same diamonds by brute force: the whole box |mu_1| <= bound/alpha,
    |mu_2| <= bound/beta with the weight and sign tests."""
    cand, n_rows, brute = [], 0, set()
    for i in range(alpha.size):
        rows = unit_domain._half_diamond_rows(
            F.w_embs, float(alpha[i]), float(beta[i]), float(sign[i]), j,
            bound, 10 ** 6)
        n_rows += rows[0].size
        cand += [(i, int(a), int(b))
                 for _, a_s, b_s in unit_domain._expand_rows(
                     None, *rows, 10 ** 7, "rows")
                 for a, b in zip(a_s, b_s)]
        A, B, e1, e2, _ = _box(F, bound / alpha[i], bound / beta[i],
                               10 ** 7)
        keep = (alpha[i] * np.abs(e1) + beta[i] * np.abs(e2) <= bound) \
            & (sign[i] * (e1 if j == 0 else e2) > 0)
        brute |= {(i, int(a), int(b)) for a, b in zip(A[keep], B[keep])}
    return cand, n_rows, brute


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUPPORTED), st.sampled_from([0, 1]),
       st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-2.0, 10.0),
                          st.sampled_from([1.0, -1.0])), min_size=1,
                max_size=3),
       st.floats(1.0, 30.0))
# alpha = beta exactly: the second pair of constraints is dropped
@example(D=7, j=0, diamonds=[(0.0, 6.0, 1.0), (0.0, 3.0, -1.0)], bound=20.0)
def test_half_diamond_rows_match_brute_force(D, j, diamonds, bound):
    # each diamond: log(alpha/beta), log of its area bound^2/(alpha beta)
    # and the sign of mu_j; the rows hold exactly the brute-force points
    # that pass the weight and sign tests, and at most two others a row
    F = make_field(D)
    w1, w2 = F.w_embs
    rho, area, sign = (np.array(c) for c in zip(*diamonds))
    ab = bound * bound / np.exp(area)
    alpha, beta = np.sqrt(ab * np.exp(rho)), np.sqrt(ab / np.exp(rho))
    cand, n_rows, brute = _half_diamond_points(F, alpha, beta, sign, j, bound)
    assert len(set(cand)) == len(cand)
    pts = np.array(cand, dtype=np.int64).reshape(-1, 3)
    i, a, b = pts.T
    e1, e2 = a + b * w1, a + b * w2
    keep = (alpha[i] * np.abs(e1) + beta[i] * np.abs(e2) <= bound) \
        & (sign[i] * (e1 if j == 0 else e2) > 0)
    assert set(map(tuple, pts[keep].tolist())) == brute
    assert len(cand) <= len(brute) + 2 * n_rows


def test_truncation_params_validate():
    # a negative, infinite or NaN weight bound is rejected at construction,
    # not by the series it would break
    for bound in (-1.0, math.inf, math.nan):
        with pytest.raises(InvalidInput):
            TruncationParams(weight_bound=bound)


# -- module orbits for quasi-elliptic data ------------------------------------

_A1P = make_field(7).matrix((18, 7), (39, 15), (9, 3), (18, 7))


def _a1_data():
    F7 = make_field(7)
    return quasi_data(F7.matrix((-2, -1), (1, 1), (3, 1), (-2, -1)))


def test_module_orbits_empty_below_min_norm():
    assert enumerate_module_orbits(_a1_data(), 0.5) == []


def test_module_orbit_rep_invariant():
    qd = _a1_data()
    F = qd.field
    for m, n in enumerate_module_orbits(qd, 40.0):
        assert module_orbit_rep(qd, m, n) == (m, n)
        for k in (-2, 1):
            assert module_orbit_rep(qd, *_eps_action(qd, m, n, k)) == (m, n)
        e = F.eps_fund
        assert module_orbit_rep(qd, e * m, e * n) == (m, n)
        assert module_orbit_rep(qd, -m, -n) == (m, n)


def _brute_reps(qd, X, box):
    """Reference enumerator: every beta = m + n*omega with coordinates in
    the box (|m.a|, |m.b|, |n.a|, |n.b|) <= box and |N(beta)| <= X,
    reduced orbitwise with module_orbit_rep, in the enumeration order."""
    F = qd.field
    grids = np.meshgrid(*(np.arange(-r, r + 1) for r in box), indexing="ij")
    ma, mb, na, nb = (g.ravel() for g in grids)
    j = qd.j
    mj, nj = ma + mb * F.w_embs[j], na + nb * F.w_embs[j]
    nrm = np.abs((mj + nj * qd.omega_r1) * (mj + nj * qd.omega_r2))
    if F.n == 2:
        k = 1 - j
        nrm = nrm * np.abs(ma + mb * F.w_embs[k]
                           + (na + nb * F.w_embs[k]) * qd.omega_c[0]) ** 2
    reps = set()
    for i in np.nonzero((nrm > 0) & (nrm <= X * (1 + 1e-6)))[0]:
        m, n = F.elem(int(ma[i]), int(mb[i])), F.elem(int(na[i]), int(nb[i]))
        if abs(norm_beta(qd, m, n)) <= X:
            reps.add(module_orbit_rep(qd, m, n))
    return sorted(reps, key=lambda r: (r[1].b, r[1].a, r[0].b, r[0].a))


def test_module_orbits_exhaustive_small():
    # brute-force boxes reduced orbitwise find exactly the enumerated set, in
    # the same order; the boxes hold every representative with room to spare
    F1 = make_field(1)
    cases = [(_a1_data(), 20.0, (5, 5, 5, 5)),
             (quasi_data(_A1P), 20.0, (16, 7, 8, 4)),
             (quasi_data(F1.matrix(2, 3, 1, 2)), 60.0, (14, 0, 8, 0))]
    for qd, X, box in cases:
        reps = enumerate_module_orbits(qd, X)
        assert len(reps) > 10
        assert reps == _brute_reps(qd, X, box)


# orbit counts of (M \ 0)/U at norm bound 8000
@pytest.mark.parametrize("name,count", [("A1", 6297), ("A1inv", 6297),
                                        ("A1sq", 12594), ("A1P", 12273)])
def test_module_orbit_counts_pinned(name, count):
    A1 = _a1_data().A
    A = {"A1": A1, "A1inv": A1.inv(), "A1sq": A1 * A1, "A1P": _A1P}[name]
    orb = module_orbit_arrays(quasi_data(A), 8000.0)
    assert orb.norm_num.size == count
    assert (orb.beta_r1 > 0).all()
    assert (orb.norm_num <= 8000 * orb.norm_den).all()


def test_exact_norm_paths_agree(monkeypatch):
    # int64 and Python-int arithmetic give the same norms, and the overflow
    # guard moves huge coordinates to Python ints
    qd = quasi_data(_A1P)
    orb = module_orbit_arrays(qd, 8000.0)
    coords = (orb.ma, orb.mb, orb.na, orb.nb)
    fast = unit_domain._rel_norms(qd, *coords)
    assert fast.dtype == np.int64
    assert np.array_equal(fast, orb.norm_num)
    monkeypatch.setattr(unit_domain, "_INT64_LIMIT", 0)
    slow = unit_domain._rel_norms(qd, *coords)
    assert slow.dtype == object
    assert slow.tolist() == fast.tolist()
    monkeypatch.undo()
    big = [x[:50] * 10 ** 6 + 1 for x in coords]
    exact = unit_domain._rel_norms(qd, *big)
    assert exact.dtype == object
    F = qd.field
    ref = [abs(rel_norm_num(qd, F.elem(a, b), F.elem(c, d)).norm())
           for a, b, c, d in zip(*(x.tolist() for x in big))]
    assert exact.tolist() == ref
    assert max(ref) > 2 ** 63


def test_module_orbit_cap():
    # at X = 500 the m-boxes of A1 span 1,089 rows and 2,950 candidates for
    # 386 representatives
    assert len(enumerate_module_orbits(_a1_data(), 500.0, 2950)) == 386
    with pytest.raises(CapExceeded, match="2950 points"):
        enumerate_module_orbits(_a1_data(), 500.0, max_terms=2000)
    from hmsums import lfunctions
    assert lfunctions.CapExceeded is CapExceeded


def test_caps_raise_under_optimize():
    # the term caps are exceptions, not asserts, so python -O keeps them
    code = ("from hmsums.field_arith import make_field\n"
            "from hmsums.lfunctions import eis\n"
            "from hmsums.unit_domain import CapExceeded\n"
            "try:\n"
            "    eis(make_field(7), (0.1j, 0.1j), 2.0, mu_cap=100)\n"
            "except CapExceeded:\n"
            "    print('raised')\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [os.path.abspath(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_module_orbit_count_roughly_linear():
    qd = _a1_data()
    c1 = len(enumerate_module_orbits(qd, 150.0))
    c2 = len(enumerate_module_orbits(qd, 300.0))
    assert c1 > 0
    assert c2 / c1 < 3 and c2 / c1 > 1
