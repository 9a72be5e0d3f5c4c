import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hmsums.field_arith import make_field
from hmsums.unit_domain import (TruncationParams, enumerate_tp_orbits,
                                enumerate_unit_orbits, log_ratio, tp_orbit_rep,
                                unit_orbit_rep, weighted_lattice)

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
    L = F.log_eta1
    t = log_ratio(rep)
    assert -L - 1e-6 <= t < L
    # Representative is constant along the orbit.
    rep2, _ = tp_orbit_rep(x * F.tp_unit.pow(k))
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


def test_truncation_params_validate():
    with pytest.raises(AssertionError):
        TruncationParams(weight_bound=-1.0)


# -- module orbits for quasi-elliptic data ------------------------------------

def _a1_data():
    from hmsums.quasi_elliptic import quasi_data
    F7 = make_field(7)
    return quasi_data(F7.matrix((-2, -1), (1, 1), (3, 1), (-2, -1)))


def test_module_orbits_empty_below_min_norm():
    from hmsums.unit_domain import enumerate_module_orbits
    assert enumerate_module_orbits(_a1_data(), 0.5) == []


def test_module_orbit_rep_invariant():
    from hmsums.unit_domain import (enumerate_module_orbits, module_orbit_rep,
                                    _eps_action)
    qd = _a1_data()
    F = qd.field
    for m, n in enumerate_module_orbits(qd, 40.0):
        assert module_orbit_rep(qd, m, n) == (m, n)
        for k in (-2, 1):
            assert module_orbit_rep(qd, *_eps_action(qd, m, n, k)) == (m, n)
        e = F.eps_fund
        assert module_orbit_rep(qd, e * m, e * n) == (m, n)
        assert module_orbit_rep(qd, -m, -n) == (m, n)


def test_module_orbits_exhaustive_small():
    # brute-force box reduced orbitwise finds exactly the enumerated set
    from hmsums.unit_domain import enumerate_module_orbits, module_orbit_rep
    qd = _a1_data()
    F = qd.field
    reps = set(enumerate_module_orbits(qd, 20.0))
    brute = set()
    for ma in range(-5, 6):
        for mb in range(-5, 6):
            for na in range(-5, 6):
                for nb in range(-5, 6):
                    m, n = F.elem(ma, mb), F.elem(na, nb)
                    if (m or n) and abs(qd.norm_beta(m, n)) <= 20:
                        brute.add(module_orbit_rep(qd, m, n))
    assert brute == reps


def test_module_orbit_count_roughly_linear():
    from hmsums.unit_domain import enumerate_module_orbits
    qd = _a1_data()
    c1 = len(enumerate_module_orbits(qd, 150.0))
    c2 = len(enumerate_module_orbits(qd, 300.0))
    assert c1 > 0
    assert c2 / c1 < 3 and c2 / c1 > 1
