"""Truncation caps and lattice enumeration over O_F and the modules of
quasi-elliptic matrices.

One row kernel, _expand_rows, expands every enumeration here and enforces
its point cap: the boxes of _lattice_boxes, the half-diamond of
_half_diamond_rows (the xi of the Kronecker-limit-formula sums at one point
per call, through eta_engine._xi_chunks; its vertices and row range are
Python floats, its per-row bounds arrays) and the per-n boxes of
module_orbit_arrays, the orbit representatives of L_A.  The kernel expands
rows that fit in _CHUNK points at once.  The reference orbit enumerations
and representatives of O_F \\ {0} under U_F^+ and U_F live with the tests
(tests/oracles.py).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .field_arith import InvalidInput

# Nudge for the floating-point window tests, so that elements landing exactly
# on the window boundary (units themselves) are classified consistently.
_EDGE = 1e-9

# Candidate points the box kernel expands at once; bounds its working memory.
_CHUNK = 2_000_000

# Width, in log coordinates, of the cells that tile the module-orbit v-window.
_CELL = 2.0

# Widening of the module-orbit window and norm bounds in log coordinates, and
# of every box relative to its size: far above the rounding error of the
# computed (u, v) and of the box ends, so each representative lies in a box.
_MARGIN = 1e-6

# Largest value the exact-norm arithmetic may meet in int64; beyond it the
# arithmetic runs on Python ints.
_INT64_LIMIT = 2 ** 63 - 1


class CapExceeded(RuntimeError):
    """An enumeration or series would exceed its term cap.

    Raised instead of asserting, so the caps survive ``python -O``."""


def check_max_terms(max_terms) -> None:
    """A term cap is an integer (not a bool) at least 1."""
    if isinstance(max_terms, bool) or not (
            isinstance(max_terms, numbers.Integral) and max_terms >= 1):
        raise InvalidInput(f"need an integer max_terms >= 1, got "
                           f"{max_terms!r}")


@dataclass(frozen=True)
class TruncationParams:
    """Cutoffs for the exponential series.

    weight_bound is the exponent cutoff: terms with decay exponent above it
    are dropped (e^-35 is below double-precision resolution relative to the
    leading terms).  max_terms caps the total lattice points per evaluation.
    """

    weight_bound: float = 35.0
    max_terms: int = 5_000_000

    def __post_init__(self):
        if not 0 < self.weight_bound < math.inf:
            raise InvalidInput(f"need a finite weight_bound > 0, got "
                               f"{self.weight_bound}")
        check_max_terms(self.max_terms)


_NO_INTS = np.zeros(0, dtype=np.int64)


def _ragged_arange(start: np.ndarray, count: np.ndarray,
                   ends: np.ndarray = None) -> np.ndarray:
    """start[i], start[i] + 1, ..., start[i] + count[i] - 1, concatenated;
    ends, when given, is count.cumsum()."""
    ends = count.cumsum() if ends is None else ends
    return np.arange(ends[-1] if ends.size else 0, dtype=np.int64) \
        + (start - (ends - count)).repeat(count)


def _expand_rows(owner, b, lo, hi, max_terms: int, what: str):
    """The one lattice-row kernel of this module: row i holds the points
    a + b[i]*w with int64 bounds lo[i] <= a <= hi[i].  Returns an iterator
    of int64 arrays (owner, a, b), ordered by row, then a, in chunks of
    about _CHUNK points (a longer row is a chunk of its own); rows that fit
    in one chunk are expanded at once.  owner may be None (one owner), and
    is then yielded as None.  Raises CapExceeded ("what: N points, cap M")
    when called, before any point is expanded, for more than max_terms
    points."""
    cnt = np.maximum(hi - lo + 1, 0)
    ends = cnt.cumsum()
    total = int(ends[-1]) if ends.size else 0
    if total > max_terms:
        raise CapExceeded(f"{what}: {total} points, cap {max_terms}")

    def chunks():
        if cnt.size and total <= _CHUNK:
            yield (None if owner is None else owner.repeat(cnt),
                   _ragged_arange(lo, cnt, ends), b.repeat(cnt))
            return
        start = 0
        while start < cnt.size:
            stop = max(start + 1, int(np.searchsorted(
                ends, ends[start] - cnt[start] + _CHUNK, side="right")))
            c = cnt[start:stop]
            yield (None if owner is None else owner[start:stop].repeat(c),
                   _ragged_arange(lo[start:stop], c), b[start:stop].repeat(c))
            start = stop
    return chunks()


def _lattice_boxes(w: tuple, lo1, hi1, lo2, hi2, max_terms: int):
    """Integer points a + b*w inside a batch of boxes.

    w = (w1, w2), w1 > w2, are the two real images of the second basis
    vector of a rank-2 lattice whose first basis vector is 1 at both (the
    basis {1, w} of O_F, or {1, omega} of Z + omega*Z).  Box i is
    lo1[i] <= a + b*w1 <= hi1[i], lo2[i] <= a + b*w2 <= hi2[i]; its rows are
    the b with b*(w1 - w2) in [lo1 - hi2, hi1 - lo2], each an interval of a,
    and _expand_rows expands them.

    Yields int64 arrays (owner, a, b), the points of box owner ordered by
    box, then b, then a, in chunks of about _CHUNK points (a longer row is
    a chunk of its own).  Raises CapExceeded, before expanding any point,
    when the boxes hold more than max_terms rows or points.
    """
    w1, w2 = w
    lo1, hi1, lo2, hi2 = (np.atleast_1d(np.asarray(x, dtype=float))
                          for x in (lo1, hi1, lo2, hi2))
    span = w1 - w2
    b_lo = np.ceil((lo1 - hi2) / span)
    nrow = np.maximum(np.floor((hi1 - lo2) / span) - b_lo + 1, 0)
    nrow[(lo1 > hi1) | (lo2 > hi2)] = 0
    if nrow.sum() > max_terms:
        raise CapExceeded(f"lattice box too large: {nrow.sum():.0f} rows, "
                          f"cap {max_terms}")
    nrow = nrow.astype(np.int64)
    owner = np.repeat(np.arange(nrow.size), nrow)
    b = _ragged_arange(b_lo.astype(np.int64), nrow)
    lo = np.ceil(np.maximum(lo1[owner] - b * w1,
                            lo2[owner] - b * w2)).astype(np.int64)
    hi = np.floor(np.minimum(hi1[owner] - b * w1,
                             hi2[owner] - b * w2)).astype(np.int64)
    yield from _expand_rows(owner, b, lo, hi, max_terms,
                            "lattice box too large")


def _half_diamond_rows(w: tuple, alpha: float, beta: float, sign: float,
                       j: int, bound: float, max_terms: int):
    """Rows (b, lo, hi) for _expand_rows (with owner None) covering the
    half-diamond alpha|mu_1| + beta|mu_2| <= bound, sign*mu_j > 0 of the
    points mu = a + b*w (w as in _lattice_boxes), for one point: alpha,
    beta > 0 and sign = +-1 are floats.  Raises CapExceeded, before any row
    is built, for more than max_terms rows or an infinite or undefined row
    count.

    The rows b lie between its three vertices, since mu_1 - mu_2 =
    b(w1 - w2); the vertices, the slack and the row range are floats, and
    only the per-row bounds are arrays.  On each row, |s a + u| <= bound,
    |d a + v| <= bound (s, d = alpha +- beta, u, v = b(alpha w1 +- beta w2))
    and the sign of mu_j bound a to one interval.  Each end is widened by
    1e-9 of the size of the terms it is computed from, far above their
    rounding error.  The second pair is dropped when |d| < 1e-4 s: it is
    ill-conditioned there and nearly implied by the row range.  The rows
    hold every point of the half-diamond and few others, so callers keep
    their own membership tests.
    """
    w1, w2 = w
    span = w1 - w2
    apex = sign * bound / alpha if j == 0 else -sign * bound / beta
    side = bound / beta if j == 0 else bound / alpha
    slack = 1e-9 * (abs(apex) + side) / span
    first = min(apex, -side) / span - slack
    last = max(apex, side) / span + slack
    if not (math.isfinite(first) and math.isfinite(last)):
        raise CapExceeded(f"series exceeds term cap: {last - first:.3g} rows")
    first, last = math.ceil(first), math.floor(last)
    if last - first + 1 > max_terms:
        raise CapExceeded(f"series exceeds term cap: "
                          f"{last - first + 1:.3g} rows")
    b = np.arange(first, max(last + 1, first), dtype=np.int64)
    # x * -y is -(x * y) exactly, so neg_u is -u and edge is -b w_j
    tol = 1e-9 * (bound + np.abs(b) * (alpha * abs(w1) + beta * abs(w2)))
    s, d = alpha + beta, alpha - beta
    neg_u = b * -(alpha * w1 + beta * w2)
    b_tol = bound + tol
    lo = (neg_u - bound - tol) / s
    hi = (b_tol + neg_u) / s
    if abs(d) >= 1e-4 * s:
        c = b * -(alpha * w1 - beta * w2) / d
        r = b_tol / abs(d)
        lo = np.maximum(lo, c - r)
        hi = np.minimum(hi, c + r)
    edge = b * -(w1 if j == 0 else w2)
    if sign > 0:
        lo = np.maximum(lo, edge - 1e-9 * np.abs(edge))
    else:
        hi = np.minimum(hi, edge + 1e-9 * np.abs(edge))
    return b, np.ceil(lo).astype(np.int64), np.floor(hi).astype(np.int64)


def _columns(parts: list, empty: tuple) -> tuple:
    """Concatenate a list of equal-width tuples of arrays column by column;
    `empty` fixes the width and dtypes when the list is empty."""
    return tuple(np.concatenate(col) for col in zip(empty, *parts))


# -- module orbits of quasi-elliptic data -------------------------------------

class ModuleOrbits(NamedTuple):
    """Representatives beta = m + n*omega of (M \\ 0)/U as arrays, one entry
    per orbit, sorted by n, then m (see module_orbit_arrays).

    ma, mb, na, nb are the int64 O_F coordinates of m and n on {1, w}
    (mb = nb = 0 over Q); beta_r1 > 0 and beta_r2 are the real images at the
    hyperbolic embedding.  |N(beta)| = norm_num / norm_den exactly, with
    norm_num = |N_F(c N_{K/F}(beta))| (int64, or Python ints in an object
    array when int64 could overflow) and norm_den = |N_F(c)|.
    """

    ma: np.ndarray
    mb: np.ndarray
    na: np.ndarray
    nb: np.ndarray
    beta_r1: np.ndarray
    beta_r2: np.ndarray
    norm_num: np.ndarray
    norm_den: int


def _exact(arrays, bound: int) -> list:
    """The integer arrays as int64 when no value computed from them exceeds
    `bound` in absolute value, else as object arrays of Python ints."""
    dtype = np.int64 if bound <= _INT64_LIMIT else object
    return [np.asarray(x).astype(dtype) for x in arrays]


def _rel_norms(data, ma, mb, na, nb) -> np.ndarray:
    """|N_F(c m^2 + (a-d) m n - b n^2)| = |N_F(c)| |N(m + n omega)| for
    coordinate arrays of m and n, in exact integer arithmetic.

    With w^2 = t w + p (FieldData.norm_form), every product of two elements
    with coordinates at most K1 and K2 has coordinates at most g*K1*K2,
    g = max(1 + p, 2 + t), so the relative norm has coordinates at most
    R = 3 g^2 C K^2 (C bounds the matrix entries, K the inputs) and its
    norm, x^2 + t x y - p y^2, at most (1 + t + p) R^2; each stage runs in
    int64 only when its bound fits.
    """
    F, A = data.field, data.A
    t, p = F.norm_form
    g = max(1 + p, 2 + t)
    coef = [(e.a, e.b) for e in (A.c, A.a - A.d, A.b)]
    C = max(abs(v) for e in coef for v in e)
    K = max((int(np.abs(x).max()) for x in (ma, mb, na, nb) if x.size),
            default=0)
    ma, mb, na, nb = _exact((ma, mb, na, nb), 3 * g * g * C * K * K)
    m, n = (ma, mb), (na, nb)
    terms = [F.mul(coef[0], F.mul(m, m)), F.mul(coef[1], F.mul(m, n)),
             F.mul(coef[2], F.mul(n, n))]
    x, y = (terms[0][k] + terms[1][k] - terms[2][k] for k in range(2))
    R = max((int(np.abs(v).max()) for v in (x, y) if v.size), default=0)
    x, y = _exact((x, y), (1 + t + p) * R * R)
    return np.abs(F.norm(x, y))


def _cell_edges(lo: float, hi: float) -> np.ndarray:
    """Edges of about-_CELL-wide cells tiling [lo, hi); the first and last
    are lo and hi exactly."""
    return np.linspace(lo, hi, max(1, round((hi - lo) / _CELL)) + 1)


def _beta_r1_boxes(delta, P, e0: float, e1: float) -> tuple:
    """Boxes [lo, hi], at most three a row, holding every t = beta_r1 > 0
    with beta_r2 = t - delta, e0 <= |beta_r1 / beta_r2| <= e1 (e0 < 1 < e1)
    and |beta_r1 beta_r2| <= P, for arrays delta and P.  Returns (N, 3)
    arrays lo, hi; an empty box has lo > hi.

    beta_r2 > 0: t >= max(delta, 0), the ratio gives t >= -e0 delta/(1-e0)
    and t >= e1 delta/(e1-1), and t(t - delta) <= P gives
    t <= (delta + sqrt(delta^2 + 4P))/2.  beta_r2 < 0: 0 < t < delta, the
    ratio gives e0 delta/(1+e0) <= t <= e1 delta/(1+e1), and t(delta - t)
    <= P removes the open gap between the roots (delta -+ sqrt(delta^2 -
    4P))/2 when delta^2 > 4P.  Each box reaches pad = _MARGIN (|delta| +
    sqrt P) past its ends, and boxes of a row that come within pad of each
    other are merged, so the boxes of a row are more than pad apart.
    """
    d2 = delta * delta
    root = np.sqrt(np.maximum(d2 - 4 * P, 0.0))
    split = d2 > 4 * P
    gap_lo = np.where(split, (delta - root) / 2, np.inf)
    gap_hi = np.where(split, (delta + root) / 2, np.inf)
    neg_lo = np.maximum(e0 * delta / (1 + e0), 0.0)
    neg_hi = np.minimum(e1 * delta / (1 + e1), delta)
    pos_lo = np.maximum(np.maximum(delta, 0.0), np.maximum(
        -e0 * delta / (1 - e0), e1 * delta / (e1 - 1)))
    pos_hi = (delta + np.sqrt(d2 + 4 * P)) / 2
    pad = _MARGIN * (np.abs(delta) + np.sqrt(P))
    lo = np.stack([neg_lo, np.maximum(neg_lo, gap_hi), pos_lo], 1) \
        - pad[:, None]
    hi = np.stack([np.minimum(neg_hi, gap_lo), neg_hi, pos_hi], 1) \
        + pad[:, None]
    # sorted by lo, empty boxes last, then swept: a box within pad of the
    # one before becomes their hull, and the one before is emptied
    lo[lo > hi] = np.inf
    order = np.argsort(lo, axis=1)
    lo, hi = np.take_along_axis(lo, order, 1), np.take_along_axis(hi, order, 1)
    for i in (0, 1):
        join = lo[:, i + 1] <= hi[:, i] + pad
        hi[join, i + 1] = np.maximum(hi[join, i], hi[join, i + 1])
        lo[join, i + 1] = lo[join, i]
        lo[join, i] = np.inf
    return lo, hi


def module_orbit_arrays(data, norm_bound: float,
                        max_terms: int = TruncationParams.max_terms
                        ) -> ModuleOrbits:
    """Representatives of (M \\ 0)/U with |N(beta)| <= norm_bound, as arrays.

    M = O_F + omega*O_F is the module attached to quasi-elliptic data; the
    unit group U is generated by -1, the fundamental unit of F (acting as a
    scalar) and the relative unit eps (acting through the matrix).  Orbits
    are keyed by two log coordinates: u = ln|beta_r1/beta_r2|, shifted by
    eps only, and in degree 2 v = ln|beta_r1 beta_r2| - ln|beta_c|^2,
    shifted by the F-units only.  Half-open centred windows
    [-Wu, Wu) x [-Wv, Wv) (nudged by _EDGE) pick the representative, and
    beta_r1 > 0 folds the sign.

    Covering.  The v-window is tiled by cells [v0, v1) about _CELL wide
    (one cell, and no v, over Q).  On a cell, with P = |beta_r1 beta_r2|,
    T = ln X and ln|N| = ln P + 2 ln|beta_c|, every representative has
    ln P <= (T + v1)/2 (ln P <= T over Q) and |beta_c| <= e^((T - v0)/4).
    The u-window needs no cells, since beta_r1 - beta_r2 = delta =
    n_j(omega_r1 - omega_r2) is fixed by n.  delta is 2 sqrt(P) sinh(u/2)
    when beta_r2 > 0 and 2 sqrt(P) cosh(u/2) when beta_r2 < 0, so the
    n-box of a cell is delta in [2 sqrt(P) sinh(-Wu/2), 2 sqrt(P)
    cosh(Wu/2)] and, since Im beta_c = n_k Im omega_c,
    |n_k| <= |beta_c|/Im omega_c.  For each n, u in the window and the
    bound on P hold t = beta_r1 to at most three intervals in closed form
    (_beta_r1_boxes), each an m-box: m_j = t - n_j omega_r1, and m_k within
    the beta_c disk (over Q, a row of m).

    Margins.  The u-window and P enter these bounds widened by _MARGIN in
    log coordinates, and every box end moves out by a further
    _MARGIN (|delta| + sqrt P).  The computed (u, v) of a point differs
    from the exact one by rounding error only (at most 2e-14 over the
    representatives of the worked matrices at X = 8000, against 40-digit
    values), far below _MARGIN, so every representative whose computed
    (u, v) passes the window tests lies in the exact intervals of the
    widened window.  The computed box ends are a few roundings from those
    intervals relative to |delta| + sqrt P.  The worst is the root split
    near delta^2 = 4P, where the square root of a cancelling difference
    errs by about 1e-8 |delta|, still far below the second widening.  The
    boxes of one n and cell are more than that widening apart, so a point
    is enumerated at most once per cell.  It is kept only in the cell its
    computed v falls in, and only when its computed u is in the window, so
    no representative is lost or found twice.  The norm bound is decided
    exactly: |N_F(c N_{K/F}(beta))| <= floor(X) |N_F(c)| in integers.

    Candidates run through the box kernel in chunks of about _CHUNK points.
    The output is sorted by n, then m, each by its second coordinate, then
    its first.  Raises CapExceeded when one batch of boxes holds more than
    max_terms candidates; every representative is a candidate, so this
    caps the representatives too, and InvalidInput for a max_terms that
    is not an integer >= 1.
    """
    check_max_terms(max_terms)
    F = data.field
    X = math.floor(norm_bound)
    den = abs(data.A.c.norm())
    if X < 1:
        return ModuleOrbits(*(_NO_INTS,) * 4, np.zeros(0), np.zeros(0),
                            _NO_INTS, den)
    T = math.log(X)
    j, k = data.j, 1 - data.j
    r1, r2 = data.omega_r1, data.omega_r2
    span = r1 - r2
    wc = data.omega_c[0] if F.n == 2 else None
    Wu = abs(math.log(abs(data.eps_r1)))
    U0, U1 = -Wu - _EDGE, Wu - _EDGE
    # per v-cell: P, the bound on |beta_r1 beta_r2|, widened by _MARGIN in
    # log scale, and the points of a batch of boxes in the j-coordinate and,
    # in degree 2, the k-coordinate of m or n
    if F.n == 1:
        P = np.full(1, math.exp(T + _MARGIN))

        def points(box_j, box_k):
            # over Q, m and n are integers: one row per box, its size
            # checked in floats before the ends are cast to int64
            lo, hi = np.ceil(box_j[0]), np.floor(box_j[1])
            total = np.maximum(hi - lo + 1, 0).sum()
            if total > max_terms:
                raise CapExceeded(f"lattice box too large: {total:.0f} "
                                  f"points, cap {max_terms}")
            rows = np.arange(lo.size)
            return _expand_rows(rows, np.zeros_like(rows), lo.astype(np.int64),
                                hi.astype(np.int64), max_terms,
                                "lattice box too large")
    else:
        v_edges = _cell_edges(-2 * F.R_F - _EDGE, 2 * F.R_F - _EDGE)
        V0, V1 = v_edges[:-1], v_edges[1:]
        P = np.exp((T + V1) / 2 + _MARGIN)
        M3 = np.exp((T - V0) / 4 + _MARGIN)

        def points(box_j, box_k):
            return _lattice_boxes(F.w_embs, *(box_j + box_k if j == 0
                                              else box_k + box_j), max_terms)

    # the delta-range, widened: |u| <= Wu + _EDGE bounds the window
    half = (Wu + _EDGE + _MARGIN) / 2
    d_lo, d_hi = -2 * np.sqrt(P) * math.sinh(half), \
        2 * np.sqrt(P) * math.cosh(half)
    n_cell, n_a, n_b = _columns(list(points(
        ((d_lo - _MARGIN * d_hi) / span, (d_hi + _MARGIN * d_hi) / span),
        None if F.n == 1 else (-M3 / wc.imag, M3 / wc.imag))),
        (_NO_INTS,) * 3)
    nj = n_a + n_b * F.w_embs[j]
    lo, hi = _beta_r1_boxes(nj * span, P[n_cell], math.exp(U0 - _MARGIN),
                            math.exp(U1 + _MARGIN))
    box_n, col = np.nonzero(lo <= hi)
    # per box: its v-cell and the terms of beta that n fixes, each computed
    # as it would be for every point
    cell, nj = n_cell[box_n], nj[box_n]
    shift, shift2 = nj * r1, nj * r2
    mk_box = None
    if F.n == 2:
        nk = (n_a + n_b * F.w_embs[k])[box_n]
        h = np.sqrt(np.maximum(M3[cell] ** 2 - (nk * wc.imag) ** 2, 0.0))
        mk_box = (-nk * wc.real - h, -nk * wc.real + h)
        nk_wc, v0, v1 = nk * wc, V0[cell], V1[cell]

    # the orbit-window tests, as float tests on the computed (u, v), and the
    # cell test: a point counts only in the v-cell [v0, v1) its v falls in
    keep = []
    for i, ma, mb in points((lo[box_n, col] - shift, hi[box_n, col] - shift),
                            mk_box):
        mj = ma + mb * F.w_embs[j]
        b1 = mj + shift[i]
        b2 = mj + shift2[i]
        ok = np.nonzero(b1 > 0)[0]
        b1, b2, i = b1[ok], b2[ok], i[ok]
        u = np.log(b1) - np.log(np.abs(b2))
        hit = (U0 <= u) & (u < U1)
        if F.n == 2:
            mk = ma[ok] + mb[ok] * F.w_embs[k]
            bc2 = np.abs(mk + nk_wc[i]) ** 2
            v = np.log(b1 * np.abs(b2)) - np.log(bc2)
            hit &= (v0[i] <= v) & (v < v1[i])
        sel = ok[hit]
        keep.append((ma[sel], mb[sel], box_n[i[hit]], b1[hit], b2[hit]))
    ma, mb, n, b1, b2 = _columns(keep, (_NO_INTS,) * 3 + (np.zeros(0),) * 2)
    na, nb = n_a[n], n_b[n]
    num = _rel_norms(data, ma, mb, na, nb)
    sel = np.nonzero(num <= X * den)[0]
    sel = sel[np.lexsort((ma[sel], mb[sel], na[sel], nb[sel]))]
    return ModuleOrbits(ma[sel], mb[sel], na[sel], nb[sel], b1[sel], b2[sel],
                        num[sel], den)
