"""Truncation caps and lattice enumeration over O_F and the modules of
quasi-elliptic matrices.

One row kernel, _expand_rows, expands every enumeration here and enforces
its point cap: the boxes of _lattice_boxes, the half-diamond of
_half_diamond_rows (the xi of the Kronecker-limit-formula sums at one point
per call, through eta_engine._xi_chunks; its vertices and row range are
Python floats, its per-row bounds arrays) and the cell boxes of
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

# Width, in log coordinates, of the cells that tile the module-orbit window.
_CELL = 2.0

# Widening of every cell box, in log coordinates: far above the rounding
# error of the computed (u, v), so each point lies inside its cell's box.
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

    Cell covering.  The window is tiled by cells [u0, u1) x [v0, v1) about
    _CELL wide.  On a cell, with P = |beta_r1 beta_r2|, T = ln X and
    ln|N| = ln P + 2 ln|beta_c|, every representative satisfies
    ln P <= (T + v1)/2, |beta_r1| <= e^((ln P + u1)/2),
    |beta_r2| <= e^((ln P - u0)/2) and |beta_c| <= e^((T - v0)/4).  These
    bounds, widened by _MARGIN in log coordinates, give the cell's box: an
    n-box for the coefficient n, since beta_r1 - beta_r2 = n_j(omega_r1 -
    omega_r2) and Im beta_c = n_k Im omega_c, and for each n an m-box
    (over Q, one box in (m, n) directly).  The computed (u, v) of a point
    differs from the exact one by rounding error only (at most 2e-14 over
    the representatives of the worked matrices at X = 8000, against 40-digit
    values), far below _MARGIN, so every representative whose computed
    (u, v) falls in a cell lies inside that cell's box.  A point is kept
    only in the cell its computed (u, v) falls in; the cells are disjoint
    and cover the window, so no representative is lost or found twice.  The
    window tests are the float tests of the orbit windows, and the norm
    bound is decided exactly: |N_F(c N_{K/F}(beta))| <= floor(X) |N_F(c)|
    in integers.

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
    wc = data.omega_c[0] if F.n == 2 else None
    Wu = abs(math.log(abs(data.eps_r1)))
    u_edges = _cell_edges(-Wu - _EDGE, Wu - _EDGE)
    v_edges = np.zeros(2) if F.n == 1 else \
        _cell_edges(-2 * F.R_F - _EDGE, 2 * F.R_F - _EDGE)
    # per cell, u-major: the box radii, each widened by _MARGIN in log scale
    U0, V0 = (x.ravel() for x in np.meshgrid(u_edges[:-1], v_edges[:-1],
                                             indexing="ij"))
    U1, V1 = (x.ravel() for x in np.meshgrid(u_edges[1:], v_edges[1:],
                                             indexing="ij"))
    lnP = (T + V1) / 2 if F.n == 2 else np.full(U0.shape, T)
    M1 = np.exp((lnP + U1) / 2 + _MARGIN)
    M2 = np.exp((lnP - U0) / 2 + _MARGIN)
    lo_r1 = -_MARGIN * M1               # beta_r1 > 0, with a margin

    if F.n == 1:
        # beta = m + n*omega with m, n in Z: one box per cell in (m, n)
        chunks = ((cell, ma, np.zeros_like(ma), nb, np.zeros_like(nb))
                  for cell, ma, nb in _lattice_boxes(
                      (r1, r2), lo_r1, M1, -M2, M2, max_terms))
    else:
        M3 = np.exp((T - V0) / 4 + _MARGIN)

        def by_embedding(box_j, box_k):
            return box_j + box_k if j == 0 else box_k + box_j

        span = r1 - r2
        n_cell, n_a, n_b = _columns(list(_lattice_boxes(
            F.w_embs, *by_embedding(((lo_r1 - M2) / span, (M1 + M2) / span),
                                    (-M3 / wc.imag, M3 / wc.imag)),
            max_terms)), (_NO_INTS,) * 3)
        c = n_cell
        nj, nk = n_a + n_b * F.w_embs[j], n_a + n_b * F.w_embs[k]
        h = np.sqrt(np.maximum(M3[c] ** 2 - (nk * wc.imag) ** 2, 0.0))
        m_boxes = by_embedding(
            (np.maximum(lo_r1[c] - nj * r1, -M2[c] - nj * r2),
             np.minimum(M1[c] - nj * r1, M2[c] - nj * r2)),
            (-nk * wc.real - h, -nk * wc.real + h))
        chunks = ((n_cell[i], ma, mb, n_a[i], n_b[i]) for i, ma, mb in
                  _lattice_boxes(F.w_embs, *m_boxes, max_terms))

    # the orbit-window tests, as float tests on the computed (u, v), and the
    # cell test: a point counts only in the cell [U0, U1) x [V0, V1) its
    # (u, v) falls in
    keep = []
    for cell, ma, mb, na, nb in chunks:
        mj, nj = ma + mb * F.w_embs[j], na + nb * F.w_embs[j]
        b1 = mj + nj * r1
        b2 = mj + nj * r2
        ok = np.nonzero(b1 > 0)[0]
        b1, b2, cell = b1[ok], b2[ok], cell[ok]
        u = np.log(b1) - np.log(np.abs(b2))
        hit = (U0[cell] <= u) & (u < U1[cell])
        if F.n == 2:
            mk = ma[ok] + mb[ok] * F.w_embs[k]
            nk = na[ok] + nb[ok] * F.w_embs[k]
            bc2 = np.abs(mk + nk * wc) ** 2
            v = np.log(b1 * np.abs(b2)) - np.log(bc2)
            hit &= (V0[cell] <= v) & (v < V1[cell])
        sel = ok[hit]
        keep.append((ma[sel], mb[sel], na[sel], nb[sel], b1[hit], b2[hit]))
    ma, mb, na, nb, b1, b2 = _columns(keep, (_NO_INTS,) * 4
                                      + (np.zeros(0),) * 2)
    num = _rel_norms(data, ma, mb, na, nb)
    sel = np.nonzero(num <= X * den)[0]
    sel = sel[np.lexsort((ma[sel], mb[sel], na[sel], nb[sel]))]
    return ModuleOrbits(ma[sel], mb[sel], na[sel], nb[sel], b1[sel], b2[sel],
                        num[sel], den)
