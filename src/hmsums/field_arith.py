"""Exact arithmetic in a real quadratic field F = Q(sqrt(D)) of class number 1.

Elements of the ring of integers O_F are stored as exact integer pairs on the
integral basis {1, w} with w = sqrt(D) for D = 2, 3 (mod 4) and
w = (1 + sqrt(D))/2 for D = 1 (mod 4).  The degenerate case D = 1 runs the
whole machinery for F = Q (degree 1): elements collapse to plain integers and
the analytic constants are fixed so that the series engine reproduces the
classical Dedekind eta function.

Only norm-Euclidean fields of class number 1 are supported, since the
reduction algorithm for generalized Dedekind sums relies on both facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache


class InvalidInput(ValueError):
    """An argument outside the range where the evaluation is valid.

    Raised instead of asserting, so the checks survive ``python -O``."""


class NotCoprime(InvalidInput):
    pass


def check_field(field: FieldData, *args) -> None:
    """Raise InvalidInput unless the elements or matrices args lie in field."""
    if any(x.field is not field for x in args):
        raise InvalidInput(f"the arguments must lie in {field}")


# D -> fundamental unit coordinates (a, b) on {1, w}
_FIELD_TABLE = {2: (1, 1), 3: (2, 1), 5: (0, 1), 7: (8, 3), 13: (1, 1)}


@dataclass(frozen=True)
class FieldData:
    """One real quadratic field (or Q when D = 1) with its derived constants."""

    D: int
    n: int                      # degree: 1 or 2
    d_F: int                    # discriminant
    # (t, p) with w^2 = t w + p, t = 1 when w = (1 + sqrt(D))/2 and 0 when
    # w = sqrt(D), so that N(a + b w) = a^2 + t a b - p b^2 in degree 2
    norm_form: tuple
    w_embs: tuple               # real embeddings of w
    eps_coords: tuple           # fundamental unit, coordinates on {1, w}
    R_F: float                  # regulator (log of the unit's first embedding)
    unit_index: int             # [U_F : U_F^+]
    kappa: float                # d_F zeta_F(2) / (2^n R_F pi^(n+1))

    # -- coordinate arithmetic ------------------------------------------------
    # On coordinate pairs (a, b) = a + b w, as ints or as int64 or object
    # arrays alike; a term of t costs no array pass when t = 0.

    def mul(self, x: tuple, y: tuple) -> tuple:
        """Coordinates (ac + p bd, ad + bc + t bd) of the product of
        x = (a, b) and y = (c, d); over Q, b = d = 0."""
        t, p = self.norm_form
        (a, b), (c, d) = x, y
        bd = b * d
        ad_bc = a * d + b * c
        return a * c + p * bd, (ad_bc + bd if t else ad_bc)

    def norm(self, a, b):
        """N(a + b w) = a^2 + t a b - p b^2; over Q, N(a) = a."""
        if self.n == 1:
            return a
        t, p = self.norm_form
        return (a * (a + b) if t else a * a) - p * b * b

    # -- element constructors -------------------------------------------------

    def elem(self, a: int, b: int = 0) -> "OFElem":
        return OFElem(int(a), int(b), self)

    @property
    def zero(self) -> "OFElem":
        return self.elem(0)

    @property
    def one(self) -> "OFElem":
        return self.elem(1)

    @property
    def eps_fund(self) -> "OFElem":
        return self.elem(*self.eps_coords)

    @property
    def different(self) -> "OFElem":
        # A generator of the different ideal, 2w - t = w - conj(w); its norm
        # is -d_F.
        if self.n == 1:
            return self.one
        return self.elem(-self.norm_form[0], 2)

    @cached_property
    def different_embs(self) -> tuple:
        """The real embeddings of `different`, computed once per field."""
        return self.different.embeddings()

    def matrix(self, a, b, c, d) -> "ModMatrix":
        def coerce(x):
            if isinstance(x, OFElem):
                return x
            if isinstance(x, int):
                return self.elem(x)
            return self.elem(*x)
        return ModMatrix(coerce(a), coerce(b), coerce(c), coerce(d))

    def __repr__(self) -> str:
        return f"FieldData(D={self.D})"


@dataclass(frozen=True)
class OFElem:
    # a + b*w on the integral basis
    a: int
    b: int
    field: FieldData

    def __post_init__(self):
        if self.field.n == 1 and self.b != 0:
            # Degree 1: w plays no role, fold everything into the first slot.
            object.__setattr__(self, "a", self.a + self.b)
            object.__setattr__(self, "b", 0)

    # -- ring operations ------------------------------------------------------

    def __add__(self, y: "OFElem") -> "OFElem":
        if self.field is not y.field:
            raise InvalidInput(f"{self} and {y} lie in different fields")
        return OFElem(self.a + y.a, self.b + y.b, self.field)

    def __sub__(self, y: "OFElem") -> "OFElem":
        if self.field is not y.field:
            raise InvalidInput(f"{self} and {y} lie in different fields")
        return OFElem(self.a - y.a, self.b - y.b, self.field)

    def __neg__(self) -> "OFElem":
        return OFElem(-self.a, -self.b, self.field)

    def __mul__(self, y: "OFElem") -> "OFElem":
        if self.field is not y.field:
            raise InvalidInput(f"{self} and {y} lie in different fields")
        F = self.field
        a, b = F.mul((self.a, self.b), (y.a, y.b))
        return OFElem(a, b, F)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, y) -> bool:
        return isinstance(y, OFElem) and self.a == y.a and self.b == y.b \
            and self.field is y.field

    def __hash__(self):
        return hash((self.a, self.b, self.field.D))

    # -- field-theoretic data -------------------------------------------------

    def conj(self) -> "OFElem":
        # conj(w) = t - w
        F = self.field
        return OFElem(self.a + F.norm_form[0] * self.b, -self.b, F)

    def norm(self) -> int:
        return self.field.norm(self.a, self.b)

    def trace(self) -> int:
        F = self.field
        if F.n == 1:
            return self.a
        return 2 * self.a + F.norm_form[0] * self.b

    def embeddings(self) -> tuple:
        F = self.field
        if F.n == 1:
            return (float(self.a),)
        return tuple(self.a + self.b * w for w in F.w_embs)

    def emb(self, k: int) -> float:
        return self.embeddings()[k]

    def sign_emb(self, k: int) -> int:
        """Exact sign of the k-th real embedding (integer comparisons only)."""
        F = self.field
        if F.n == 1:
            return (self.a > 0) - (self.a < 0)
        # Value is (A + B sqrt(D))/2 with A = trace, B = +-(2 - t) b.
        A = self.trace()
        B = (2 - F.norm_form[0]) * self.b
        if k == 1:
            B = -B
        if A == 0 and B == 0:
            return 0
        if A >= 0 and B >= 0:
            return 1
        if A <= 0 and B <= 0:
            return -1
        t = A * A - F.D * B * B        # nonzero: sqrt(D) is irrational
        s = 1 if t > 0 else -1
        return s if A > 0 else -s

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def is_totally_positive(self) -> bool:
        return all(self.sign_emb(k) > 0 for k in range(self.field.n))

    def inv_unit(self) -> "OFElem":
        """Exact inverse of a unit."""
        if abs(self.norm()) != 1:
            raise InvalidInput(f"{self} is not a unit")
        c = self.conj()
        m = (self * c).a        # = +-1
        return c if m == 1 else -c

    def pow(self, k: int) -> "OFElem":
        base = self if k >= 0 else self.inv_unit()
        out = self.field.one
        for _ in range(abs(k)):
            out = out * base
        return out

    def __repr__(self) -> str:
        F = self.field
        if F.n == 1:
            return str(self.a)
        w = "((1+√%d)/2)" % F.D if F.norm_form[0] else "√%d" % F.D
        return f"({self.a}+{self.b}{w})"


def kronecker(a: int, n: int) -> int:
    """The Kronecker symbol (a/n) for n >= 1.  With a = d_F it is the
    character chi of F: a prime p splits, is inert or ramifies in F as
    chi(p) = 1, -1 or 0, and chi has period d_F."""
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")
    v = (n & -n).bit_length() - 1           # n = 2^v * (odd n)
    if v and a % 2 == 0:
        return 0
    n >>= v
    out = -1 if v % 2 and a % 8 in (3, 5) else 1
    a %= n
    while a:                                # Jacobi symbol (a/n), n odd
        while a % 2 == 0:
            a //= 2
            out *= -1 if n % 8 in (3, 5) else 1
        a, n = n, a
        out *= -1 if a % 4 == 3 and n % 4 == 3 else 1
        a %= n
    return out if n == 1 else 0


def _zeta_minus_one(d_F: int) -> Fraction:
    """zeta_F(-1) of the real quadratic field of discriminant d_F, exactly,
    by Siegel's formula (Zagier, On the values at negative integers of the
    zeta-function of a real quadratic field, 1976):

        zeta_F(-1) = (1/60) sum sigma_1((d_F - b^2)/4)

    over the integers b with b^2 < d_F and b = d_F (mod 2).
    """
    r = math.isqrt(d_F - 1)
    total = sum(sum(t for t in range(1, m + 1) if m % t == 0)
                for m in ((d_F - b * b) // 4 for b in range(-r, r + 1)
                          if (b - d_F) % 2 == 0))
    return Fraction(total, 60)


@lru_cache(maxsize=None)
def make_field(D: int) -> FieldData:
    """Build the FieldData for a whitelisted D (D = 1 selects F = Q)."""
    if D == 1:
        # Degree-1 mode: constants fixed so the series engine's
        # Lambda(z) = i*pi*kappa*z - (sqrt(d_F)/2R) * Omega(z) equals ln(eta).
        return FieldData(D=1, n=1, d_F=1, norm_form=(0, 1), w_embs=(0.0,),
                         eps_coords=(1, 0), R_F=0.5, unit_index=2,
                         kappa=1.0 / 12.0)
    if D not in _FIELD_TABLE:
        raise InvalidInput(f"unsupported field D={D}: class number "
                           "unverified")
    a, b = _FIELD_TABLE[D]
    t, p = (1, (D - 1) // 4) if D % 4 == 1 else (0, D)
    d_F = D if t else 4 * D
    s = math.sqrt(D)
    w_embs = ((1 + s) / 2, (1 - s) / 2) if t else (s, -s)
    R_F = math.log(a + b * w_embs[0])
    # the table's units have norm +-1 and first embedding > 1
    unit_index = 2 if a * a + t * a * b - p * b * b == 1 else 4
    # functional equation: zeta_F(2) = 4 pi^4 zeta_F(-1) / d_F^(3/2), so
    # kappa = d_F zeta_F(2) / (4 R_F pi^3) = pi zeta_F(-1) / (sqrt(d_F) R_F)
    kappa = math.pi * float(_zeta_minus_one(d_F)) / (math.sqrt(d_F) * R_F)
    return FieldData(D=D, n=2, d_F=d_F, norm_form=(t, p), w_embs=w_embs,
                     eps_coords=(a, b), R_F=R_F, unit_index=unit_index,
                     kappa=kappa)


@dataclass(frozen=True)
class ModMatrix:
    """2x2 matrix over O_F with determinant exactly 1."""

    a: OFElem
    b: OFElem
    c: OFElem
    d: OFElem

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det != self.field.one:
            raise InvalidInput(f"determinant {det} != 1")

    @property
    def field(self) -> FieldData:
        return self.a.field

    def __mul__(self, y: "ModMatrix") -> "ModMatrix":
        return ModMatrix(self.a * y.a + self.b * y.c,
                         self.a * y.b + self.b * y.d,
                         self.c * y.a + self.d * y.c,
                         self.c * y.b + self.d * y.d)

    def inv(self) -> "ModMatrix":
        return ModMatrix(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "ModMatrix":
        return ModMatrix(-self.a, -self.b, -self.c, -self.d)

    def trace(self) -> OFElem:
        return self.a + self.d

    def emb(self, k: int) -> tuple:
        return (self.a.emb(k), self.b.emb(k), self.c.emb(k), self.d.emb(k))

    def moebius(self, k: int, z: complex) -> complex:
        a, b, c, d = self.emb(k)
        return (a * z + b) / (c * z + d)

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


def identity(field: FieldData) -> ModMatrix:
    return field.matrix(1, 0, 0, 1)


def matrix_S(field: FieldData) -> ModMatrix:
    return field.matrix(0, -1, 1, 0)


def exact_quotient(d: OFElem, c: OFElem) -> tuple:
    """Coordinates of the field quotient d/c as exact Fractions."""
    nc = (c * c.conj()).a       # equals N(c) in degree 2, c^2 in degree 1
    e = d * c.conj()
    return Fraction(e.a, nc), Fraction(e.b, nc)


def divmod_near(d: OFElem, c: OFElem) -> tuple:
    """Division d = c*q + r with q an integer point near d/c minimizing |N(r)|.

    The quotient search scans a +-2 window on each coordinate around the
    floor of the exact field quotient; ties on |N(r)| are broken by smaller
    remainder coordinates, then lexicographic (a, b) on the quotient, so the
    result is deterministic.
    """
    if not c:
        raise InvalidInput("division by zero")
    F = d.field
    cc = c.conj()
    nc, e = (c * cc).a, d * cc         # d/c = e / N(c) (c^2 in degree 1)
    qa0, qb0 = e.a // nc, e.b // nc
    # r = d - qa c - qb (c w); in degree 1 w folds to 1 and rb = 0
    cw = c * F.elem(0, 1)
    best = None
    for qa in range(qa0 - 2, qa0 + 3):
        for qb in range(qb0 - 2, qb0 + 3):
            ra, rb = d.a - qa * c.a - qb * cw.a, d.b - qa * c.b - qb * cw.b
            key = (abs(F.norm(ra, rb)), ra * ra + rb * rb, qa, qb)
            if best is None or key < best[0]:
                best = (key, ra, rb)
    (_, _, qa, qb), ra, rb = best
    return F.elem(qa, qb), F.elem(ra, rb)


def gcd_chain(c: OFElem, d: OFElem) -> tuple:
    """Extended Euclidean chain: returns (g, s, t) with s*c + t*d = g.

    Terminates for the whitelisted norm-Euclidean fields; an iteration cap
    guards against non-decreasing norms.
    """
    F = c.field
    # Invariants: x = sx*c + tx*d, y = sy*c + ty*d.
    x, sx, tx = d, F.zero, F.one
    y, sy, ty = c, F.one, F.zero
    cap = max(8, 4 * (abs(c.norm()) + abs(d.norm())).bit_length() * 8)
    steps = 0
    while y:
        q, r = divmod_near(x, y)
        x, sx, tx, y, sy, ty = y, sy, ty, r, sx - q * sy, tx - q * ty
        steps += 1
        if steps > cap:
            raise NotCoprime("euclidean chain failed to terminate")
    return x, sx, tx


def ext_gcd(c: OFElem, d: OFElem) -> tuple:
    """Bezout witness (a, b) with a*d - b*c = 1 for coprime c, d."""
    g, s, t = gcd_chain(c, d)
    if not g.is_unit():
        raise NotCoprime(f"gcd {g} is not a unit")
    gi = g.inv_unit()
    # (s*gi)*c + (t*gi)*d = 1  ->  a = t*gi, b = -(s*gi).
    return t * gi, -(s * gi)


def of_gcd(c: OFElem, d: OFElem) -> OFElem:
    g, _, _ = gcd_chain(c, d)
    return g


def residues_mod(p: OFElem) -> list:
    """A transversal of O_F / (p), of size |N(p)|.

    The principal ideal (p) is the column lattice spanned by the coordinate
    vectors of p and p*w; a column Hermite form makes the quotient a product
    of two integer intervals.
    """
    F = p.field
    n = abs(p.norm())
    if not n:
        raise InvalidInput("no residues modulo zero")
    if F.n == 1:
        return [F.elem(r) for r in range(n)]
    pw = p * F.elem(0, 1)
    # Columns (a-coordinates on top): reduce to lower-triangular form.
    c1, c2 = [p.a, p.b], [pw.a, pw.b]
    while c2[0]:
        q = c1[0] // c2[0]
        c1 = [c1[0] - q * c2[0], c1[1] - q * c2[1]]
        c1, c2 = c2, c1
    h11, h22 = abs(c1[0]), abs(c2[1])
    if h11 * h22 != n:
        raise ArithmeticError(f"Hermite form of ({p}) has the wrong index")
    return [F.elem(i, j) for i in range(h11) for j in range(h22)]


def divide_exact(x: OFElem, y: OFElem) -> OFElem:
    """x / y when y exactly divides x (raises otherwise)."""
    qa, qb = exact_quotient(x, y)
    if qa.denominator != 1 or qb.denominator != 1:
        raise InvalidInput("not an exact divisor")
    return x.field.elem(int(qa), int(qb))
