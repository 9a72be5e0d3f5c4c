"""Per-embedding classification of modular matrices and the class invariant.

A determinant-1 matrix A over O_F embeds as an n-tuple of real matrices; each
component is elliptic (|tr| < 2), hyperbolic (|tr| > 2) or parabolic.  A is
*quasi-elliptic* when exactly one component is hyperbolic; the remaining
components share a fixed point omega_c in H^{n-1}, and the eigenvalues
eps = c*omega + d generate a quadratic extension K/F with one real place pair
and n-1 complex places.  The normalized special value

    Psi_j(A) = 2^n R_F Phi_j(A, omega_c) - 2^{n-2} R_F sign(c_j tr A_j)

is a conjugation invariant; for elliptic A it is an explicit rational
multiple of R_F/2.  For quasi-elliptic A the tests pin it in closed form only
for the two worked matrices over Q(sqrt 7), where it is the logarithm of a
relative unit of a quadratic extension of F.  That does not hold in general:
for D = 5 and A = [[0, -1], [1, -3 - 4w]], e^Psi has degree 8 (ROADMAP
item 3).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .field_arith import (FieldData, InvalidInput, ModMatrix, OFElem,
                          check_field, identity)
from .eta_engine import _insert, _off_indices, check_j, phi
from .unit_domain import TruncationParams


class NotQuasiElliptic(InvalidInput):
    pass


class NotElliptic(InvalidInput):
    pass


class NotClassifiable(InvalidInput):
    pass


class NotStable(InvalidInput):
    pass


def classify(A: ModMatrix) -> tuple:
    """Per-embedding tags from the exact sign of tr(A)^2 - 4.

    A nonzero element of O_F has no vanishing embedding, so a parabolic
    component forces tr(A) = +-2 exactly and the test stays exact.
    """
    t = A.trace()
    disc = t * t - A.field.elem(4)
    tags = []
    for k in range(A.field.n):
        if not disc:
            tags.append("parabolic")
        else:
            tags.append("hyperbolic" if disc.sign_emb(k) > 0 else "elliptic")
    return tuple(tags)


def _sign_c_tr(A: ModMatrix, j: int) -> int:
    """sign(c_j tr A_j) in exact arithmetic; 0 when c = 0 or tr A = 0."""
    return (A.c * A.trace()).sign_emb(j)


def _fixed_points(A: ModMatrix, k: int, upper: bool):
    """Roots of c X^2 + (d - a) X - b = 0 at embedding k.

    For a hyperbolic component (upper=False) returns the real pair
    (larger, smaller); for an elliptic one (upper=True) the root in H.
    """
    c = A.c.emb(k)
    p = (A.a - A.d).emb(k)
    q = A.b.emb(k)
    if c == 0:
        raise NotClassifiable("no finite fixed point (c = 0)")
    disc = p * p + 4 * c * q
    if upper:
        rt = cmath.sqrt(complex(disc))
        w = (p + rt) / (2 * c)
        return w if w.imag > 0 else (p - rt) / (2 * c)
    rt = math.sqrt(disc)
    r_plus = (p + rt) / (2 * c)
    r_minus = (p - rt) / (2 * c)
    return (r_plus, r_minus) if r_plus > r_minus else (r_minus, r_plus)


@dataclass(frozen=True)
class QuasiEllipticData:
    """Fixed-point and eigenvalue data of a quasi-elliptic matrix.

    The generator omega of K = F(omega) is carried symbolically through its
    quadratic equation c X^2 + (d-a) X - b = 0 over O_F; the stored
    embeddings are floating-point images of its roots.
    """

    A: ModMatrix
    j: int                      # hyperbolic embedding
    omega_r1: float             # real roots at embedding j, r2 < r1
    omega_r2: float
    omega_c: tuple              # roots in H at the other embeddings
    eps_r1: float               # eigenvalue c_j omega_r1 + d_j
    sign_c_tr: int

    @property
    def field(self) -> FieldData:
        return self.A.field


def quasi_data(A: ModMatrix) -> QuasiEllipticData:
    tags = classify(A)
    if tags.count("hyperbolic") != 1 or "parabolic" in tags:
        raise NotQuasiElliptic(f"classification {tags}")
    j = tags.index("hyperbolic")
    r1, r2 = _fixed_points(A, j, upper=False)
    wc = tuple(_fixed_points(A, k, upper=True)
               for k in range(A.field.n) if k != j)
    eps_r1 = A.c.emb(j) * r1 + A.d.emb(j)
    data = QuasiEllipticData(A, j, r1, r2, wc, eps_r1, _sign_c_tr(A, j))
    # eigenvalues are relative-norm-1 units: |eps_k| = 1 at elliptic places
    for k, w in zip(_off_indices(A.field.n, j), wc):
        if abs(abs(A.c.emb(k) * w + A.d.emb(k)) - 1.0) >= 1e-10:
            raise InvalidInput(f"eigenvalue at place {k} is not of modulus 1")
    return data


def matrix_from_unit(field: FieldData, p: OFElem, q: OFElem,
                     u: OFElem, v: OFElem) -> ModMatrix:
    """Matrix of multiplication by eps = u*omega + v on the module with
    basis {1, omega}, where omega^2 = p*omega + q over O_F.

    Returns (a, b; c, d) with eps*omega = a*omega + b and eps = c*omega + d;
    the determinant is the relative norm of eps, which must be 1.
    """
    a = u * p + v
    b = u * q
    c, d = u, v
    det = a * d - b * c
    if det != field.one:
        raise NotStable(f"relative norm of the unit is {det}, not 1")
    return field.matrix(a, b, c, d)


def psi(field: FieldData, A: ModMatrix, j: int = None,
        trunc: TruncationParams = TruncationParams()) -> float:
    """The invariant Psi_j(A) for elliptic or quasi-elliptic A.

    For quasi-elliptic A the hyperbolic index and omega_c come from
    quasi_data; for elliptic A the index j must select the distinguished
    embedding (default 0).  The off-components of the evaluation point are
    the elliptic fixed points; phi ignores the distinguished component.
    """
    if j is not None:
        check_j(field, j)
    try:
        data = quasi_data(A)
    except NotQuasiElliptic:
        tags = classify(A)
        if set(tags) != {"elliptic"}:
            raise NotClassifiable(f"classification {tags}") from None
        j = 0 if j is None else j
        wc = tuple(_fixed_points(A, k, upper=True)
                   for k in _off_indices(field.n, j))
    else:
        if j not in (None, data.j):
            raise NotQuasiElliptic(
                "distinguished embedding must be the hyperbolic one")
        j, wc = data.j, data.omega_c
    p = phi(field, A, z=_insert(wc, j, 1j), j=j, trunc=trunc)
    n, sct = field.n, _sign_c_tr(A, j)
    return (2 ** n) * field.R_F * p - 2 ** (n - 2) * field.R_F * sct


def matrix_order(A: ModMatrix, cap: int = 12) -> int:
    """Order of A in the matrix group, searched up to cap."""
    P = A
    for m in range(1, cap + 1):
        if P == identity(A.field) or P == -identity(A.field):
            # -1 is central of order 2; A^m = -1 gives order 2m
            return m if P == identity(A.field) else 2 * m
        P = P * A
    raise NotElliptic(f"no finite order up to {cap}")


def psi_elliptic_closed(field: FieldData, A: ModMatrix, j: int = 0):
    """Closed form of Psi_j for elliptic A of finite order m:

    -2^{n-2} R_F [ Log(-(c_j omega_j + d_j)^2)/(i pi) + sign(c_j tr A_j) ],

    with omega_j the fixed point in H and Log the principal branch (the sign
    of the last term depends on the branch; this pairing is the one the
    series engine realizes).  Returns (value, witness) where the witness is
    the exact rational 2 Psi_j / R_F, denominator dividing m.
    """
    check_field(field, A)
    check_j(field, j)
    tags = classify(A)
    if set(tags) != {"elliptic"}:
        raise NotElliptic(f"classification {tags}")
    m = matrix_order(A)
    wj = _fixed_points(A, j, upper=True)
    lam = A.c.emb(j) * wj + A.d.emb(j)
    log_term = cmath.log(-(lam * lam)) / (1j * math.pi)
    if not abs(log_term.imag) < 1e-12:
        raise InvalidInput(f"eigenvalue {lam} is not of modulus 1")
    val = -(2 ** (field.n - 2)) * field.R_F \
        * (log_term.real + _sign_c_tr(A, j))
    witness = Fraction(round(2 * val / field.R_F * m), m)
    if not abs(witness - 2 * val / field.R_F) < 1e-9:
        raise ArithmeticError(f"2 Psi / R_F is not a multiple of 1/{m}")
    return val, witness
