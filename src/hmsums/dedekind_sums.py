"""Generalized Dedekind sums attached to a totally real field.

For coprime c != 0, d in O_F and a distinguished embedding j, the sum
s_j(d, c; .) is a real-valued function of the off-components
z_hat = (z_k)_{k != j} in H^{n-1}:

    s_j(d, c; z_hat) = -sign(c_j) phi_j(A, z_hat)
                       + (kappa_F/|c_j|) [a_j f_j(d, c) + d_j f_j(0, 1)],

with A any determinant-1 completion of the column (c, d) and
f_j(d, c) = prod_{k != j} y_k / |c_k z_k + d_k|^2.  In degree 1 this recovers
the classical Dedekind sum exactly.

The module also provides the reciprocity defect, the elementary involution
identities, a Euclidean reduction of any sum to the fundamental sum
s_j(0, 1; .), and the Hecke eigenvalue identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field_arith import (FieldData, NotCoprime, OFElem, divide_exact,
                          divmod_near, ext_gcd, of_gcd, residues_mod)
from .eta_engine import _insert, _y_rest, phi
from .unit_domain import InvalidInput, TruncationParams


def _off_indices(n: int, j: int):
    return [k for k in range(n) if k != j]


def check_zhat(field: FieldData, z_hat: tuple, j: int) -> tuple:
    z_hat = tuple(complex(w) for w in z_hat)
    if not (0 <= j < field.n and len(z_hat) == field.n - 1
            and all(w.imag > 0 for w in z_hat)):
        raise InvalidInput(f"need 0 <= j < {field.n} and {field.n - 1} "
                           f"off-components in the upper half-plane, "
                           f"got j={j}, {z_hat}")
    return z_hat


def moebius_factor(c: OFElem, d: OFElem, z_hat: tuple, j: int) -> float:
    """f_j(d, c; z_hat) = prod_{k != j} y_k / |c_k z_k + d_k|^2."""
    F = c.field
    out = 1.0
    for w, k in zip(z_hat, _off_indices(F.n, j)):
        out *= w.imag / abs(c.emb(k) * w + d.emb(k)) ** 2
    return out


def _strip_gcd(d: OFElem, c: OFElem, j: int) -> tuple:
    # The sum is invariant under (d, c) -> (g d, g c) only for g_j > 0,
    # so the stripped factor is normalized to be positive at embedding j.
    g = of_gcd(c, d)
    if g.sign_emb(j) < 0:
        g = -g
    if abs(g.norm()) != 1:
        return divide_exact(d, g), divide_exact(c, g)
    return d, c


def sum_s(field: FieldData, d: OFElem, c: OFElem, z_hat: tuple, j: int = 0,
          trunc: TruncationParams = TruncationParams()) -> float:
    """The generalized Dedekind sum s_j(d, c; z_hat).

    A common factor of (c, d) is stripped first (the sum is invariant under
    scaling both arguments), so the inputs need not be coprime.
    """
    if not c:
        raise InvalidInput("the sum requires c != 0")
    z_hat = check_zhat(field, z_hat, j)
    d, c = _strip_gcd(d, c, j)
    a, b = ext_gcd(c, d)
    A = field.matrix(a, b, c, d)
    cj, dj = c.emb(j), d.emb(j)
    zj = -dj / cj + 1j / abs(cj)
    z = _insert(z_hat, j, zj)
    p = phi(field, A, z=z, j=j, trunc=trunc)
    sgn = 1.0 if cj > 0 else -1.0
    return (-sgn * p + field.kappa / abs(cj)
            * (a.emb(j) * moebius_factor(c, d, z_hat, j)
               + dj * _y_rest(z_hat)))


def fundamental_s(field: FieldData, z_hat: tuple, j: int = 0,
                  trunc: TruncationParams = TruncationParams()) -> float:
    """The fundamental sum s_j(0, 1; z_hat)."""
    return sum_s(field, field.zero, field.one, z_hat, j, trunc)


# -- elementary transformations of the off-point ------------------------------

def neg_conj(z_hat: tuple) -> tuple:
    return tuple(-w.conjugate() for w in z_hat)


def inv_conj(z_hat: tuple) -> tuple:
    return tuple(1.0 / w.conjugate() for w in z_hat)


def translate(z_hat: tuple, q: OFElem, j: int) -> tuple:
    idx = _off_indices(q.field.n, j)
    return tuple(w + q.emb(k) for w, k in zip(z_hat, idx))


def unit_scale(z_hat: tuple, eps: OFElem, j: int) -> tuple:
    """Componentwise |eps_k|.z_k := eps_k x_k + i |eps_k| y_k."""
    idx = _off_indices(eps.field.n, j)
    out = []
    for w, k in zip(z_hat, idx):
        e = eps.emb(k)
        out.append(e * w.real + 1j * abs(e) * w.imag)
    return tuple(out)


def reciprocity_rhs(field: FieldData, d: OFElem, c: OFElem, z_hat: tuple,
                    j: int = 0,
                    trunc: TruncationParams = TruncationParams()) -> float:
    """Right-hand side of the reciprocity law (requires c_j > 0, d_j > 0):

    s(0,1;z_hat) - 1/4 + kappa [ d_j/c_j + (c_j/d_j) prod |z_k|^-2
                  + (1/(c_j d_j)) prod |c_k z_k + d_k|^-2 ] prod y_k.
    """
    z_hat = check_zhat(field, z_hat, j)
    cj, dj = c.emb(j), d.emb(j)
    if not (cj > 0 and dj > 0):
        raise InvalidInput(f"reciprocity requires c_j > 0 and d_j > 0, "
                           f"got {cj}, {dj}")
    return (fundamental_s(field, z_hat, j, trunc) - 0.25
            + field.kappa * ((dj / cj) * _y_rest(z_hat)
                             + (cj / dj) * moebius_factor(field.one, field.zero, z_hat, j)
                             + (1 / (cj * dj)) * moebius_factor(c, d, z_hat, j)))


def reciprocity_defect(field: FieldData, d: OFElem, c: OFElem, z_hat: tuple,
                       j: int = 0,
                       trunc: TruncationParams = TruncationParams()) -> float:
    """s(d,c;z_hat) + s(c,d;1/conj(z_hat)) minus the reciprocity right side."""
    lhs = sum_s(field, d, c, z_hat, j, trunc) \
        + sum_s(field, c, d, inv_conj(z_hat), j, trunc)
    return lhs - reciprocity_rhs(field, d, c, z_hat, j, trunc)


# -- reduction to the fundamental sum -----------------------------------------

@dataclass(frozen=True)
class ReductionScript:
    """Result of the Euclidean reduction of s_j(d, c; z_hat).

    The original sum equals
        sum of sign_i * s_j(0, 1; point_i)  +  constant,
    with each point an explicit transform of the input z_hat.  The steps list
    records the identity applied at each stage.
    """

    terms: tuple                # tuple of (sign, z_hat tuple)
    constant: float
    steps: tuple
    j: int

    def eval(self, field: FieldData,
             trunc: TruncationParams = TruncationParams()) -> float:
        out = self.constant
        for sgn, pt in self.terms:
            out += sgn * fundamental_s(field, pt, self.j, trunc)
        return out


def reduce_to_fundamental(field: FieldData, d: OFElem, c: OFElem,
                          z_hat: tuple, j: int = 0) -> ReductionScript:
    """Express s_j(d, c; z_hat) through fundamental sums s_j(0, 1; .).

    Euclidean loop: divide, translate the off-point, normalize signs with the
    conjugation identities, then apply reciprocity to swap the pair.  The
    constant accumulates the elementary reciprocity terms; no series
    evaluation happens here.
    """
    if not c:
        raise InvalidInput("the reduction requires c != 0")
    z_hat = check_zhat(field, z_hat, j)
    d, c = _strip_gcd(d, c, j)
    sign = 1.0
    const = 0.0
    terms = []
    steps = []
    guard = 16 * field.euclid_steps * (abs(c.norm()) + 2)
    for _ in range(guard):
        if abs(c.norm()) == 1:
            # s(d, eps; .) with eps a unit: translate d away, rescale to 1.
            q = d * c.inv_unit()
            z_hat = translate(z_hat, q, j)
            steps.append(f"translate by {q}")
            eps = c
            if eps.sign_emb(j) < 0:
                eps = -eps
                z_hat = neg_conj(z_hat)
                steps.append("negate c (conjugation identity)")
            z_hat = unit_scale(z_hat, eps, j)
            steps.append(f"unit rescale by {eps}")
            terms.append((sign, z_hat))
            return ReductionScript(tuple(terms), const, tuple(steps), j)
        q, r = divmod_near(d, c)
        z_hat = translate(z_hat, q, j)
        steps.append(f"divide: q={q}, r={r}; translate by {q}")
        d = r
        if c.sign_emb(j) < 0:
            c = -c
            z_hat = neg_conj(z_hat)
            steps.append("negate c (conjugation identity)")
        if not d:
            # d = 0 with c non-unit cannot occur for coprime input.
            raise NotCoprime("inputs were not coprime")
        if d.sign_emb(j) < 0:
            d = -d
            sign = -sign
            z_hat = neg_conj(z_hat)
            steps.append("negate d (conjugation identity, sign flip)")
        # Reciprocity: s(d,c;w) = s(0,1;w) - s(c,d;1/conj(w)) - 1/4 + kappa*T.
        cj, dj = c.emb(j), d.emb(j)
        T = ((dj / cj) * _y_rest(z_hat)
             + (cj / dj) * moebius_factor(field.one, field.zero, z_hat, j)
             + (1 / (cj * dj)) * moebius_factor(c, d, z_hat, j))
        terms.append((sign, z_hat))
        const += sign * (-0.25 + field.kappa * T)
        steps.append("reciprocity: emit fundamental term, swap pair")
        sign = -sign
        d, c = c, d
        z_hat = inv_conj(z_hat)
    raise AssertionError("reduction failed to terminate")


# -- Hecke operators ----------------------------------------------------------

def hecke_transform(field: FieldData, d: OFElem, c: OFElem, z_hat: tuple,
                    p: OFElem, j: int = 0,
                    trunc: TruncationParams = TruncationParams()) -> float:
    """(s_j | T_p)(d, c; z_hat) for a totally positive prime p:

    s_j(dp, c; p.z_hat) + sum_{r mod p} s_j(d - cr, cp; (z_hat + r)/p).

    The pairing of the residue shift with the off-point shift matters: both
    come from the same translate of the full evaluation point, whose
    distinguished component carries -d_j/c_j.
    """
    if not p.is_totally_positive():
        raise InvalidInput(f"the Hecke operator needs p >> 0, got {p}")
    z_hat = check_zhat(field, z_hat, j)
    idx = _off_indices(field.n, j)
    out = sum_s(field, d * p, c,
                tuple(p.emb(k) * w for w, k in zip(z_hat, idx)), j, trunc)
    for r in residues_mod(p):
        zt = tuple((w + r.emb(k)) / p.emb(k) for w, k in zip(z_hat, idx))
        out += sum_s(field, d - c * r, c * p, zt, j, trunc)
    return out


def hecke_defect(field: FieldData, d: OFElem, c: OFElem, z_hat: tuple,
                 p: OFElem, j: int = 0,
                 trunc: TruncationParams = TruncationParams()) -> float:
    """(s_j | T_p) - (N(p) + 1) s_j at the given arguments."""
    return hecke_transform(field, d, c, z_hat, p, j, trunc) \
        - (abs(p.norm()) + 1) * sum_s(field, d, c, z_hat, j, trunc)
