"""Batch front-end: single evaluations and verification campaigns.

Every subcommand prints one JSON report to stdout.  Reports carry the argv
echo, per-case records, and an aggregate block; the process exits 0 when all
case defects are within budget, 1 on a failed check or compute error, and 2
on usage errors.  Randomized campaigns are reproducible via --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction
from functools import lru_cache

from .dedekind_sums import hecke_defect, reciprocity_defect, sum_s
from .eta_engine import (_insert, apex_point, area_cocycle,
                         classical_dedekind_s, classical_phi_R, phi)
from .field_arith import FieldData, ModMatrix, make_field, matrix_S
from .lfunctions import _special, l_a, period_defect
from .quasi_elliptic import classify, psi
from .unit_domain import TruncationParams


class UsageError(ValueError):
    pass


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise UsageError(f"bad JSON literal {text!r}")


def _elem(field: FieldData, v):
    """The element of a parsed JSON literal: an int or [a] or [a, b]."""
    if isinstance(v, int):
        return field.elem(v)
    if isinstance(v, list) and 1 <= len(v) <= 2 \
            and all(isinstance(c, int) for c in v):
        return field.elem(*v)
    raise UsageError(f"bad element literal {json.dumps(v)}: "
                     f"want int or [a, b]")


def _parse_elem(field: FieldData, text: str):
    return _elem(field, _parse_json(text))


def _parse_matrix(field: FieldData, text: str) -> ModMatrix:
    v = _parse_json(text)
    if not (isinstance(v, list) and len(v) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in v)):
        raise UsageError(f"bad matrix literal {text!r}: want [[a,b],[c,d]]")
    return field.matrix(*(_elem(field, e) for row in v for e in row))


def _parse_point(field: FieldData, zs: list) -> tuple:
    # complex literals as "x+yi"
    if len(zs) != field.n - 1:
        raise UsageError(f"need {field.n - 1} off-components, got {len(zs)}")
    out = []
    for t in zs:
        try:
            out.append(complex(t.replace("i", "j").replace(" ", "")))
        except ValueError:
            raise UsageError(f"bad complex literal {t!r}: want 'x+yi'")
    return tuple(out)


def _count(text: str) -> int:
    """argparse type of a trial count: an integer >= 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"need a count >= 1, got {text}")
    return int(text)


def _trunc(args) -> TruncationParams:
    return TruncationParams(weight_bound=args.weight_bound,
                            max_terms=args.max_terms)


def _rand_matrix(field: FieldData, rng: random.Random,
                 norm_cap: int = 12) -> ModMatrix:
    """Random short word in S and translations; the series cost scales with
    |N(c)|, so candidates with a large lower-left entry are resampled."""
    while True:
        A = matrix_S(field)
        for _ in range(rng.randint(1, 2)):
            q = field.elem(rng.randint(-2, 2), *([] if field.n == 1
                                                 else [rng.randint(-1, 1)]))
            A = A * field.matrix(field.one, q, field.zero, field.one) \
                * matrix_S(field)
        if not A.c or abs(A.c.norm()) <= norm_cap:
            return A


def _rand_point(rng: random.Random, k: int) -> tuple:
    """k random components x + iy, -1 <= x <= 1, 0.5 <= y <= 2."""
    return tuple(rng.uniform(-1, 1) + 1j * rng.uniform(0.5, 2.0)
                 for _ in range(k))


# -- subcommand bodies (each returns (report_dict, passed)) --------------------

def _cmd_sum(args):
    F = make_field(args.d)
    d = _parse_elem(F, args.dnum)
    c = _parse_elem(F, args.c)
    z = _parse_point(F, args.z or [])
    v = sum_s(F, d, c, z, args.j, _trunc(args))
    return {"value": v}, True


def _cmd_phi(args):
    F = make_field(args.d)
    A = _parse_matrix(F, args.matrix)
    z = _parse_point(F, args.z) if args.z else None
    if z is not None:                   # phi rejects a j outside [0, n)
        zj = apex_point(F, A)[args.j] if A.c and 0 <= args.j < F.n else 1j
        z = _insert(z, args.j, zj)
    v = phi(F, A, z=z, j=args.j, trunc=_trunc(args))
    return {"value": v}, True


def _cmd_psi(args):
    F = make_field(args.d)
    A = _parse_matrix(F, args.matrix)
    v = psi(F, A, trunc=_trunc(args))
    return {"value": v}, True


def _cmd_classify(args):
    F = make_field(args.d)
    A = _parse_matrix(F, args.matrix)
    return {"tags": list(classify(A))}, True


def _cmd_la(args):
    F = make_field(args.d)
    A = _parse_matrix(F, args.matrix)
    la = l_a(A, args.s, args.norm_bound, args.max_terms)
    return {"value_re": la.value.real, "value_im": la.value.imag,
            "tail_error": la.tail_error, "norm_bound": args.norm_bound,
            "heuristic_tail": True, "n_terms": la.n_terms}, True


def _cmd_theorem5(args):
    F = make_field(args.d)
    A = _parse_matrix(F, args.matrix)
    defect, budget, per, _ = period_defect(
        A, args.s, norm_bound=args.norm_bound, m=args.quad_order,
        trunc=_trunc(args), tol=args.tol, mu_cap=args.mu_cap)
    ok = bool(defect <= budget)
    return {"value_re": float(per.real), "value_im": float(per.imag),
            "defect": float(defect), "budget": float(budget),
            "pass": ok}, ok


def _cmd_classical(args):
    cases = []
    ok = True
    if args.recip:
        d, c = args.dnum, args.c
        if not (0 < d < c and math.gcd(c, d) == 1):
            raise UsageError("--recip wants coprime 0 < d < c")
        lhs = classical_dedekind_s(d, c) + classical_dedekind_s(c % d, d)
        rhs = Fraction(-1, 4) + Fraction(1, 12) * (
            Fraction(c, d) + Fraction(d, c) + Fraction(1, c * d))
        defect = lhs - rhs
        ok &= defect == 0
        cases.append({"check": "reciprocity", "c": c, "d": d,
                      "value": str(classical_dedekind_s(d, c)),
                      "defect": float(defect)})
    if args.rademacher:
        F1 = make_field(1)
        rng = random.Random(args.seed)
        worst = 0
        for _ in range(args.trials):
            A, B = _rand_matrix(F1, rng), _rand_matrix(F1, rng)
            defect = classical_phi_R(A * B) - classical_phi_R(A) \
                - classical_phi_R(B) - 3 * area_cocycle(A, B)
            worst = max(worst, abs(defect))
        ok &= worst == 0
        cases.append({"check": "rademacher-cocycle", "trials": args.trials,
                      "defect": float(worst)})
    if not cases:
        raise UsageError("classical: pick --recip and/or --rademacher")
    return {"cases": cases}, ok


_VERIFY_TOLS = {"cocycle": 1e-6, "reciprocity": 1e-6, "hecke": 1e-5}
# D -> the totally positive primes of the hecke campaign, as element literals:
# a split, an inert and, where one has a totally positive generator, a
# ramified prime of F (2 and 3 over Q)
_HECKE_PRIMES = {1: (2, 3), 2: ([3, 1], 3, [2, 1]), 3: ([4, 1], 5),
                 5: ([4, 1], 2, [2, 1]), 7: ([6, 1], 5, [3, 1]),
                 13: ([4, 1], 2, [5, 3])}


def _cmd_verify(args):
    F = make_field(args.d)
    rng = random.Random(args.seed)
    trunc = _trunc(args)
    tol = _VERIFY_TOLS[args.what] if args.tol is None else args.tol
    cases = []
    for trial in range(args.trials):
        if args.what == "cocycle":
            while True:
                A, B = _rand_matrix(F, rng), _rand_matrix(F, rng)
                if A.c and B.c and (A * B).c \
                        and abs((A * B).c.norm()) <= 12:
                    break
            z = _rand_point(rng, F.n)
            j = rng.randrange(F.n)
            Bz = tuple(B.moebius(k, z[k]) for k in range(F.n))
            defect = abs(phi(F, A * B, z=z, j=j, trunc=trunc)
                         - phi(F, A, z=Bz, j=j, trunc=trunc)
                         - phi(F, B, z=z, j=j, trunc=trunc)
                         - 0.25 * area_cocycle(A, B, j))
            inputs = {"A": repr(A), "B": repr(B), "j": j}
        elif args.what == "reciprocity":
            while True:
                A = _rand_matrix(F, rng)
                c, d = A.c, A.d
                if c and d and c.sign_emb(0) > 0 and d.sign_emb(0) > 0:
                    break
            z = _rand_point(rng, F.n - 1)
            defect = abs(reciprocity_defect(F, d, c, z, 0, trunc))
            inputs = {"c": repr(c), "d": repr(d)}
        else:  # hecke, one case per prime
            while True:
                A = _rand_matrix(F, rng)
                if A.c:
                    break
            z = _rand_point(rng, F.n - 1)
            for p in (_elem(F, v) for v in _HECKE_PRIMES[args.d]):
                # T_p's terms s(d - cr, cp; (z + r)/p), at N(p) times the
                # cost the |N(c)| <= 12 draw bounds, get N(p) times the cap
                tp = TruncationParams(trunc.weight_bound,
                                      trunc.max_terms * abs(p.norm()))
                defect = abs(hecke_defect(F, A.d, A.c, z, p, 0, tp))
                inputs = {"c": repr(A.c), "d": repr(A.d), "p": repr(p)}
                cases.append({"trial": trial, "inputs": inputs,
                              "defect": defect})
            continue
        cases.append({"trial": trial, "inputs": inputs, "defect": defect})
    worst = max(c["defect"] for c in cases)
    return {"cases": cases, "tol": tol}, worst <= tol


# -- argument plumbing ---------------------------------------------------------

# The flags of several subcommands, declared once; each subcommand lists the
# flags its body reads.
_FLAGS = {
    "--d": dict(type=int, default=7,
                help="field parameter D (1 for the rational field)"),
    "--matrix": dict(required=True),
    "--z": dict(nargs="*", help="off-components as 'x+yi'"),
    "--j": dict(type=int, default=0),
    "--s": dict(type=float, default=2.0),
    "--norm-bound": dict(type=float, default=2000.0),
    "--seed": dict(type=int, default=0),
    "--weight-bound": dict(type=float,
                           default=TruncationParams.weight_bound),
    "--max-terms": dict(type=int, default=TruncationParams.max_terms),
}
_TRUNC = ("--weight-bound", "--max-terms")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: run() parses every
    command with it, and parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="hmsums", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, help, *flags):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    p = add("sum", _cmd_sum, "generalized Dedekind sum s_j(d, c; z)",
            "--d", "--z", "--j", *_TRUNC)
    p.add_argument("--dnum", required=True, help="element d as JSON [a,b]")
    p.add_argument("--c", required=True, help="element c as JSON [a,b]")
    add("phi", _cmd_phi, "cocycle value phi_j(A)",
        "--d", "--matrix", "--z", "--j", *_TRUNC)
    add("psi", _cmd_psi, "invariant Psi(A)", "--d", "--matrix", *_TRUNC)
    add("classify", _cmd_classify, "per-embedding matrix classification",
        "--d", "--matrix")
    add("la", _cmd_la, "partial L-function L_A(s)",
        "--d", "--matrix", "--s", "--norm-bound", "--max-terms")

    p = add("theorem5", _cmd_theorem5,
            "geodesic period vs Gamma-factor times L_A(s)",
            "--d", "--matrix", "--s", "--norm-bound", *_TRUNC)
    p.add_argument("--quad-order", type=int, default=16,
                   help="initial node count of the periodic trapezoid")
    p.add_argument("--mu-cap", type=float, default=8000.0,
                   help="largest |N(xi delta)| E_F may sum, else an error")
    p.add_argument("--tol", type=float, default=1e-6)

    p = add("classical", _cmd_classical, "exact rational degree-1 checks",
            "--seed")
    p.add_argument("--recip", action="store_true")
    p.add_argument("--rademacher", action="store_true")
    p.add_argument("--c", type=int, default=3)
    p.add_argument("--dnum", "--d", dest="dnum", type=int, default=1)
    p.add_argument("--trials", type=_count, default=100)

    p = add("verify", _cmd_verify, "randomized identity campaigns",
            "--d", "--seed", *_TRUNC)
    p.add_argument("what", choices=sorted(_VERIFY_TOLS))
    p.add_argument("--trials", type=_count, default=10)
    p.add_argument("--tol", type=float, default=None)   # None: _VERIFY_TOLS
    return ap


def run(argv: list) -> int:
    if argv[:1] == ["theorem5"]:
        _special()      # E_F's scipy.special, imported before the clock starts
    t0 = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    report = {"command": ["hmsums"] + list(argv)}
    try:
        body, ok = args.fn(args)
    except UsageError as e:
        print(f"hmsums: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # compute-level failure
        report["error"] = f"{type(e).__name__}: {e}"
        print(json.dumps(report, sort_keys=True))
        return 1
    report.update(body)
    defects = [c["defect"] for c in body.get("cases", []) if "defect" in c]
    if "defect" in body:
        defects.append(body["defect"])
    report["aggregate"] = {
        "max_defect": max(defects) if defects else 0.0,
        "pass": bool(ok),
        "wall_time": round(time.monotonic() - t0, 3),
    }
    print(json.dumps(report, sort_keys=True))
    return 0 if ok else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
