import json
import math
import os
import re
import subprocess
import sys

import pytest

from hmsums.cli import build_parser, run
from hmsums.eta_engine import _insert, apex_point, phi
from hmsums.field_arith import make_field
from hmsums.unit_domain import TruncationParams

A1 = "[[[-2,-1],[1,1]],[[3,1],[-2,-1]]]"
# the flags of each subcommand, each one read by its body: 46 values
FLAGS = {
    "sum": "--d --dnum --c --z --j --weight-bound --max-terms",
    "phi": "--d --matrix --z --j --weight-bound --max-terms",
    "psi": "--d --matrix --weight-bound --max-terms",
    "classify": "--d --matrix",
    "la": "--d --matrix --s --norm-bound --max-terms",
    "theorem5": "--d --matrix --s --norm-bound --quad-order --mu-cap --tol "
                "--weight-bound --max-terms",
    "classical": "--recip --rademacher --c --dnum/--d --trials --seed",
    "verify": "what --d --trials --tol --seed --weight-bound --max-terms",
}


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_usage_error_exit_code(capsys):
    assert run(["bogus"]) == 2
    capsys.readouterr()
    assert run(["classical"]) == 2          # no check selected
    capsys.readouterr()
    assert run(["sum", "--d", "7", "--dnum", "[1,0]", "--c", "oops"]) == 2
    capsys.readouterr()
    # element literals have one or two coordinates, in matrices too
    assert run(["sum", "--d", "7", "--dnum", "[1,0]", "--c", "[]"]) == 2
    capsys.readouterr()
    assert run(["phi", "--d", "7", "--matrix", "[[1,0],[[1,2,3],1]]"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["phi", "--d", "7", "--matrix", "[[1,0],[0]]"],
    ["sum", "--dnum", "[1,0]", "--c", "[3,1]", "--z", "0.3+1i", "1i"],
    ["sum", "--dnum", "[1,0]", "--c", "[3,1]", "--z", "0.3+i1"],
    ["classical", "--recip", "--c", "4", "--d", "2"],
    ["verify", "cocycle", "--trials", "0"],
    ["classical", "--rademacher", "--trials", "0"],
], ids=["matrix-shape", "point-count", "point-literal", "recip-coprime",
        "verify-trials", "classical-trials"])
def test_malformed_arguments_are_usage_errors(capsys, argv):
    # a trial count below 1 is a usage error, not an empty campaign
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


def test_each_subcommand_lists_the_flags_it_reads(capsys):
    assert sum(len(flags.split()) for flags in FLAGS.values()) == 46
    for cmd, flags in FLAGS.items():
        assert run([cmd, "--help"]) == 0
        text = capsys.readouterr().out
        shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
        assert shown == set(flags.replace("/", " ").split()) \
            - {"what"} | {"--help"}
    assert run(["verify", "--help"]) == 0
    assert "{cocycle,hecke,reciprocity}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["sum", "--dnum", "[1,0]", "--c", "[3,1]", "--z", "0.3+1i"],
    ["phi", "--matrix", A1],
    ["psi", "--matrix", A1],
    ["classify", "--matrix", A1],
    ["la", "--matrix", A1],
    ["theorem5", "--matrix", A1],
    ["classical", "--recip"],
], ids=lambda argv: argv[0])
def test_flags_a_subcommand_ignores_are_usage_errors(capsys, argv):
    # --tol, --weight-bound, --max-terms and --seed wherever the body does
    # not read them: 17 flags
    for flag in ("--tol", "--weight-bound", "--max-terms", "--seed"):
        if flag not in FLAGS[argv[0]].split():
            assert run(argv + [flag, "1"]) == 2
            assert "unrecognized arguments" in capsys.readouterr().err


def test_defaults_come_from_the_library():
    trunc = TruncationParams()
    for argv in (["psi", "--matrix", A1], ["verify", "cocycle"]):
        args = build_parser().parse_args(argv)
        assert (args.weight_bound, args.max_terms) \
            == (trunc.weight_bound, trunc.max_terms)
    assert build_parser().parse_args(["theorem5", "--matrix", A1]).tol == 1e-6
    assert build_parser().parse_args(["verify", "hecke"]).tol is None


def test_classical_recip_example(capsys):
    code, rep = capture(capsys, ["classical", "--recip", "--c", "3", "--d", "1"])
    assert code == 0
    assert rep["aggregate"]["pass"] is True
    assert rep["aggregate"]["max_defect"] == 0.0
    assert rep["cases"][0]["value"] == "1/18"
    assert rep["command"][0] == "hmsums"


def test_classical_rademacher_campaign(capsys):
    code, rep = capture(capsys, ["classical", "--rademacher",
                                 "--trials", "40", "--seed", "5"])
    assert code == 0
    assert rep["cases"][0]["defect"] == 0.0


def test_sum_value(capsys):
    code, rep = capture(capsys, ["sum", "--d", "7", "--dnum", "[1,0]",
                                 "--c", "[3,1]", "--z", "0.35+1.05i"])
    assert code == 0
    assert isinstance(rep["value"], float)


def test_phi_degree_one_matches_rademacher(capsys):
    # phi over the rational field is the Rademacher function over 12
    code, rep = capture(capsys, ["phi", "--d", "1",
                                 "--matrix", "[[1,0],[1,1]]"])
    assert code == 0
    assert rep["value"] == pytest.approx(2.0 / 12, abs=1e-9)


@pytest.mark.parametrize("j", [0, 1])
def test_phi_off_point(capsys, j):
    # --z gives the off-component; the component at j is the apex of A
    code, rep = capture(capsys, ["phi", "--d", "7", "--matrix", A1,
                                 "--z", "0.3+1.1i", "--j", str(j)])
    assert code == 0
    F7 = make_field(7)
    A = F7.matrix((-2, -1), (1, 1), (3, 1), (-2, -1))
    z = _insert((0.3 + 1.1j,), j, apex_point(F7, A)[j])
    assert rep["value"] == phi(F7, A, z=z, j=j)
    if j == 0:
        assert rep["value"] == -0.6138007551219995


@pytest.mark.parametrize("extra", [[], ["--z", "0.3+1.1i"]])
def test_phi_rejects_embedding_out_of_range(capsys, extra):
    code, rep = capture(capsys, ["phi", "--d", "7", "--matrix", A1,
                                 "--j", "2"] + extra)
    assert code == 1
    assert rep["error"].startswith("InvalidInput: need 0 <= j < 2")


def test_psi_worked_value(capsys):
    code, rep = capture(capsys, ["psi", "--d", "7",
                                 "--matrix", "[[[2,1],[1,1]],[[3,1],[2,1]]]"])
    assert code == 0
    rt7 = math.sqrt(7)
    target = math.log((9 + 3 * rt7) * math.sqrt(2 + rt7) + 18 + 7 * rt7)
    assert rep["value"] == pytest.approx(target, abs=1e-4)


def test_psi_rejects_bad_determinant(capsys):
    code, rep = capture(capsys, ["psi", "--d", "7",
                                 "--matrix", "[[[2,1],[-3,-1]],[[-3,-1],[2,1]]]"])
    assert code == 1
    assert "error" in rep


def test_classify_tags(capsys):
    code, rep = capture(capsys, ["classify", "--d", "7",
                                 "--matrix", "[[[-2,-1],[1,1]],[[3,1],[-2,-1]]]"])
    assert code == 0
    assert rep["tags"] == ["hyperbolic", "elliptic"]


def test_la_report_fields(capsys):
    code, rep = capture(capsys, ["la", "--d", "7",
                                 "--matrix", "[[[-2,-1],[1,1]],[[3,1],[-2,-1]]]",
                                 "--s", "2", "--norm-bound", "500"])
    assert code == 0
    assert rep["heuristic_tail"] is True
    assert rep["value_re"] == pytest.approx(-1.2021, abs=5e-3)
    assert rep["value_im"] == 0.0
    assert rep["tail_error"] > 0
    assert rep["n_terms"] == 386


def test_la_rejects_infinite_norm_bound(capsys):
    code, rep = capture(capsys, ["la", "--matrix", A1, "--norm-bound", "inf"])
    assert code == 1
    assert rep["error"].startswith("InvalidInput: need 1 <= norm_bound")


def test_verify_cocycle_campaign(capsys):
    code, rep = capture(capsys, ["verify", "cocycle", "--d", "7",
                                 "--trials", "3", "--seed", "1"])
    assert code == 0
    assert rep["aggregate"]["pass"] is True
    assert rep["aggregate"]["max_defect"] < rep["tol"]
    assert len(rep["cases"]) == 3


def test_verify_reciprocity_campaign(capsys):
    code, rep = capture(capsys, ["verify", "reciprocity", "--d", "7",
                                 "--trials", "3", "--seed", "2"])
    assert code == 0
    assert rep["aggregate"]["max_defect"] < 1e-6


@pytest.mark.parametrize("D", [1, 2, 3, 5, 7, 13])
def test_verify_hecke_campaign(capsys, D):
    # one case per trial and prime: a split, an inert and, where one has a
    # totally positive generator, a ramified prime of each field
    code, rep = capture(capsys, ["verify", "hecke", "--d", str(D),
                                 "--trials", "2", "--seed", "1"])
    assert code == 0
    assert rep["aggregate"]["max_defect"] < 1e-5
    assert len(rep["cases"]) == 2 * (2 if D in (1, 3) else 3)


def test_verify_hecke_cap_scales_with_the_prime(capsys):
    # trial 9 draws c = 3 - 2w, N(c) = -9: the Hecke terms at p = 4 + w
    # pass the default cap of one sum_s, which raised CapExceeded here
    code, rep = capture(capsys, ["verify", "hecke", "--d", "13",
                                 "--seed", "1"])
    assert code == 0
    assert rep["aggregate"]["max_defect"] < 1e-5
    assert len(rep["cases"]) == 10 * 3


def test_theorem5_subcommand(capsys):
    code, rep = capture(capsys, [
        "theorem5", "--d", "7",
        "--matrix", "[[[-2,-1],[1,1]],[[3,1],[-2,-1]]]",
        "--s", "2", "--norm-bound", "500", "--quad-order", "8",
        "--weight-bound", "25", "--mu-cap", "2000", "--tol", "0.1"])
    assert code == 0
    assert rep["pass"] is True
    assert rep["value_im"] == pytest.approx(5.665, abs=0.05)


def test_impossible_tolerance_fails(capsys):
    code, rep = capture(capsys, ["verify", "cocycle", "--d", "7",
                                 "--trials", "2", "--seed", "1",
                                 "--tol", "1e-30"])
    assert code == 1                      # impossible tolerance fails the run
    assert rep["tol"] == 1e-30


def test_determinism_modulo_wall_time(capsys):
    argv = ["verify", "cocycle", "--d", "7", "--trials", "2", "--seed", "9"]
    _, r1 = capture(capsys, argv)
    _, r2 = capture(capsys, argv)
    for r in (r1, r2):
        del r["aggregate"]["wall_time"]
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_scipy_loaded_only_by_eisenstein_series():
    # phi, s_j, Psi and L_A, and the CLI commands running them, need no
    # special functions; the first E_F call imports scipy.special
    code = ("import contextlib, io, sys\n"
            "import hmsums.cli as cli\n"
            "from hmsums.lfunctions import eis\n"
            "from hmsums.unit_domain import TruncationParams\n"
            "F = cli.make_field(7)\n"
            "A = F.matrix((-2, -1), (1, 1), (3, 1), (-2, -1))\n"
            "cli.phi(F, A)\n"
            "cli.sum_s(F, F.elem(1, 0), F.elem(3, 1), (0.35 + 1.05j,))\n"
            "cli.psi(F, A)\n"
            "cli.l_a(A, 2.0, 500)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.run(['phi', '--d', '7', '--matrix',\n"
            "             '[[[-2,-1],[1,1]],[[3,1],[-2,-1]]]'])\n"
            "print('scipy' in sys.modules)\n"
            "eis(F, (0.2 + 0.9j, -0.3 + 1.2j), 2.0, TruncationParams(20.0))\n"
            "print('scipy.special' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [os.path.abspath(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]
