"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 bench/smoke.py

Runs every workload shrunk to a case or two, untraced and traced, and
checks that each run passes and prints exactly the metrics BENCHMARK.json
names, with their units; that the gate fails when a reference value is
wrong; and that the benchmark refuses to run without the library source.
Exits 0 when all of that holds.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "theorem5": workloads.Theorem5(
        ["theorem5", "--d", "7", "--matrix", "[[[-2,-1],[1,1]],[[3,1],[-2,-1]]]",
         "--s", "2", "--tol", "1e-2", "--quad-order", "4", "--mu-cap", "1000",
         "--norm-bound", "500", "--weight-bound", "20"]),
    "cocycle": workloads.Cocycle(),
    "dedekind": workloads.Dedekind(),
    "lseries": workloads.Lseries(norm_bound=300.0),
}


def bench(name: str, trace: int) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace)], workloads_table=TINY)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def main() -> None:
    names = [w["name"] for w in SPEC["workloads"]]
    expect(sorted(names) == sorted(TINY), "BENCHMARK.json lists the workloads")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in names:
            code, res = bench(name, trace)
            expect(code == 0 and res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, f"{name} trace={trace} passes")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{name} trace={trace} emits {key} metrics "
                   "with their units")

    # A wrong reference must fail the gate and the exit status.
    good = workloads.PSI_NEG_A1_INV
    workloads.PSI_NEG_A1_INV = good + 1e-3
    try:
        code, res = bench("lseries", 0)
    finally:
        workloads.PSI_NEG_A1_INV = good
    expect(code == 1 and not res["correct"] and res["failed"] == 1,
           "a wrong closed form for Psi(-A1^-1) fails the gate")
    inp = {"A": workloads.A1_JSON, "B": workloads.A1_JSON,
           "z": [[0.1, 1.0], [0.2, 1.1]]}
    ok, _ = workloads.Cocycle().check([inp], [(1.0, 0.0, 0.0)])[0]
    expect(not ok, "a cocycle relation off by at least 3/4 fails the gate")

    # Without the library source the benchmark prints no result and fails.
    bare = BENCH / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(SPEC["command"] + ["--workload", "cocycle", "--seed",
                                             "1", "--seconds", "1", "--trace",
                                             "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without src/ the benchmark exits non-zero and prints no result")


if __name__ == "__main__":
    main()
