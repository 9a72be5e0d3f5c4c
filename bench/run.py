"""hmsums benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.py`` as a closed loop, case after case, in
this process with one thread (BLAS and OpenMP pools pinned to 1).  The seed
picks the inputs and ``--seconds`` the number of cases, sized so that the
cases take about that long on the commit that defined the benchmark; the
case list then stays fixed, so a faster library reports a smaller wall_s.

Times are wall times rescaled to a reference core speed (``SpeedClock``):
the cores of a shared machine drift by tens of per cent over seconds.

Every case is checked (see ``workloads.py``).  The last line of standard
output is one JSON object, {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the end-to-end metrics, timed with tracing off; with
--trace 1 the per-layer metrics of ``tracer.py`` from a traced pass over
the same cases, plus trace.overhead_s, the traced wall_s minus the
untraced one.  The drawn inputs, per-case times and defects, and the run
metadata go to bench/out/, and a traced run writes its spans there too.

Exit status: 0 when every case passed its check, 1 when one raised or
failed, 2 when the library's source is missing.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:                # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.stats.mstats import hdquantiles  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 3
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.setup(sys.argv[3])")

# The speed gauge: a fixed slice of interpreter and allocation work and a
# fixed slice of numpy work on arrays larger than the L2 cache, run every
# GAUGE_PERIOD seconds.  REFERENCE_S holds their median durations on the
# machine that defined the benchmark (2-core Xeon VM), so reported seconds
# read as seconds there.
GAUGE_PERIOD = 0.5
GAUGE_WINDOW = 5
REFERENCE_S = (0.0033, 0.0092)
_GAUGE_SMALL = np.random.default_rng(0).random(20_000)
_GAUGE_LARGE = np.random.default_rng(1).random(200_000)

END_TO_END_UNITS = {"wall_s": "s", "case_s_p50": "s", "case_s_p90": "s",
                    "setup_s": "s", "digits_min": "digits"}


def git_sha():
    """HEAD of the checkout, read from .git without running git (which would
    look above the checkout); None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, n_cases: int) -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpus": sorted(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "cases": n_cases}


def gauge() -> tuple:
    """Seconds this core takes for the interpreter slice and for the numpy
    slice (about 3 ms and 9 ms)."""
    t0 = time.perf_counter()
    for i in range(1, 200):
        Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, i)
    s = 0
    for i in range(20_000):
        s += i * i % 7
    np.sort(_GAUGE_SMALL * 1.5)
    t1 = time.perf_counter()
    x = _GAUGE_LARGE * 3.0 + 1.0
    float(np.sum(np.exp(1j * x[x > 2.0]).real))
    return t1 - t0, time.perf_counter() - t1


class SpeedClock:
    """Wall time rescaled to the machine's reference speed.

    The cores of a shared machine change speed by 20-40% over seconds as
    neighbours come and go; the interpreter and numpy on large arrays do not
    always slow down alike, so the gauge times both.  A timer signal runs
    ``gauge`` every GAUGE_PERIOD seconds; between gauges the clock advances,
    per wall second, by the geometric mean of both slices' speed against
    REFERENCE_S (medians over the last GAUGE_WINDOW gauges), and the gauges'
    own time is left out.
    """

    def __init__(self):
        self._gauges = collections.deque([gauge()], maxlen=GAUGE_WINDOW)
        self._norm = 0.0
        self._mark = time.perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self.start()

    def scale(self) -> float:
        return math.sqrt(
            REFERENCE_S[0] / statistics.median(g[0] for g in self._gauges)
            * REFERENCE_S[1] / statistics.median(g[1] for g in self._gauges))

    def _tick(self, *_):
        self._norm += (time.perf_counter() - self._mark) * self.scale()
        self._gauges.append(gauge())
        self._mark = time.perf_counter()

    def read(self) -> float:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._norm + (time.perf_counter() - self._mark) * self.scale()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD, GAUGE_PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def close(self) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._old)


def setup_seconds(name: str) -> float:
    """Wall time of a fresh interpreter importing hmsums, building the field
    and filling the workload's lazy caches."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH),
                    name], check=True, timeout=120)
    return time.perf_counter() - t0


def run_pass(w, field, inputs: list, clock: SpeedClock) -> tuple:
    """A closed-loop pass over the case list: per-case seconds on the
    speed clock, results, per-case error text (None when the case
    returned) and per-case wall seconds."""
    times, results, errors, walls = [], [], [], []
    for inp in inputs:
        t, wall = clock.read(), time.perf_counter()
        try:
            results.append(w.run(field, inp))
            errors.append(None)
        except Exception:   # a case that raises counts as failed
            results.append(None)
            errors.append(traceback.format_exc(limit=3))
        times.append(clock.read() - t)
        walls.append(time.perf_counter() - wall)
    return times, results, errors, walls


def verdicts(w, inputs: list, results: list) -> list:
    """(ok, relative defect) per case; a case that raised fails."""
    out = [(False, None)] * len(inputs)
    done = [i for i, r in enumerate(results) if r is not None]
    for i, v in zip(done, w.check([inputs[i] for i in done],
                                  [results[i] for i in done])):
        out[i] = v
    return out


def percentiles(xs: list, qs: tuple) -> list:
    """Harrell-Davis estimates of the qs-quantiles: a weighted mean of all
    order statistics, far steadier than one order statistic when a run
    holds a few dozen unequal cases."""
    if len(xs) == 1:
        return [float(xs[0])] * len(qs)
    return [float(v) for v in hdquantiles(xs, prob=qs)]


def main(argv=None, workloads_table=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hmsums" / "__init__.py").is_file():
        print(f"bench: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    import tracer as tracing
    table = workloads_table or workloads.WORKLOADS
    if args.workload not in table:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2
    w = table[args.workload]
    # One core for the run and its set-up children, so that the speed gauge
    # measures the core the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
    field = workloads.hm.field_arith.make_field(workloads.D)
    w.fill(field)
    if tr:
        tr.uninstall()      # the draw's library calls are not spans
    inputs = w.draw(field, args.seed, w.size(args.seconds))

    clock = SpeedClock()
    try:
        if tr:
            tr.install()
            traced_wall = sum(run_pass(w, field, inputs, clock)[0])
            tr.uninstall()
        setups = []
        if not tr:
            # The gauge is off while a set-up child shares this core.
            clock.stop()
            for _ in range(SETUP_REPEATS):
                setups.append(setup_seconds(args.workload) * clock.scale())
            clock.start()
        times, results, errors, walls = run_pass(w, field, inputs, clock)
    finally:
        clock.close()
    wall = sum(times)
    checks = verdicts(w, inputs, results)
    failed = sum(not ok for ok, _ in checks)

    if tr:
        metrics = tracing.per_layer(tr.stats())
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        # Set by the largest single Omega call, so it jumps between seeds;
        # it informs, it does not gate.
        metrics["process.peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        p50, p90 = percentiles(times, (0.5, 0.9))
        metrics = {
            "wall_s": wall,
            "case_s_p50": p50,
            "case_s_p90": p90,
            "setup_s": statistics.median(setups),
            "digits_min": workloads.worst_digits(
                d for _, d in checks if d is not None),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "meta": metadata(args, len(inputs)),
        "setup_s_runs": setups,
        "cases": [{"inputs": inp, "seconds": t, "wall_seconds": wt, "ok": ok,
                   "defect": d, "error": e}
                  for inp, t, wt, (ok, d), e in zip(inputs, times, walls,
                                                    checks, errors)],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if tr:
        tr.save(stem.with_suffix(".spans.npz"))
    print(f"bench: {len(inputs)} cases, {failed} failed; "
          f"details in {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(inputs),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
