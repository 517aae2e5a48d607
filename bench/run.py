"""skewfib benchmark: three closed-loop workloads with one client each.

    python3 bench/run.py --workload verify-linear --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
Each run writes its seeded corpus into a temporary directory under
`bench/`, sets it up several times (import, corpus, warm-up) and reports
the median as `setup_s`, then runs whole passes over the corpus until
`--seconds` have passed, at least three of them, timing every
operation next to a calibration kernel that tracks the machine's speed.
Every output is checked against the independent oracle in `oracle.py`.
README.md lists the workloads and metrics.

With `--trace 0` the last line of standard output is the JSON result
with the end-to-end metrics; with `--trace 1` it carries the per-layer
metrics instead, from passes that alternate untraced and traced, and
the spans of the first traced pass are written to
`bench/out/trace-<workload>.jsonl.gz`.  The lines before it give the same
numbers for people, together with the environment the run pinned.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread for this process, fixed before numpy loads: with two
# OpenBLAS threads the same verdict's time spreads several-fold from run
# to run.  A tolerance override in the environment would change verdicts.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("SKEWFIB_TOL", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gzip  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import tracer as tracing  # noqa: E402
from oracle import Oracle  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 5
MIN_PASSES = 3

OPS = {
    "verify-linear": ("verify-skew", "verify-nondeg", "verify-eigen", "sphere-complete-check",
                      "contact-check"),
    "germ-smooth": ("germ-extend", "verify-skew", "verify-nondeg", "sphere-complete-check",
                    "contact-check", "fiber"),
    "point-queries": ("fiber_solve", "fiber_plane", "sphere_fiber_direction", "assign",
                      "invariant_on_planes", "contact_check", "limiting_direction",
                      "sample_fibers"),
}
ALL_OPS = tuple(dict.fromkeys(op for ops in OPS.values() for op in ops))

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

# Span names whose call count and self time are reported.
CALLS_AND_SELF = (
    "cli.main", "fibration.Chart.B", "fibration.Chart.dB", "fibration.fiber_solve",
    "fibration.fiber_plane", "bilinear.verify_nonsingular", "numeric.orthonormalize",
    "numeric.jacobian", "kernel.svd", "kernel.eigvals", "kernel.solve", "kernel.qr",
    "grassmann.plane_from_columns", "sphere.invariant_on_planes", "sphere.plane_residual",
    "contact.contact_check",
)
SELF_ONLY = (
    "report.to_dict", "fibration.chart_from_dict", "fibration.verify_skew",
    "fibration.verify_nondegenerate", "fibration.extend_germ", "fibration.sample_fibers",
    "fibration.limiting_direction", "numeric.SampleStream", "numeric.eigenvalues",
    "grassmann.embed_affine", "grassmann.max_principal_angle", "sphere.sphere_fiber_direction",
    "sphere.assign", "sphere.completion_check",
)
LAYERS = ("cli", "report", "fibration", "bilinear", "numeric", "kernel", "grassmann", "sphere",
          "contact", "bench")


# Calibration: a fixed mix of interpreter, small-array and LAPACK work, in
# proportions like the library's.  It runs before every operation, and
# each pass's latencies are scaled by CALIBRATION_NS over the median
# calibration time of that pass.  The machine this benchmark was written
# on (2 shared vCPUs) has phases of 10-60 s in which all code runs up to
# 1.8 times slower; the calibration time follows them closely, so the
# scaled latencies read as ms on a machine where the kernel takes 100 us.
CALIBRATION_NS = 100_000
_CAL_BATCH = np.random.default_rng(0).standard_normal((16, 3, 2))
_CAL_Y = np.array([0.3, -0.7])
_CAL_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_cal_svd = np.linalg.svd  # bound before any tracer wraps numpy.linalg


def _calibration_kernel() -> None:
    z = _CAL_J @ _CAL_Y + 0.1 * np.array([_CAL_Y[0] ** 2, _CAL_Y[0] * _CAL_Y[1]])
    _cal_svd(_CAL_BATCH, compute_uv=False)
    json.dumps({"z": z.tolist(), "k": [1, 2, 3]})


def calibrate() -> int:
    """Nanoseconds the calibration kernel takes now, with its caches warm.

    The first call only warms the caches that the previous operation
    evicted, so that what an operation leaves behind does not move the
    scale of the next one.
    """
    _calibration_kernel()
    t0 = time.perf_counter_ns()
    _calibration_kernel()
    _calibration_kernel()
    return time.perf_counter_ns() - t0


def speed_scale(samples: list[int]) -> float:
    """Factor that turns a latency measured alongside these calibration samples
    into calibrated time."""
    return CALIBRATION_NS / statistics.median(samples)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in reporting order."""
    out = []
    for span in CALLS_AND_SELF:
        out += [(f"{span}.calls", "count"), (f"{span}.self_ms", "ms")]
    out += [(f"{span}.self_ms", "ms") for span in SELF_ONLY]
    out += [("fibration.fiber_solve.newton_steps", "count"),
            ("fibration.extend_germ.attempts", "count"),
            ("fibration.verify_skew.pairs_kept_ratio", "ratio"),
            ("numeric.SampleStream.points", "count"),
            ("numeric.Tolerance.default.calls", "count")]
    out += [(f"kernel.{k}.matrices", "count") for k in ("svd", "eigvals", "solve", "qr")]
    out += [("kernel.svd.matrices_per_call", "count"), ("trace.overhead_ratio", "ratio")]
    out += [(f"op.{op}.p50_ms", "ms") for op in ALL_OPS]
    return out


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# set-up


def import_skewfib():
    """Import the library from src/ afresh; returns its modules by short name."""
    for name in [n for n in sys.modules if n == "skewfib" or n.startswith("skewfib.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"skewfib.{name}")
            for name in ("cli", "fibration", "sphere", "contact")}
    origin = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if origin != os.path.join(SRC, "skewfib"):
        raise ImportError(f"skewfib was imported from {origin}, not from {SRC}")
    return mods


def _cli_runner(cli, argv):
    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run


def prepare(ops: list[dict], workdir: str, mods: dict, trc: tracing.Tracer) -> list:
    """One zero-argument callable per operation.

    Library functions are looked up on their module at call time, so
    that the tracer's wrappers are the ones called in a traced pass.
    """
    fib, sph, con = mods["fibration"], mods["sphere"], mods["contact"]
    charts, mats, assigners = {}, {}, {}

    def load(name):
        with open(os.path.join(workdir, name), "r", encoding="utf-8") as fh:
            return json.load(fh)

    def chart(name):
        if name not in charts:
            charts[name] = fib.chart_from_dict(load(name))
        return charts[name]

    def matrix(name):
        if name not in mats:
            mats[name] = np.asarray(load(name)["matrix"], dtype=float)
        return mats[name]

    def assigner(name):
        if name not in assigners:
            assigners[name] = sph.assemble_great_circles(matrix(name))
        return assigners[name]

    def vec(v):
        return np.asarray(v, dtype=float)

    # (owner, attribute, positional arguments) of each library operation
    calls = {
        "fiber_solve": lambda c: (fib, "fiber_solve", (chart(c["chart"]), vec(c["x"]))),
        "fiber_plane": lambda c: (fib, "fiber_plane", (chart(c["chart"]), vec(c["y"]))),
        "sphere_fiber_direction": lambda c: (
            sph, "sphere_fiber_direction", (matrix(c["matrix"]), vec(c["z"]), c["z_t"])),
        "assign": lambda c: (trc, "call", ("sphere.assign", assigner(c["matrix"]), vec(c["p"]))),
        "invariant_on_planes": lambda c: (sph, "invariant_on_planes", (matrix(c["matrix"]),)),
        "contact_check": lambda c: (con, "contact_check", (chart(c["chart"]), vec(c["y"]))),
        "limiting_direction": lambda c: (
            fib, "limiting_direction", (chart(c["chart"]), vec(c["u"]), vec(c["v"]))),
        "sample_fibers": lambda c: (
            fib, "sample_fibers", (chart(c["chart"]), vec(c["base"]), (-1.0, 1.0), c["steps"])),
    }

    def library(owner, attr, args):
        return lambda: getattr(owner, attr)(*args)

    runners = []
    for op in ops:
        if "argv" in op:
            argv = [os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in op["argv"]]
            runners.append(_cli_runner(mods["cli"], argv))
        else:
            runners.append(library(*calls[op["call"]["fn"]](op["call"])))
    return runners


def setup(workload: str, seed: int, workdir: str, mods: dict, trc: tracing.Tracer):
    """Write the corpus, prepare, and warm up every kind of operation once."""
    ops = corpus.write_corpus(workload, seed, workdir, mods["cli"].main)
    runners = prepare(ops, workdir, mods, trc)
    seen = set()
    for op, run in zip(ops, runners):
        if op["op"] not in seen:
            seen.add(op["op"])
            run()
    return ops, runners


# ---------------------------------------------------------------------------
# measurement


def run_pass(ops, runners, trc: tracing.Tracer | None = None) -> tuple[list, float, float]:
    """Run every operation once, in corpus order, each after a calibration.

    Returns `(op, output, error, latency_ms)` per operation, the pass
    wall time in seconds and the pass's speed scale.
    """
    clock = time.perf_counter_ns
    results, cal = [], []
    start = time.perf_counter()
    for op, run in zip(ops, runners):
        cal.append(calibrate())
        t0 = clock()
        try:
            out = trc.op("op." + op["op"], run) if trc else run()
            err = None
        except Exception as exc:  # a raising operation is a failed operation
            out, err = None, f"op {op['id']} {op['op']}: raised {type(exc).__name__}: {exc}"
        results.append((op, out, err, (clock() - t0) / 1e6))
    return results, time.perf_counter() - start, speed_scale(cal)


class Tally:
    """What a run keeps of its passes.

    Each pass is checked by the oracle as soon as it ends and its outputs
    are dropped, so memory does not grow with the number of passes.  Of
    the latencies it keeps every operation's calibrated latency in each
    pass; every pass repeats the same operations, and an operation's
    latency sample is its median over the passes.
    """

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.latencies: dict[int, list[float]] = {}
        self.raw: dict[int, list[float]] = {}
        self.kind: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.pairs_tested = self.pairs_drawn = 0

    def add(self, results: list, scale: float) -> None:
        for op, out, err, lat in results:
            self.attempted += 1
            i = op["id"]
            self.latencies.setdefault(i, []).append(lat * scale)
            self.raw.setdefault(i, []).append(lat)
            self.kind[i] = op["op"]
            why = err or self.oracle.check(op, out)
            if why:
                self.failures.append(why)
            elif op["op"] == "verify-skew":
                rep = json.loads(out[1])
                self.pairs_tested += rep["details"]["pairs_tested"]
                self.pairs_drawn += rep["sampling"]["count"]

    def per_op(self, raw: bool = False) -> dict[int, float]:
        """Each operation's median latency over the passes, in ms."""
        return {i: statistics.median(v) for i, v in (self.raw if raw else self.latencies).items()}


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def end_to_end(tally: Tally, setup_s: float) -> dict:
    lat = list(tally.per_op().values())
    return {
        "setup_s": setup_s,
        "throughput_ops_s": len(lat) / (sum(lat) / 1e3),
        "latency_p50_ms": _pct(lat, 50),
        "latency_p90_ms": _pct(lat, 90),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced: Tally, passes: list[dict], walls: tuple[list, list]) -> dict:
    """Per-layer metrics: per-pass medians over the traced passes."""
    def med(fn):
        return float(statistics.median(fn(p) for p in passes))

    def span(p, name, field):
        return p["spans"].get(name, {}).get(field, 0)

    out = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = med(lambda p: span(p, name, "calls"))
    for name in CALLS_AND_SELF + SELF_ONLY:
        out[f"{name}.self_ms"] = med(lambda p: span(p, name, "self_ns") / 1e6)
    for key in ("fibration.fiber_solve.newton_steps", "fibration.extend_germ.attempts"):
        out[key] = med(lambda p: p["nested"][key])
    drawn = untraced.pairs_drawn
    out["fibration.verify_skew.pairs_kept_ratio"] = untraced.pairs_tested / drawn if drawn else 0.0
    out["numeric.SampleStream.points"] = med(lambda p: span(p, "numeric.SampleStream", "work"))
    out["numeric.Tolerance.default.calls"] = med(
        lambda p: span(p, "numeric.Tolerance.default", "calls"))
    for k in ("svd", "eigvals", "solve", "qr"):
        out[f"kernel.{k}.matrices"] = med(lambda p: span(p, f"kernel.{k}", "work"))
    calls = out["kernel.svd.calls"]
    out["kernel.svd.matrices_per_call"] = out["kernel.svd.matrices"] / calls if calls else 0.0
    untraced_walls, traced_walls = walls
    out["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    per_op = untraced.per_op()
    for op in ALL_OPS:
        lat = [v for i, v in per_op.items() if untraced.kind[i] == op]
        out[f"op.{op}.p50_ms"] = _pct(lat, 50) if lat else 0.0
    return out


def layer_shares(passes: list[dict]) -> dict:
    """Each module's share of the self time of a traced pass, median over passes.

    `bench` is time inside an operation but outside every traced function.
    """
    def share(p, layer):
        total = sum(s["self_ns"] for s in p["spans"].values())
        own = sum(s["self_ns"] for n, s in p["spans"].items()
                  if n.split(".")[0] == layer or (layer == "bench" and n.startswith("op.")))
        return own / total if total else 0.0

    return {layer: statistics.median(share(p, layer) for p in passes) for layer in LAYERS}


# ---------------------------------------------------------------------------
# entry point


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "skewfib")):
        sys.stderr.write(f"bench: no skewfib sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    env = environment()
    trc = tracing.Tracer()
    workroot = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            mods = import_skewfib()
            workdir = os.path.join(workroot, f"setup-{rep}")
            os.makedirs(workdir)
            ops, runners = setup(args.workload, args.seed, workdir, mods, trc)
            setup_times.append(time.perf_counter() - t0)

        oracle = Oracle(workdir)
        untraced, traced = Tally(oracle), Tally(oracle)
        start = time.perf_counter()
        if not args.trace:
            scales: list[float] = []
            while time.perf_counter() - start < args.seconds or len(scales) < MIN_PASSES:
                results, _, scale = run_pass(ops, runners)
                untraced.add(results, scale)
                scales.append(scale)
            # set-up is calibrated with the median speed scale of the run's passes
            setup_s = statistics.median(setup_times) * statistics.median(scales)
            metrics, units, shares = end_to_end(untraced, setup_s), dict(END_TO_END), {}
        else:
            passes: list[dict] = []
            walls: tuple[list, list] = ([], [])
            while time.perf_counter() - start < args.seconds or not passes:
                results, wall, scale = run_pass(ops, runners)
                untraced.add(results, scale)
                walls[0].append(wall * scale)
                trc.install()
                try:
                    results, wall, scale = run_pass(ops, runners, trc)
                finally:
                    trc.restore()
                traced.add(results, scale)
                walls[1].append(wall * scale)
                spans = trc.take()
                if not passes:
                    _write_spans(args.workload, args.seed, env, spans)
                passes.append(tracing.summarize(spans))
            metrics = per_layer(untraced, passes, walls)
            units, shares = dict(per_layer_names()), layer_shares(passes)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    attempted = untraced.attempted + traced.attempted
    failures = untraced.failures + traced.failures
    samples = list(untraced.per_op().values())
    p90 = _pct(samples, 90)
    raw = list(untraced.per_op(raw=True).values())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, 1 process")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"calls {attempted}  latency samples {len(samples)} (one per operation, its median "
          f"over {untraced.attempted // len(samples)} untraced passes)  above p90 "
          f"{sum(x > p90 for x in samples)}  uncalibrated set-ups "
          f"{[round(t, 4) for t in setup_times]} s")
    print(f"uncalibrated wall time: latency p50 {_pct(raw, 50):.6g} ms, p90 {_pct(raw, 90):.6g} ms, "
          f"throughput {len(raw) / (sum(raw) / 1e3):.6g} ops/s")
    print(f"  {'error_rate':44s} {len(failures) / attempted:14.6g} ratio "
          f"({len(failures)} of {attempted})")
    _print_metrics(metrics, units)
    if shares:
        print("self-time share by layer: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    for why in failures[:10]:
        sys.stderr.write(f"bench: failed {why}\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _write_spans(workload: str, seed: int, env: dict, spans: list[tuple]) -> None:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}.jsonl.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "env": env,
                             "fields": ["request", "span", "parent", "name", "start_ns",
                                        "end_ns", "work"]}) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")


if __name__ == "__main__":
    sys.exit(main())
