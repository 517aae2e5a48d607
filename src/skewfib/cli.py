"""Command-line surface: build charts, verify properties, probe, export.

Exit codes: 0 on success or a passing check, 1 when a verification
reports a failure (the JSON report carries the witness), 2 on usage or
input errors, arithmetic overflow included.  Reports are JSON on standard
output; sample exports are CSV.  Runs with the same --seed produce
byte-identical reports.  The environment variable SKEWFIB_TOL ("REL" or
"REL,ABS") overrides the default tolerances of every check.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from . import bilinear, contact, dims, fibration, sphere
from .errors import BlendFailure, InvalidInput, SkewfibError
from .numeric import SampleStream, Tolerance, finite_array, norm, overflow_is_invalid, unit

REPORT_SCHEMA = "skewfib-report-v1"


def _emit(obj: dict) -> None:
    # Strict JSON: a non-finite float raises ValueError, an input error,
    # before anything reaches stdout.
    sys.stdout.write(
        json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    )


def _emit_report(payload: dict, ok: bool) -> int:
    """Emit a report tagged with the schema; the exit code is 0 if ok, else 1."""
    _emit({**payload, "schema": REPORT_SCHEMA})
    return 0 if ok else 1


def _load_json(path: str) -> dict:
    """The JSON value in the file at path, its bytes decoded once as strict
    UTF-8.  Line ends are translated as a text-mode read translates them,
    so an error message counts characters as it always did, and a UTF-8 BOM
    or bytes that are not UTF-8 fail as json.load on a text-mode file
    fails (ValueError, exit 2)."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text)


def _load_chart(path: str) -> fibration.Chart:
    return fibration.chart_from_dict(_load_json(path))


def _load_matrix(path: str) -> np.ndarray:
    data = _load_json(path)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    elif isinstance(data, dict):
        cs = data.get("C", [None])
        if not (isinstance(cs, list) and cs):
            raise InvalidInput(f"matrix file {path}: key 'C' must hold a nonempty list of matrices")
        data = cs[0]
    try:
        mat = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        mat = np.empty(0)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SkewfibError(f"matrix file {path} does not hold a square matrix")
    return mat


def _parse_point(spec: str, dim: int) -> np.ndarray:
    # "0" abbreviates the origin of the ambient/chart space.
    if spec.strip() == "0":
        return np.zeros(dim)
    vals = [float(v) for v in spec.replace(",", " ").split()]
    if len(vals) != dim:
        raise SkewfibError(f"point {spec!r} has {len(vals)} coordinates, expected {dim}")
    return np.asarray(vals)


def _read_points(path: str, dim: int) -> list[np.ndarray]:
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                pts.append(_parse_point(line, dim))
    if not pts:
        raise SkewfibError(f"no points found in {path}")
    return pts


def _write_chart(c: fibration.Chart, out: str | None) -> None:
    payload = fibration.chart_to_dict(c)
    if out:
        # json.dumps takes the C encoder; json.dump to a file never does
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        _emit({"written": out, "k": c.k, "q": c.q, "kind": c.kind})
    else:
        _emit(payload)


def _stream(args) -> SampleStream:
    return SampleStream(getattr(args, "seed", 0) or 0, getattr(args, "mode", None) or "pseudo-random")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_dims(args) -> int:
    if args.what == "rho":
        _emit({"q": args.q, "rho": dims.rho(args.q)})
        return 0
    if args.what == "admissible":
        _emit(
            {
                "admissible_skew": dims.admissible_skew(args.k, args.n),
                "admissible_sphere": dims.admissible_sphere(args.k, args.n),
            }
        )
        return 0
    table = dims.skew_table(args.max_n)
    _emit({"max_n": args.max_n, "rows": [[n, ks] for n, ks in sorted(table.items())]})
    return 0


def _cmd_build(args) -> int:
    if args.family == "hopf":
        c = fibration.builtin_chart(f"hopf{args.dim}")
    elif args.family == "hopf-line":
        c = fibration.builtin_chart("hopf_line", m=args.m, a=args.a, b=args.b)
    elif args.family == "gluck-yang":
        c = fibration.builtin_chart("gluck_yang", m=args.m)
    elif args.family == "bilinear":
        if args.algebra:
            bm = bilinear.from_algebra(args.algebra, args.kp1)
        elif args.hr:
            bm = bilinear.hurwitz_radon_family(args.hr[0], args.hr[1])
        else:
            raise SkewfibError("build bilinear needs --algebra NAME --kp1 K or --hr Q R")
        c = fibration.from_bilinear(bm)
    else:
        c = _load_chart(getattr(args, "infile"))
    _write_chart(c, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.what == "contact":
        return _contact_run(args)
    if args.what == "invariant-planes":
        mat = _load_matrix(args.matrix)
        rep = sphere.invariant_on_planes(mat, samples=args.samples, stream=_stream(args))
        return _emit_report(rep.to_dict(), rep.is_invariant)
    c = _load_chart(args.chart)
    if args.what == "skew":
        rep = fibration.verify_skew(c, radius=args.radius, samples=args.samples, stream=_stream(args))
    elif args.what == "nondeg":
        rep = fibration.verify_nondegenerate(
            c, radius=args.radius, samples=args.samples, stream=_stream(args)
        )
    else:
        if c.k != 1 or not c.is_linear:
            raise SkewfibError("verify eigen needs a linear chart with k = 1")
        rep = fibration.verify_nondegenerate(c)
    return _emit_report(rep.to_dict(), rep.ok)


def _contact_run(args) -> int:
    c = _load_chart(args.chart)
    if args.point is not None:
        points = _parse_point(args.point, c.q)[None]
    elif args.points:
        points = np.stack(_read_points(args.points, c.q))
    else:
        points = _stream(args).ball_points(args.samples, c.q, args.radius)
    results = contact.contact_checks(c, points)
    all_contact = all(r.is_contact for r in results)
    return _emit_report(
        {
            "check": "contact",
            "results": [r.to_dict() for r in results],
            "all_contact": all_contact,
        },
        all_contact,
    )


def _cmd_fiber(args) -> int:
    c = _load_chart(args.chart)
    x = _parse_point(args.point, c.n)
    # the solver's own B(y) makes the plane and the residual
    y, b = fibration._fiber(c, x, Tolerance.default())
    plane = fibration._graph_plane(c, y, b)
    residual = norm(y + b @ x[: c.k] - x[c.k :])
    return _emit_report(
        {
            "chart_point": y.tolist(),
            "direction": plane.direction.frame.tolist(),
            "base": plane.base.tolist(),
            "distance": norm(plane.base),
            "residual": residual,
        },
        True,
    )


def _grid_points(spec: str, c: fibration.Chart, seed: int) -> np.ndarray:
    kind, _, rest = spec.partition(":")
    if kind == "random":
        count, _, radius = rest.partition(":")
        return SampleStream(seed).ball_points(int(count), c.q, float(radius or "1"))
    if kind == "circle":
        radius, _, count = rest.partition(":")
        angles = np.linspace(0.0, 2.0 * np.pi, int(count or "12"), endpoint=False)
        pts = np.zeros((len(angles), c.q))
        pts[:, 0] = float(radius) * np.cos(angles)
        pts[:, 1 if c.q > 1 else 0] = float(radius) * np.sin(angles)
        return pts
    if kind == "file":
        return np.stack(_read_points(rest, c.q))
    raise SkewfibError(f"unknown grid spec {spec!r}; use random:N:R, circle:R:N, or file:PATH")


def _cmd_sample(args) -> int:
    c = _load_chart(args.chart)
    grid = _grid_points(args.grid, c, args.seed or 0)
    lo, _, hi = args.t_range.partition(":")
    ids, idx, pts = fibration.sample_fibers(c, grid, (float(lo), float(hi)), args.steps)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["fiber_id"]
            + [f"i{j + 1}" for j in range(c.k)]
            + [f"x{j + 1}" for j in range(c.n)]
        )
        for fid, ind, row in zip(ids, idx, pts):
            writer.writerow([int(fid)] + [int(v) for v in ind] + [repr(float(v)) for v in row])
    _emit({"written": args.out, "fibers": len(grid), "rows": len(ids)})
    return 0


def _cmd_sphere(args) -> int:
    if args.what == "complete-check":
        c = _load_chart(args.chart)
        rep = sphere.completion_check(c, samples=args.samples, stream=_stream(args))
        return _emit_report(rep.to_dict(), rep.ok)
    mat = _load_matrix(args.matrix)
    if args.what == "assemble":
        return _sphere_assemble(mat, args)
    return _sphere_probe(mat, args)


def _sphere_points(mat: np.ndarray, args) -> list[np.ndarray]:
    d = mat.shape[0] + 2
    if args.point is not None:
        p = _parse_point(args.point, d)
        if args.point.strip() == "0":
            p[-1] = 1.0  # the origin shorthand means the north pole here
        if not finite_array(p, (d,), "sphere point coordinates").any():
            raise SkewfibError("sphere point must have a nonzero finite norm, got 0.0")
        return [unit(p)]
    raw = _stream(args).unit_vectors(args.samples, d)
    return [r for r in raw]


def _sphere_assemble(mat: np.ndarray, args) -> int:
    assign = sphere.assemble_great_circles(mat)
    points = _sphere_points(mat, args)
    circles = [assign(p) for p in points]
    if args.out:
        theta = np.linspace(0.0, 2.0 * np.pi, args.theta_steps, endpoint=False)
        params = np.column_stack([np.cos(theta), np.sin(theta)])
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["circle_id", "theta"] + [f"x{j + 1}" for j in range(mat.shape[0] + 2)]
            )
            for cid, circ in enumerate(circles):
                for t, row in zip(theta, circ.points(params)):
                    writer.writerow([cid, repr(float(t))] + [repr(float(v)) for v in row])
    return _emit_report(
        {
            "check": "assemble",
            "circles": [c.frame.tolist() for c in circles],
            "written": args.out,
        },
        True,
    )


def _sphere_probe(mat: np.ndarray, args) -> int:
    # Convergence of assigned circles approaching the core sphere S.
    assign = sphere.assemble_great_circles(mat)
    d = mat.shape[0]
    stream = _stream(args)
    us = stream.unit_vectors(args.samples, d)
    from .grassmann import max_principal_angle

    worst = 0.0
    for u in us:
        p_s = np.concatenate([[0.0], u, [0.0]])
        limit = assign(p_s)
        w = np.zeros(d + 2)
        w[0], w[-1] = 0.6, 0.8
        p = np.cos(args.distance) * p_s + np.sin(args.distance) * w
        angle = max_principal_angle(assign(unit(p)).frame, limit.frame)
        worst = max(worst, angle)
    ok = worst <= args.threshold
    return _emit_report(
        {
            "check": "sphere-probe",
            "distance": args.distance,
            "max_angle": worst,
            "threshold": args.threshold,
            "converged": ok,
        },
        ok,
    )


def _cmd_germ(args) -> int:
    c = _load_chart(args.chart)
    try:
        ext = fibration.extend_germ(c, blend_r=args.radius, samples=args.samples, seed=args.seed or 0)
    except BlendFailure as exc:
        witness = {"blend_r": args.radius, "reason": str(exc)}
        rep = replace(exc.report, check="germ-extend", witnesses=(witness,))
        return _emit_report(rep.to_dict(), rep.ok)
    _write_chart(ext, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    # Built on the first main() call and reused: building the tree costs
    # tens of times as much as parsing one command line with it.  Returns
    # the tree and its leaf table (_leaves).  Each handler is guarded by
    # overflow_is_invalid once, here, so overflow is an input error (exit 2).
    parser = argparse.ArgumentParser(
        prog="skewfib",
        description="Skew fibrations of R^n: build charts, verify, probe, export.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_dims = sub.add_parser("dims", help="dimension queries")
    p_dims.set_defaults(handler=overflow_is_invalid(_cmd_dims))
    dims_sub = p_dims.add_subparsers(dest="what", required=True)
    p = dims_sub.add_parser("rho", help="Hurwitz-Radon function")
    p.add_argument("q", type=int)
    p = dims_sub.add_parser("admissible", help="admissible fiber dimensions")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p = dims_sub.add_parser("table", help="admissible k per n")
    p.add_argument("--max-n", type=int, default=24)

    p_build = sub.add_parser("build", help="construct charts")
    p_build.set_defaults(handler=overflow_is_invalid(_cmd_build))
    build_sub = p_build.add_subparsers(dest="family", required=True)
    p = build_sub.add_parser("hopf")
    p.add_argument("--dim", type=int, required=True, choices=(3, 7, 15))
    p.add_argument("--out")
    p = build_sub.add_parser("hopf-line")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--out")
    p = build_sub.add_parser("gluck-yang")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p = build_sub.add_parser("bilinear")
    p.add_argument("--algebra", choices=("complex", "quaternion", "octonion"))
    p.add_argument("--kp1", type=int, default=2)
    p.add_argument("--hr", type=int, nargs=2, metavar=("Q", "R"))
    p.add_argument("--out")
    p = build_sub.add_parser("from-json")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p_verify = sub.add_parser("verify", help="verification checks")
    p_verify.set_defaults(handler=overflow_is_invalid(_cmd_verify))
    verify_sub = p_verify.add_subparsers(dest="what", required=True)
    for name in ("skew", "nondeg"):
        p = verify_sub.add_parser(name)
        p.add_argument("--chart", required=True)
        p.add_argument("--radius", type=float, default=10.0)
        p.add_argument("--samples", type=int, default=1024)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=SampleStream.MODES)
    p = verify_sub.add_parser("eigen")
    p.add_argument("--chart", required=True)
    p = verify_sub.add_parser("contact")
    _add_contact_args(p)
    p = verify_sub.add_parser("invariant-planes")
    p.add_argument("--matrix", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p_fiber = sub.add_parser("fiber", help="solve the fiber through a point")
    p_fiber.add_argument("--chart", required=True)
    p_fiber.add_argument("--point", required=True)
    p_fiber.set_defaults(handler=overflow_is_invalid(_cmd_fiber))

    p_sample = sub.add_parser("sample", help="export fiber samples as CSV")
    p_sample.add_argument("--chart", required=True)
    p_sample.add_argument("--grid", required=True, help="random:N:R, circle:R:N, or file:PATH")
    p_sample.add_argument("--t-range", default="-1:1")
    p_sample.add_argument("--steps", type=int, default=5)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(handler=overflow_is_invalid(_cmd_sample))

    p_sphere = sub.add_parser("sphere", help="sphere-side checks")
    p_sphere.set_defaults(handler=overflow_is_invalid(_cmd_sphere))
    sphere_sub = p_sphere.add_subparsers(dest="what", required=True)
    p = sphere_sub.add_parser("complete-check")
    p.add_argument("--chart", required=True)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p = sphere_sub.add_parser("assemble")
    p.add_argument("--matrix", required=True)
    p.add_argument("--point")
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta-steps", type=int, default=64)
    p.add_argument("--out")
    p = sphere_sub.add_parser("probe")
    p.add_argument("--matrix", required=True)
    p.add_argument("--distance", type=float, default=1e-4)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-3)

    p_contact = sub.add_parser("contact", help="contact-structure checks")
    p_contact.set_defaults(handler=overflow_is_invalid(_contact_run))
    contact_sub = p_contact.add_subparsers(dest="what", required=True)
    p = contact_sub.add_parser("check")
    _add_contact_args(p)

    p_germ = sub.add_parser("germ", help="germ extension")
    p_germ.set_defaults(handler=overflow_is_invalid(_cmd_germ))
    germ_sub = p_germ.add_subparsers(dest="what", required=True)
    p = germ_sub.add_parser("extend")
    p.add_argument("--chart", required=True)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    return parser, _leaves(parser, (), {})


def _leaves(parser: argparse.ArgumentParser, words: tuple, preset: dict) -> dict:
    """Each command's words, such as ("verify", "skew") or ("fiber",), mapped
    to its leaf parser and the namespace values that the levels above the
    leaf set: the verb, the sub-verb's dest and the handler."""
    subs = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
    if subs is None:
        return {words: (parser, preset)}
    preset = {**preset, **parser._defaults}
    table = {}
    for name, child in subs.choices.items():
        table.update(_leaves(child, words + (name,), {**preset, subs.dest: name}))
    return table


def _add_contact_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chart", required=True)
    p.add_argument("--point")
    p.add_argument("--points")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse a named command with its own leaf parser, which skips the
    root's and the verb's scans of every token.  An argv that names no leaf,
    and a leaf parse that leaves arguments over, go to the whole tree, so
    help, usage errors and exit codes are the tree's own."""
    tree, leaves = _build_parser()
    key = tuple(argv[:2]) if tuple(argv[:2]) in leaves else tuple(argv[:1])
    if key in leaves:
        leaf, preset = leaves[key]
        args, rest = leaf.parse_known_args(argv[len(key):], argparse.Namespace(**preset))
        if not rest:
            return args
    return tree.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (SkewfibError, OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"skewfib: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
