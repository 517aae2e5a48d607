"""Span tracer that wraps skewfib's public functions from outside.

The tracer edits nothing in the library.  While installed, it replaces
each traced function at every place it is bound: the defining module,
every skewfib module that imported it by name, the package namespace,
and class attributes such as `Chart.B`.  The numpy.linalg kernels are
wrapped on `numpy.linalg`, which is where the library looks them up.

A wrapper records a span only inside an operation span opened by
`Tracer.op`, so set-up, warm-up and oracle work are never traced.  Spans
are tuples `(request, span, parent, name, start_ns, end_ns, work)` kept
in memory; `work` is the batch size of a kernel call or the number of
points drawn from a SampleStream.  `restore` puts back every original
attribute.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from collections import defaultdict

import numpy as np

MARK = "__bench_traced__"


def _batch(args, kwargs) -> int:
    a = args[0] if args else next(iter(kwargs.values()))
    shape = np.shape(a)
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _count(args, kwargs) -> int:
    # SampleStream.unit_vectors(count, dims) and ball_points(count, dims, radius)
    return int(args[1]) if len(args) > 1 else int(kwargs["count"])


# (span name, module, qualified attribute, work counter)
TARGETS = (
    ("cli.main", "skewfib.cli", "main", None),
    ("report.to_dict", "skewfib.report", "VerificationReport.to_dict", None),
    ("fibration.Chart.B", "skewfib.fibration", "Chart.B", None),
    ("fibration.Chart.dB", "skewfib.fibration", "Chart.dB", None),
    ("fibration.fiber_solve", "skewfib.fibration", "fiber_solve", None),
    ("fibration.fiber_plane", "skewfib.fibration", "fiber_plane", None),
    ("fibration.chart_from_dict", "skewfib.fibration", "chart_from_dict", None),
    ("fibration.verify_skew", "skewfib.fibration", "verify_skew", None),
    ("fibration.verify_nondegenerate", "skewfib.fibration", "verify_nondegenerate", None),
    ("fibration.extend_germ", "skewfib.fibration", "extend_germ", None),
    ("fibration.sample_fibers", "skewfib.fibration", "sample_fibers", None),
    ("fibration.limiting_direction", "skewfib.fibration", "limiting_direction", None),
    ("bilinear.verify_nonsingular", "skewfib.bilinear", "verify_nonsingular", None),
    ("numeric.SampleStream", "skewfib.numeric", "SampleStream.unit_vectors", _count),
    ("numeric.SampleStream", "skewfib.numeric", "SampleStream.ball_points", _count),
    ("numeric.eigenvalues", "skewfib.numeric", "eigenvalues", None),
    ("numeric.orthonormalize", "skewfib.numeric", "orthonormalize", None),
    ("numeric.jacobian", "skewfib.numeric", "jacobian", None),
    ("numeric.Tolerance.default", "skewfib.numeric", "Tolerance.default", None),
    ("kernel.svd", "numpy.linalg", "svd", _batch),
    ("kernel.eigvals", "numpy.linalg", "eigvals", _batch),
    ("kernel.solve", "numpy.linalg", "solve", _batch),
    ("kernel.qr", "numpy.linalg", "qr", _batch),
    ("grassmann.plane_from_columns", "skewfib.grassmann", "plane_from_columns", None),
    ("grassmann.embed_affine", "skewfib.grassmann", "embed_affine", None),
    ("grassmann.max_principal_angle", "skewfib.grassmann", "max_principal_angle", None),
    ("sphere.invariant_on_planes", "skewfib.sphere", "invariant_on_planes", None),
    ("sphere.plane_residual", "skewfib.sphere", "plane_residual", None),
    ("sphere.sphere_fiber_direction", "skewfib.sphere", "sphere_fiber_direction", None),
    ("sphere.completion_check", "skewfib.sphere", "completion_check", None),
    ("contact.contact_check", "skewfib.contact", "contact_check", None),
)


def _skewfib_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "skewfib" or name.startswith("skewfib."))]


def wrapped_attributes() -> list[str]:
    """Every skewfib or numpy.linalg attribute that still holds a tracer wrapper."""
    owners = [(m.__name__, vars(m)) for m in _skewfib_modules()]
    owners.append(("numpy.linalg", vars(np.linalg)))
    for mod_name, ns in list(owners):
        for attr, val in ns.items():
            if isinstance(val, type) and val.__module__.startswith("skewfib"):
                owners.append((f"{mod_name}.{attr}", vars(val)))
    found = []
    for owner, ns in owners:
        for attr, val in ns.items():
            fn = getattr(val, "__func__", val)
            if getattr(fn, MARK, False):
                found.append(f"{owner}.{attr}")
    return found


class Tracer:
    """Records spans of the TARGETS while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._request = 0
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn, work):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((tracer._request, sid, parent, name, start, end,
                              work(args, kwargs) if work else 0))

        setattr(traced, MARK, True)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target at each place it is bound."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _skewfib_modules()
        for name, mod_name, qual, work in TARGETS:
            owner = sys.modules[mod_name]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            fn = getattr(raw, "__func__", raw)
            traced = self._wrap(name, fn, work)
            self._patch(owner, attr, raw, staticmethod(traced) if isinstance(raw, staticmethod) else traced)
            if path or mod_name == "numpy.linalg":
                continue
            for mod in modules:
                if mod is not owner and vars(mod).get(attr) is fn:
                    self._patch(mod, attr, fn, traced)

    def _patch(self, owner, attr, raw, new) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def op(self, name: str, fn):
        """Run one operation as the root span of a new request."""
        sid = next(self._ids)
        self._request = sid
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, sid, 0, name, start, end, 0))

    def call(self, name: str, fn, *args):
        """Call fn as a span of its own; a plain call outside an operation."""
        if not self._stack:
            return fn(*args)
        return self._wrap(name, fn, None)(*args)

    def take(self) -> list[tuple]:
        """Hand over the recorded spans and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans: list[tuple]) -> dict:
    """Per span name: calls, self time in ns and work, over one list of spans.

    Also counts `Chart.dB` calls made under a `fiber_solve` span (Newton
    steps) and `verify_nondegenerate` calls under an `extend_germ` span
    (blend attempts).
    """
    child_ns: dict[int, int] = defaultdict(int)
    parent_of, name_of = {}, {}
    for _, sid, parent, name, start, end, _ in spans:
        child_ns[parent] += end - start
        parent_of[sid], name_of[sid] = parent, name
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_ns": 0, "work": 0})
    nested = {("fibration.Chart.dB", "fibration.fiber_solve"): "fibration.fiber_solve.newton_steps",
              ("fibration.verify_nondegenerate", "fibration.extend_germ"): "fibration.extend_germ.attempts"}
    counts = dict.fromkeys(nested.values(), 0)
    for _, sid, parent, name, start, end, work in spans:
        st = out[name]
        st["calls"] += 1
        st["self_ns"] += end - start - child_ns[sid]
        st["work"] += work
        for (child, ancestor), key in nested.items():
            if name != child:
                continue
            up = parent
            while up:
                if name_of.get(up) == ancestor:
                    counts[key] += 1
                    break
                up = parent_of.get(up, 0)
    return {"spans": dict(out), "nested": counts}
