"""Shared numerical primitives.

Vectors and matrices are plain float64 numpy arrays.  All randomized
routines draw from a SampleStream so that identical seeds reproduce
identical samples bit for bit, and so that the first N points of a larger
batch coincide with the N points of a smaller one (draws happen in fixed
chunks).  Singularity decisions use the relative-plus-absolute threshold
sigma_min <= rel * sigma_max + abs.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InvalidInput, RankDeficient

DEFAULT_REL = 1e-8
DEFAULT_ABS = 1e-12

# Draws are generated in chunks of this many points so that sample i depends
# only on i, never on the requested batch size.
_CHUNK = 256


@dataclass(frozen=True)
class Tolerance:
    rel: float = DEFAULT_REL
    abs: float = DEFAULT_ABS

    def __post_init__(self):
        # NaN fails both comparisons, so it is rejected here too
        if not (self.rel > 0.0 and self.abs > 0.0):
            raise InvalidInput(f"tolerances must be positive, got rel={self.rel} abs={self.abs}")
        if not (math.isfinite(self.rel) and math.isfinite(self.abs)):
            raise InvalidInput(f"tolerances must be finite, got rel={self.rel} abs={self.abs}")

    @staticmethod
    def default() -> "Tolerance":
        """Default tolerances, overridable via SKEWFIB_TOL=REL[,ABS]."""
        raw = os.environ.get("SKEWFIB_TOL")
        if not raw:
            return Tolerance()
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        try:
            if len(parts) == 1:
                return Tolerance(rel=float(parts[0]))
            if len(parts) == 2:
                return Tolerance(rel=float(parts[0]), abs=float(parts[1]))
        except ValueError:
            pass
        raise InvalidInput(f"cannot parse SKEWFIB_TOL={raw!r}; expected REL or REL,ABS")

    def threshold(self, scale: float) -> float:
        """Singularity cutoff for a quantity whose natural scale is `scale`."""
        return self.rel * scale + self.abs


def _primes(count: int) -> list[int]:
    out, n = [], 2
    while len(out) < count:
        if all(n % p for p in out):
            out.append(n)
        n += 1
    return out


class SampleStream:
    """Deterministic point source for verification loops.

    mode "pseudo-random" draws from a seeded PCG64 generator; mode
    "low-discrepancy" uses an additive Kronecker lattice pushed onto the
    sphere through Box-Muller pairs.  Both modes are prefix-stable: the
    points of a batch of size N are the first N points of any larger batch.

    This is the one place that checks a sample count (>= 1) and a
    sampling radius (finite, > 0): every draw checks its own, and so does
    sampling(), where every sampled verdict builds its record, so no check
    or CLI verb keeps a copy of the test.
    """

    MODES = ("pseudo-random", "low-discrepancy")

    def __init__(self, seed: int = 0, mode: str = "pseudo-random"):
        if mode not in self.MODES:
            raise InvalidInput(f"unknown sample mode {mode!r}; expected one of {self.MODES}")
        self.seed = int(seed)
        self.mode = mode
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        if mode == "low-discrepancy":
            # Per-seed phase plus square-root-of-prime increments.
            self._phase = self._gen.random(64)
            self._alpha = np.sqrt(np.array(_primes(64), dtype=float)) % 1.0
            self._index = 0

    # Each chunk draws `dims` standard normals plus one uniform per point.
    def _chunk(self, dims: int) -> tuple[np.ndarray, np.ndarray]:
        if self.mode == "pseudo-random":
            g = self._gen.standard_normal((_CHUNK, dims))
            u = self._gen.random(_CHUNK)
            return g, u
        idx = np.arange(self._index + 1, self._index + _CHUNK + 1, dtype=float)
        self._index += _CHUNK
        ncols = 2 * ((dims + 1) // 2)
        lattice = (self._phase[: ncols + 1] + np.outer(idx, self._alpha[: ncols + 1])) % 1.0
        u1 = np.clip(lattice[:, 0:ncols:2], 1e-16, 1 - 1e-16)
        u2 = lattice[:, 1:ncols:2]
        radial = np.sqrt(-2.0 * np.log(u1))
        g = np.empty((_CHUNK, ncols))
        g[:, 0::2] = radial * np.cos(2 * np.pi * u2)
        g[:, 1::2] = radial * np.sin(2 * np.pi * u2)
        return g[:, :dims], lattice[:, ncols]

    @staticmethod
    def _check(count: int, radius: float | None = None) -> None:
        if radius is not None and not (math.isfinite(radius) and radius > 0.0):
            raise InvalidInput(f"need a finite sampling radius > 0, got {radius}")
        if count < 1:
            raise InvalidInput(f"need samples >= 1, got {count}")

    def _points(self, count: int, dims: int) -> tuple[np.ndarray, np.ndarray]:
        self._check(count)
        if dims < 1:
            raise InvalidInput(f"need dims >= 1, got {dims}")
        gs, us = [], []
        for _ in range(-(-count // _CHUNK)):
            g, u = self._chunk(dims)
            gs.append(g)
            us.append(u)
        return np.vstack(gs)[:count], np.concatenate(us)[:count]

    def unit_vectors(self, count: int, dims: int) -> np.ndarray:
        """count unit vectors on the sphere in R^dims, one per row."""
        g, _ = self._points(count, dims)
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return g / norms

    def ball_points(self, count: int, dims: int, radius: float) -> np.ndarray:
        """count points uniform in the ball of the given radius."""
        self._check(count, radius)
        g, u = self._points(count, dims)
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return (g / norms) * (radius * u[:, None] ** (1.0 / dims))

    def pairs_in_ball(self, count: int, dims: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """count pairs (x, y) of ball points, drawn as consecutive samples."""
        self._check(count, radius)
        pts = self.ball_points(2 * count, dims, radius)
        return pts[0::2], pts[1::2]

    def sampling(self, count: int, radius: float | None = None) -> dict:
        """The report record of a search that draws count samples from this
        stream; a search over chart points adds the radius of their ball."""
        self._check(count, radius)
        ball = {} if radius is None else {"radius": radius}
        return {"seed": self.seed, "mode": self.mode, "count": count, **ball}


def finite_vector(v: np.ndarray, size: int, name: str = "point") -> np.ndarray:
    """v as a float vector of the given length with finite entries.

    Inputs are checked where they enter, so that NaN or inf never reaches
    LAPACK or comes back as a silent result.  The test runs on a Python
    list: for one point it costs a fraction of np.isfinite(v).all().
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (size,):
        raise InvalidInput(f"{name} shape {v.shape} != ({size},)")
    if not all(map(math.isfinite, v.tolist())):
        raise InvalidInput(f"{name} coordinates must be finite")
    return v


def is_singular(sv: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Singularity test on singular values sorted descending along the last
    axis: sigma_min <= rel * sigma_max + abs, one flag per matrix."""
    return sv[..., -1] <= tol.threshold(sv[..., 0])


# A stack is cut into chunks of at least this many matrices.  Measured on
# 2 shared vCPUs (BENCH_parallel-svd.json), a split in two took 0.51-0.75
# of the one-call time from 2,048 matrices of any shape up when the second
# CPU was free, but 1.02-1.28 of it for 256-1,024 2x2 matrices, and up to
# 1.11 at any size while the other CPU was busy.
MIN_CHUNK = 2048

_pool = None
_pool_lock = threading.Lock()


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, so that taskset limits the threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _reset_pool() -> None:
    # A forked child inherits the executor but none of its threads, and
    # would wait forever on work queued to them: it builds its own.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _executor():
    """The process's SVD thread pool, built on first use.  The calling
    thread decomposes one chunk itself, so the pool has one thread fewer
    than the process has CPUs."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="skewfib-svd")
        return _pool


def singular_values(stack: np.ndarray) -> np.ndarray:
    """np.linalg.svd(stack, compute_uv=False) of an (N, r, c) stack, spread
    over the process's CPUs.

    A stack of fewer than 2 * MIN_CHUNK matrices, or a process with one
    CPU, takes one np.linalg.svd call.  A larger stack is cut into
    contiguous chunks, one per CPU and none below MIN_CHUNK matrices: the
    calling thread decomposes the first, threads of a shared pool the
    others.  LAPACK decomposes every matrix on its own with the same call,
    so the result equals the one-call result bit for bit, and a chunk that
    fails raises the same LinAlgError.
    """
    chunks = len(stack) // MIN_CHUNK
    if chunks > 1:
        chunks = min(chunks, _cpus())
    if chunks < 2:
        return np.linalg.svd(stack, compute_uv=False)
    first, *rest = np.array_split(stack, chunks)
    pool = _executor()
    futures = [pool.submit(np.linalg.svd, part, compute_uv=False) for part in rest]
    try:
        head = np.linalg.svd(first, compute_uv=False)
    finally:
        # every chunk finishes before a result or an error is read, so no
        # thread still reads the stack once this returns or raises
        for future in futures:
            future.exception()
    return np.concatenate([head, *(future.result() for future in futures)])


def real_eigenvalue_mask(eig: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Which eigenvalues count as real: |Im| <= rel * (1 + |lambda|)."""
    return np.abs(eig.imag) <= tol.rel * (1.0 + np.abs(eig))


def orthonormalize(frame: np.ndarray, tol: Tolerance | None = None) -> np.ndarray:
    """Orthonormal frame with the same column span and orientation.

    The change of basis from the input columns to the output columns has
    positive determinant.  Raises RankDeficient when the columns are
    dependent at the absolute tolerance.  A stack of frames, shape
    (..., n, k), is orthonormalized frame by frame, with the same result
    as one call per frame.
    """
    tol = tol or Tolerance.default()
    frame = np.asarray(frame, dtype=float)
    if frame.ndim < 2 or frame.shape[-1] == 0:
        raise InvalidInput("orthonormalize expects n x k frames with k >= 1")
    if frame.shape[-2] < frame.shape[-1]:
        raise RankDeficient(f"frame of shape {frame.shape} cannot have independent columns")
    smin = np.linalg.svd(frame, compute_uv=False)[..., -1].ravel()
    deficient = np.flatnonzero(smin <= tol.abs)
    if deficient.size:
        raise RankDeficient(
            f"frame is rank deficient: sigma_min={smin[deficient[0]]:.3e} <= {tol.abs:.1e}"
        )
    q, r = np.linalg.qr(frame)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues with multiplicity, as a complex array.

    The matrix is split along connected components of its sparsity
    pattern first.  1x1 and 2x2 components are solved by the quadratic
    formula, so block-rotation matrices aI + b J report spectra a +- bi
    without the extra rounding of a general QR sweep.  Larger components
    fall back to LAPACK.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput("eigenvalues expects a square matrix")
    n = m.shape[0]
    linked = (m != 0.0) | (m.T != 0.0)
    seen = np.zeros(n, dtype=bool)
    out: list[complex] = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            for j in np.nonzero(linked[queue.pop()])[0]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    queue.append(j)
        comp.sort()
        if len(comp) == 1:
            out.append(complex(m[comp[0], comp[0]]))
        elif len(comp) == 2:
            i, j = comp
            half_tr = 0.5 * (m[i, i] + m[j, j])
            disc = (0.5 * (m[i, i] - m[j, j])) ** 2 + m[i, j] * m[j, i]
            # sqrt(b*b) rounds to exactly |b|, so pure rotation blocks
            # keep their imaginary parts exact
            root = float(np.sqrt(abs(disc)))
            if disc >= 0.0:
                out.extend((complex(half_tr - root), complex(half_tr + root)))
            else:
                out.extend((complex(half_tr, -root), complex(half_tr, root)))
        else:
            sub = m[np.ix_(comp, comp)]
            try:
                out.extend(np.linalg.eigvals(sub))
            except np.linalg.LinAlgError as exc:
                raise ConvergenceFailure(f"eigenvalue iteration failed: {exc}") from exc
    return np.asarray(out, dtype=complex)


def row_norms(ys: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of an (N, p) array.

    Each norm is sqrt(y . y) from one dot product per row, the same
    arithmetic as np.linalg.norm on a single vector, so the values agree
    with per-row calls bit for bit (a reduction along axis 1 does not).
    """
    return np.sqrt(np.vecdot(ys, ys))


def jacobian(f, y: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of f at y, or at every row of a stack.

    f maps an (M, p) stack of points to M values (each any fixed-shape
    array, flattened to r entries).  y is one point, shape (p,), giving an
    r x p result, or an (N, p) stack giving (N, r, p).  All 2p perturbed
    points of all rows go to f in one (N * 2p, p) stack; the step of a
    row is 1e-5 * (1 + |y|).
    """
    y = np.asarray(y, dtype=float)
    ys = y.reshape(-1, y.shape[-1])
    count, p = ys.shape
    h = 1e-5 * (1.0 + row_norms(ys))
    steps = h[:, None, None] * np.eye(p)
    pts = np.concatenate([ys[:, None, :] + steps, ys[:, None, :] - steps], axis=1)
    vals = np.asarray(f(pts.reshape(-1, p)), dtype=float).reshape(count, 2, p, -1)
    jac = (vals[:, 0] - vals[:, 1]) / (2.0 * h)[:, None, None]
    jac = np.ascontiguousarray(jac.transpose(0, 2, 1))
    return jac if y.ndim == 2 else jac[0]


def spherical_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Great-circle distance between unit vectors."""
    c = float(np.clip(np.dot(u, v), -1.0, 1.0))
    return math.acos(c)
