"""Shared numerical primitives.

Vectors and matrices are plain float64 numpy arrays.  All randomized
routines draw from a SampleStream so that identical seeds reproduce
identical samples bit for bit, and so that the first N points of a larger
batch coincide with the N points of a smaller one (draws happen in fixed
chunks).  Singularity decisions use the relative-plus-absolute threshold
sigma_min <= rel * sigma_max + abs.
"""

from __future__ import annotations

import functools
import math
import operator
import os
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
        as_real(self.rel, "tolerance rel must be a real number")
        as_real(self.abs, "tolerance abs must be a real number")
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


@functools.lru_cache
def _increments(count: int) -> np.ndarray:
    """The fractional parts of the square roots of the first count primes,
    computed once per count and process, never at import."""
    out, n = [], 2
    while len(out) < count:
        if all(n % p for p in out):
            out.append(n)
        n += 1
    alpha = np.sqrt(np.array(out, dtype=float)) % 1.0
    alpha.setflags(write=False)
    return alpha


class SampleStream:
    """Deterministic point source for verification loops.

    mode "pseudo-random" draws from a seeded PCG64 generator; mode
    "low-discrepancy" uses an additive Kronecker lattice pushed onto the
    sphere through Box-Muller pairs.  Both modes are prefix-stable: the
    points of a batch of size N are the first N points of any larger batch.

    This is the one place that checks a sample count (an integer >= 1) and a
    sampling radius (finite, > 0): every draw checks its own, and so does
    sampling(), where every sampled verdict builds its record, so no check
    or CLI verb keeps a copy of the test.
    """

    MODES = ("pseudo-random", "low-discrepancy")

    def __init__(self, seed: int = 0, mode: str = "pseudo-random"):
        if mode not in self.MODES:
            raise InvalidInput(f"unknown sample mode {mode!r}; expected one of {self.MODES}")
        self.seed = as_integer(seed, "need an integer seed")
        if self.seed < 0:
            raise InvalidInput(f"need a seed >= 0, got {self.seed}")
        self.mode = mode
        # built on the first draw: most exact verdicts never draw
        self._gen = None

    # Each chunk draws `dims` standard normals plus one uniform per point.
    def _fill(self, g: np.ndarray, u: np.ndarray) -> None:
        """Draw one chunk into g, a (_CHUNK, dims) block of rows of a draw
        buffer, and u, its _CHUNK uniforms."""
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(self.seed))
            if self.mode == "low-discrepancy":
                # Per-seed phase plus square-root-of-prime increments.
                self._phase = self._gen.random(64)
                self._index = 0
        if self.mode == "pseudo-random":
            self._gen.standard_normal(out=g)
            self._gen.random(out=u)
            return
        dims = g.shape[1]
        idx = np.arange(self._index + 1, self._index + _CHUNK + 1, dtype=float)
        self._index += _CHUNK
        ncols = 2 * ((dims + 1) // 2)
        if ncols >= len(self._phase):
            # the generator draws nothing else, so the phases stay one sequence
            self._phase = np.append(self._phase, self._gen.random(ncols + 1 - len(self._phase)))
        alpha = _increments(max(ncols + 1, 64))
        lattice = (self._phase[: ncols + 1] + np.outer(idx, alpha[: ncols + 1])) % 1.0
        u1 = np.clip(lattice[:, 0:ncols:2], 1e-16, 1 - 1e-16)
        u2 = lattice[:, 1:ncols:2]
        radial = np.sqrt(-2.0 * np.log(u1))
        g[:, 0::2] = radial * np.cos(2 * np.pi * u2)
        g[:, 1::2] = (radial * np.sin(2 * np.pi * u2))[:, : dims // 2]
        u[:] = lattice[:, ncols]

    @staticmethod
    def _check(count: int, radius: float | None = None, ball: bool = False) -> None:
        # radius None means a search without a ball, which a draw from a ball
        # (ball=True) cannot be
        if ball or radius is not None:
            r = as_real(radius, "need a finite sampling radius > 0")
            if not (math.isfinite(r) and r > 0.0):
                raise InvalidInput(f"need a finite sampling radius > 0, got {radius}")
        try:
            operator.index(count)
        except TypeError:
            raise InvalidInput(f"need an integer sample count, got {count!r}") from None
        if count < 1:
            raise InvalidInput(f"need samples >= 1, got {count}")

    def _directions(self, count: int, dims: int) -> tuple[np.ndarray, np.ndarray]:
        """count unit vectors in R^dims, one per row, and a uniform in
        [0, 1) for each."""
        self._check(count)
        if dims < 1:
            raise InvalidInput(f"need dims >= 1, got {dims}")
        size = -(-count // _CHUNK) * _CHUNK
        g, u = np.empty((size, dims)), np.empty(size)
        for i in range(0, size, _CHUNK):
            self._fill(g[i : i + _CHUNK], u[i : i + _CHUNK])
        g = g[:count]
        norms = row_norms(g)
        norms[norms == 0] = 1.0
        g /= norms[:, None]
        return g, u[:count]

    def unit_vectors(self, count: int, dims: int) -> np.ndarray:
        """count unit vectors on the sphere in R^dims, one per row."""
        return self._directions(count, dims)[0]

    def ball_points(self, count: int, dims: int, radius: float) -> np.ndarray:
        """count points uniform in the ball of the given radius."""
        self._check(count, radius, ball=True)
        g, u = self._directions(count, dims)
        g *= radius * u[:, None] ** (1.0 / dims)
        return g

    def pairs_in_ball(self, count: int, dims: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """count pairs (x, y) of ball points, drawn as consecutive samples."""
        self._check(count, radius, ball=True)
        pts = self.ball_points(2 * count, dims, radius)
        return pts[0::2], pts[1::2]

    def sampling(self, count: int, radius: float | None = None) -> dict:
        """The report record of a search that draws count samples from this
        stream; a search over chart points adds the radius of their ball."""
        self._check(count, radius)
        ball = {} if radius is None else {"radius": radius}
        return {"seed": self.seed, "mode": self.mode, "count": count, **ball}


def as_integer(value, message: str) -> int:
    """value as an int when it equals one: 2, 2.0 and np.int64(2) alike,
    since JSON may write an integer either way.  Anything else (2.5, NaN,
    a string, None) raises InvalidInput(f"{message}, got {value!r}"); an
    infinity raises InvalidInput with int's own message."""
    try:
        out = int(value)
    except OverflowError as exc:
        raise InvalidInput(str(exc)) from None
    except (TypeError, ValueError):
        out = None
    if out is None or out != value:
        raise InvalidInput(f"{message}, got {value!r}")
    return out


def as_real(value, message: str) -> float:
    """value as a float when it is a real number, anything math.isfinite
    takes: an int, a float or a numpy scalar.  Anything else (a string,
    None) raises InvalidInput(f"{message}, got {value!r}").  Finiteness and
    range are the caller's test, with its own message."""
    try:
        math.isfinite(value)
    except TypeError:
        raise InvalidInput(f"{message}, got {value!r}") from None
    return float(value)


def overflow_is_invalid(fn):
    """fn run with numpy overflow and invalid operations raising; such an
    error, or a Python OverflowError, is re-raised as InvalidInput with the
    same message.  This is the one rule, for the library and the CLI, that
    arithmetic overflowing on finite input is an input error, never a
    warning, an inf or NaN in a result, or a raw numpy exception."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except (FloatingPointError, OverflowError) as exc:
            raise InvalidInput(str(exc)) from None

    return guarded


def pow2_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a 2^-e, e) with max |a_i| 2^-e in [1/2, 1), or e = 0 for zeros: an
    exact scaling, under which a sum of squares cannot overflow."""
    e = math.frexp(float(np.abs(a).max()))[1]
    return np.ldexp(a, -e), e


def unit(v: np.ndarray) -> np.ndarray:
    """v / |v| for a nonzero finite v, scaled by pow2_scaled first: the bits
    of v / np.linalg.norm(v) wherever that is in range, and no overflow."""
    v = pow2_scaled(v)[0]
    return v / np.linalg.norm(v)


def norm(v: np.ndarray) -> float:
    """|v|: sqrt(v . v), the bits of np.linalg.norm(v), where v . v is a normal
    float, else from pow2_scaled(v); never warns, and raises OverflowError
    only for a |v| beyond the float range."""
    v = v.ravel()
    top = max(map(abs, v.tolist()), default=0.0)
    if top and not 2.0**-500 <= top < 2.0**500:
        v, e = pow2_scaled(v)
        return math.ldexp(math.sqrt(v.dot(v)), e)
    return math.sqrt(v.dot(v))


def finite_array(a, shape: tuple, name: str, stack: bool = False) -> np.ndarray:
    """a as a float array of the given shape (a None matches any length),
    or with stack=True of that shape or a stack (N, *shape) of such arrays,
    with finite entries; a itself when it already is one.

    The one input rule: every array from a caller is checked where it
    enters, so that non-numeric input is InvalidInput naming the argument,
    never a raw numpy exception, and NaN or inf never reaches LAPACK.  A
    vector is tested on a Python list, a fraction of np.isfinite's cost
    for one point: 0 * sum is 0 exactly when the sum is finite, so only a
    non-finite entry, or an overflowing sum, is tested entry by entry.
    """
    try:
        a = np.asarray(a, float)
    except (TypeError, ValueError):
        raise InvalidInput(f"{name} must be an array of numbers") from None
    if stack and a.ndim == len(shape) + 1:
        shape = (None, *shape)
    if a.shape != shape and (
        a.ndim != len(shape) or any(want not in (None, got) for got, want in zip(a.shape, shape))
    ):
        raise InvalidInput(f"{name} shape {a.shape} != {str(shape).replace('None', 'N')}")
    if a.ndim == 1:
        vals = a.tolist()
        finite = 0.0 * sum(vals) == 0.0 or all(map(math.isfinite, vals))
    else:
        finite = np.isfinite(a).all()
    if not finite:
        raise InvalidInput(f"{name} must be finite")
    return a


def is_singular(sv: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Singularity test on singular values sorted descending along the last
    axis: sigma_min <= rel * sigma_max + abs, one flag per matrix."""
    return sv[..., -1] <= tol.threshold(sv[..., 0])


def real_eigenvalue_mask(eig: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Which eigenvalues count as real: |Im| <= rel * (1 + |lambda|), formed
    as 2 (rel (1/2 + |lambda / 2|)): the plain formula's bits wherever it is
    finite, and finite for a lambda whose modulus alone overflows."""
    return np.abs(eig.imag) <= 2.0 * (tol.rel * (0.5 + np.abs(0.5 * eig)))


# Slack of the closed-form screens below, relative to a sample's scale
# (sigma_max for singular values, s^2 for an eigenvalue discriminant):
# 2^-40 is about 4,096 eps.  The closed forms are off by about 10 eps of
# that scale at most, and LAPACK's backward error for a 2-column or 2 x 2
# matrix moves the same quantities by a few eps of it, so a bound widened
# by the slack holds for the value LAPACK returns with room to spare.
SCREEN_SLACK = 2.0**-40
# Beyond this many rows the error of the closed-form dot products, which
# grows with the row count, could approach the slack.
SCREEN_ROWS = 256
# Smallest screened sigma_max or s: below it a product of entries may
# underflow by more than a negligible part of the slack.
SCREEN_FLOOR = 2.0**-450


def _candidates(lo: np.ndarray, least: float, *arrays: np.ndarray) -> np.ndarray:
    """The candidate rule of the screens below: the indices of the samples
    whose lower bound lo is <= least, the least upper bound, less each index
    whose rows of arrays repeat, bit for bit, those of an earlier candidate.

    LAPACK returns the same bits for the same matrix, and np.argmin takes
    the first index of a least value, so a later copy never decides a
    report: a stack with a tied least margin, such as dB = J on the linear
    zone of a germ extension, sends one matrix of the tie.
    """
    keep = np.flatnonzero(lo <= least)
    if len(keep) < 2:
        return keep
    rows = np.concatenate([a[keep].reshape(len(keep), -1) for a in arrays], axis=1)
    key = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    return keep[np.sort(np.unique(key[:, 0], return_index=True)[1])]


def svd_screen(stack: np.ndarray, tol: Tolerance, scale: np.ndarray | None = None):
    """Indices of the samples of an (N, r, 2) stack that can hold its least
    margin (sigma_min, divided by scale when given), or None when the whole
    stack has to go to LAPACK.

    From the columns c1, c2 with uu = c1.c1, dd = c2.c2 and c = c1.c2,

        sigma_max^2 = (uu + dd) / 2 + hypot((uu - dd) / 2, c),
        sigma_min = |c1| |p| / sigma_max,  p = c2 - (c / uu) c1,

    the stable form of sphere._plane_residuals; both are widened by
    SCREEN_SLACK * sigma_max into bounds on what LAPACK returns.  None
    when the stack has another shape, fewer than 2 rows (a 1 x 2 matrix
    always has a kernel) or more than SCREEN_ROWS rows, when
    an entry or an estimate is not finite or below SCREEN_FLOOR, when a
    scale is not positive, or when some sample may be singular (its lower
    bound <= tol.threshold of its upper sigma_max, both divided by its
    scale when given, as report.sampled_report tests it): every fail then
    comes from the full stack.  Otherwise a candidate is a sample whose
    lower margin bound is <= the least upper margin bound, less the later
    copies of a candidate (_candidates).  Every other sample's LAPACK
    margin lies strictly above that of the sample attaining the least
    upper bound, and division by a positive scale rounds monotonically,
    so the least LAPACK margin over the candidates, first index first, is
    the one np.argmin finds over the whole stack.  The bounds are computed
    with floating-point errors ignored, since callers may run with
    overflow raising.
    """
    if stack.ndim != 3 or stack.shape[2] != 2 or not 2 <= stack.shape[1] <= SCREEN_ROWS:
        return None
    # columns as (r, N) arrays: sums over rows run along whole contiguous rows
    c1, c2 = np.ascontiguousarray(stack.transpose(2, 1, 0))
    with np.errstate(all="ignore"):
        uu = (c1 * c1).sum(0)
        dd = (c2 * c2).sum(0)
        c = (c1 * c2).sum(0)
        smax = np.sqrt(0.5 * (uu + dd) + np.hypot(0.5 * (uu - dd), c))
        p = c2 - (c / uu) * c1
        smin = np.sqrt(uu) * np.sqrt((p * p).sum(0)) / smax
        slack = SCREEN_SLACK * smax
        lo, hi, top = smin - slack, smin + slack, smax + slack
        if scale is not None:
            if not np.all(scale > 0.0):
                return None
            lo, hi, top = lo / scale, hi / scale, top / scale
        # NaN fails every comparison, so a non-finite estimate falls back too
        if not (np.all(smax >= SCREEN_FLOOR) and np.all(lo > tol.threshold(top))):
            return None
        least = hi.min()
        if not (np.all(np.isfinite(lo)) and np.isfinite(least)):
            return None
    return _candidates(lo, least, stack) if scale is None else _candidates(lo, least, stack, scale)


def eig_screen(mats: np.ndarray, tol: Tolerance):
    """Indices of the matrices of an (N, 2, 2) stack that can hold its least
    |Im eigenvalue|, or None when the whole stack has to go to LAPACK.

    For [[a, b], [c, d]] the eigenvalues are (a + d) / 2 +- sqrt(disc) with
    disc = ((a - d) / 2)^2 + bc, so |Im| lies between
    sqrt(max(-disc -+ slack, 0)) with slack = SCREEN_SLACK * s^2 and
    s = |a| + |b| + |c| + |d| >= |lambda|.  None when an entry or an
    estimate is not finite, s is below SCREEN_FLOOR, or some matrix may
    have a real eigenvalue: its lower bound is <= rel * (1 + 2 s), above
    the rel * (1 + |lambda|) of numeric.real_eigenvalue_mask.  Otherwise
    the candidates are the matrices whose lower bound is <= the least upper
    bound, less later copies, and, as in svd_screen, the first least
    LAPACK |Im| among them is the one np.argmin finds over the whole stack.
    """
    if mats.ndim != 3 or mats.shape[1:] != (2, 2):
        return None
    a, b, c, d = np.ascontiguousarray(mats.reshape(-1, 4).T)
    with np.errstate(all="ignore"):
        s = np.abs(a) + np.abs(b) + np.abs(c) + np.abs(d)
        slack = SCREEN_SLACK * (s * s)
        neg = -((0.5 * (a - d)) ** 2 + b * c)
        lo = np.sqrt(np.maximum(neg - slack, 0.0))
        hi = np.sqrt(np.maximum(neg + slack, 0.0))
        if not (np.all(s >= SCREEN_FLOOR) and np.all(lo > tol.rel * (1.0 + 2.0 * s))):
            return None
    # lo > 0 implies a finite s^2, so every hi is finite
    return _candidates(lo, hi.min(), mats)


def rank_gate(smin: np.ndarray, tol: Tolerance) -> None:
    """Raise RankDeficient when a frame's sigma_min, one entry of smin per
    frame, is <= tol.abs or NaN."""
    deficient = np.flatnonzero(~(smin > tol.abs))
    if deficient.size:
        raise RankDeficient(
            f"frame is rank deficient: sigma_min={smin[deficient[0]]:.3e} <= {tol.abs:.1e}"
        )


def oriented_q(frame: np.ndarray) -> np.ndarray:
    """The Q factor of a QR decomposition of full-rank frames, each column
    flipped so that R has a nonnegative diagonal: an orthonormal frame with
    the same column span and orientation.

    This is orthonormalize without its rank gate, for frames whose rank
    the caller already knows, such as the graph frames [I_k; B] of
    fibration.fiber_plane.  A stack of frames, shape (..., n, k), gives
    the same result as one call per frame.
    """
    q, r = np.linalg.qr(frame)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def orthonormalize(frame: np.ndarray, tol: Tolerance | None = None) -> np.ndarray:
    """Orthonormal frame with the same column span and orientation.

    The change of basis from the input columns to the output columns has
    positive determinant.  Raises RankDeficient when the columns are
    dependent at the absolute tolerance, sigma_min <= tol.abs, from one
    SVD per frame; the frame then goes to oriented_q.  A stack of frames,
    shape (..., n, k), is orthonormalized frame by frame, with the same
    result as one call per frame.
    """
    tol = tol or Tolerance.default()
    frame = np.asarray(frame, dtype=float)
    if frame.ndim < 2 or frame.shape[-1] == 0:
        raise InvalidInput("orthonormalize expects n x k frames with k >= 1")
    if frame.shape[-2] < frame.shape[-1]:
        raise RankDeficient(f"frame of shape {frame.shape} cannot have independent columns")
    rank_gate(np.linalg.svd(frame, compute_uv=False)[..., -1].ravel(), tol)
    return oriented_q(frame)


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
            a, b, c, d = m.item(i, i), m.item(i, j), m.item(j, i), m.item(j, j)
            # the spectrum depends on b and c only through bc, so they are
            # balanced by an exact power of two first, lest a large b keep a
            # block whose squares underflow from the scale test below; not
            # where a balanced entry would turn subnormal and lose bits
            if b and c:
                eb, ec = math.frexp(b)[1], math.frexp(c)[1]
                shift = (eb - ec) // 2
                if min(eb - shift, ec + shift) >= -1021:
                    b, c = math.ldexp(b, -shift), math.ldexp(c, shift)
            # a block with an entry outside [2^-500, 2^500] is scaled by the
            # 2^-e of pow2_scaled, so that no product overflows or underflows
            e = 0
            if not 2.0**-500 <= max(abs(a), abs(b), abs(c), abs(d)) <= 2.0**500:
                scaled, e = pow2_scaled(np.array([a, b, c, d]))
                a, b, c, d = scaled.tolist()
            half_tr = 0.5 * (a + d)
            disc = (0.5 * (a - d)) ** 2 + b * c
            # sqrt(b*b) rounds to exactly |b|, so pure rotation blocks
            # keep their imaginary parts exact
            root = math.sqrt(abs(disc))
            if disc >= 0.0:
                pair = [(half_tr - root, 0.0), (half_tr + root, 0.0)]
            else:
                pair = [(half_tr, -root), (half_tr, root)]
            if e:
                # scaled back after the +-: an eigenvalue beyond the float
                # range raises OverflowError, never comes back as inf
                pair = [(math.ldexp(x, e), math.ldexp(y, e)) for x, y in pair]
            out.extend(complex(x, y) for x, y in pair)
        else:
            sub = m[np.ix_(comp, comp)]
            try:
                out.extend(np.linalg.eigvals(sub))
            except np.linalg.LinAlgError as exc:
                raise ConvergenceFailure(f"eigenvalue iteration failed: {exc}") from exc
    return np.asarray(out, dtype=complex)


def row_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=1) of an (N, p) array, bit for bit: the one
    rule for the lengths of the rows of a stack.  Row i equals the N = 1
    call on row i.

    That norm is sqrt(np.add.reduce(a * a, axis=1)), used as it is from 8
    columns up, where the reduction sums pairwise, and below 16 rows, where
    one reduction per row costs less than a pass per column.  Otherwise the
    reduction adds a row's squares one by one in column order, so the
    squared columns summed in that order give its bits.  With numpy 2.4 on
    a 2-vCPU x86-64 Xeon, one row of 2 columns takes 1.7 us by reduction
    and 2.8 us by columns, and 4,096 x 2 takes 74 and 14 us.
    """
    if len(a) < 16 or a.shape[1] >= 8:
        return np.sqrt(np.add.reduce(a * a, axis=1))
    sq = a * a
    out = sq[:, 0].copy()
    for j in range(1, a.shape[1]):
        out += sq[:, j]
    return np.sqrt(out, out=out)


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
