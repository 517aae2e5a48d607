"""Oriented planes, affine planes, and great spheres as orthonormal frames.

An affine k-plane in R^n embeds into the oriented Grassmannian of
(k+1)-planes in R^(n+1): the plane with direction P and base point b maps
to the span of {(d, 0) : d in P} and (b, 1).  Two affine planes are skew
exactly when their embedded (k+1)-planes meet only at the origin, which
reduces every skewness question to a rank computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .numeric import Tolerance, finite_array, norm, orthonormalize, overflow_is_invalid, unit


def _checked_frame(frame) -> np.ndarray:
    """The frame as a float array, which must be orthonormal n x k, 1 <= k <= n."""
    f = finite_array(frame, (None, None), "frame")
    if not 1 <= f.shape[1] <= f.shape[0]:
        raise InvalidInput(f"bad frame shape {f.shape}")
    gram = f.T @ f
    # NaN, from a product that overflows, fails this comparison
    if not np.max(np.abs(gram - np.eye(f.shape[1]))) <= 1e-12:
        raise InvalidInput("frame columns are not orthonormal to 1e-12")
    return f


@dataclass(frozen=True)
class OrientedPlane:
    """Linear k-plane in R^n: orthonormal n x k frame, columns ordered."""

    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame", _checked_frame(self.frame))

    @property
    def n(self) -> int:
        return self.frame.shape[0]

    @property
    def k(self) -> int:
        return self.frame.shape[1]


@dataclass(frozen=True)
class AffinePlane:
    """Affine k-plane: direction plane plus base point orthogonal to it,
    |F^T b| <= 1e-10 (1 + |b|) by numeric.norm, so only a base whose length
    is beyond the float range overflows (InvalidInput)."""

    direction: OrientedPlane
    base: np.ndarray

    @overflow_is_invalid
    def __post_init__(self):
        b = finite_array(self.base, (self.direction.n,), "base coordinates")
        object.__setattr__(self, "base", b)
        overlap = norm(self.direction.frame.T @ b)
        if not overlap <= 1e-10 * (1.0 + norm(b)):
            raise InvalidInput(f"base is not orthogonal to direction: |proj|={overlap:.3e}")

    @property
    def n(self) -> int:
        return self.direction.n

    @property
    def k(self) -> int:
        return self.direction.k


@dataclass(frozen=True)
class GreatSphere:
    """Great k-sphere of S^n: the unit sphere of a (k+1)-plane in R^(n+1)."""

    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame", _checked_frame(self.frame))

    @property
    def k(self) -> int:
        return self.frame.shape[1] - 1

    def points(self, params: np.ndarray) -> np.ndarray:
        """Map a unit parameter vector, or a stack of them (rows), to sphere
        points; a non-finite one raises InvalidInput (numeric.finite_array)."""
        return finite_array(params, (self.k + 1,), "sphere parameters", stack=True) @ self.frame.T


def _built(cls, **fields):
    """An OrientedPlane, AffinePlane, GreatSphere or fibration.Chart from
    fields that the library computed itself, without the public
    constructor's checks.  A field not passed reads its class default.

    Callers pass float arrays that hold by construction what the checks
    test: frames that are the Q factor of a QR decomposition
    (numeric.oriented_q) or orthonormal columns laid out by hand, and
    base points projected off their direction.  Such a frame is
    orthonormal to a few ulps, far inside the constructors' 1e-12, so a
    second check only costs time.  A chart gets arrays it alone holds, as
    its constructor's copies would be (fibration._linearization).  Frames,
    points and charts from a caller still go through the public
    constructors.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def plane_from_columns(cols: np.ndarray, tol: Tolerance | None = None) -> OrientedPlane:
    """Oriented plane spanned by the given columns, in their orientation."""
    return OrientedPlane(orthonormalize(cols, tol))


@overflow_is_invalid
def embed_affine(p: AffinePlane) -> OrientedPlane:
    """Linearize an affine k-plane to a (k+1)-plane in R^(n+1).

    The frame is the direction columns padded with a zero last coordinate,
    followed by the normalized (base, 1) column; base is orthogonal to the
    direction, so the result is already orthonormal and is not checked
    again.
    """
    d = p.direction.frame
    k = p.k
    top = np.vstack([d, np.zeros((1, k))])
    return _built(OrientedPlane, frame=np.column_stack([top, unit(np.append(p.base, 1.0))]))


@overflow_is_invalid
def intersection_dim(
    u: OrientedPlane, w: OrientedPlane, tol: Tolerance | None = None
) -> tuple[int, float]:
    """Dimension of span(u) intersect span(w), with the smallest singular
    value of the concatenated frame as the transversality gap."""
    tol = tol or Tolerance.default()
    if u.n != w.n:
        raise InvalidInput("planes live in different ambient dimensions")
    concat = np.hstack([u.frame, w.frame])
    sv = np.linalg.svd(concat, compute_uv=False)
    cutoff = tol.threshold(float(sv[0]))
    rank = int(np.sum(sv > cutoff))
    # More columns than the ambient dimension forces a nontrivial meet.
    gap = float(sv[-1]) if concat.shape[1] <= concat.shape[0] else 0.0
    return u.k + w.k - rank, gap


def skew_pair(p: AffinePlane, q: AffinePlane, tol: Tolerance | None = None) -> tuple[bool, float]:
    """Whether two affine planes are skew (disjoint and nonparallel).

    Skew iff their linearized (k+1)-planes intersect trivially; the gap is
    the smallest singular value of the concatenated embedded frames.
    """
    dim, gap = intersection_dim(embed_affine(p), embed_affine(q), tol)
    return dim == 0, gap


def principal_angles(u: OrientedPlane | np.ndarray, w: OrientedPlane | np.ndarray) -> np.ndarray:
    """Principal angles between two subspaces given by orthonormal frames,
    ascending: atan2(sine, cosine), which keeps full relative accuracy for
    small angles, where an arccos of the cosines errs by about eps/angle.
    With fw the narrower frame, the cosines are the singular values of
    fu^T fw and the sines, in reverse order, those of fw - fu (fu^T fw)."""
    fu = u.frame if isinstance(u, OrientedPlane) else np.asarray(u, dtype=float)
    fw = w.frame if isinstance(w, OrientedPlane) else np.asarray(w, dtype=float)
    if fw.shape[1] > fu.shape[1]:
        fu, fw = fw, fu
    m = fu.T @ fw
    cos = np.linalg.svd(m, compute_uv=False)
    sin = np.linalg.svd(fw - fu @ m, compute_uv=False)[::-1]
    return np.arctan2(sin, cos)


def max_principal_angle(u, w) -> float:
    return float(np.max(principal_angles(u, w)))

