"""Tests for oriented planes, affine planes, graph charts, and skewness."""

import warnings

import numpy as np
import pytest

from skewfib.errors import InvalidInput
from skewfib.grassmann import (
    AffinePlane,
    GreatSphere,
    OrientedPlane,
    embed_affine,
    intersection_dim,
    max_principal_angle,
    plane_from_columns,
    principal_angles,
    skew_pair,
)

RNG_SEED = 20240618


def _line(n, axis, base=None):
    """Affine line along a coordinate axis."""
    d = np.zeros((n, 1))
    d[axis, 0] = 1.0
    return AffinePlane(OrientedPlane(d), np.zeros(n) if base is None else np.asarray(base, float))


def _random_plane(rng, n, k):
    return plane_from_columns(rng.standard_normal((n, k)))


def test_oriented_plane_validation():
    with pytest.raises(InvalidInput):
        OrientedPlane(np.array([[1.0, 1.0], [0.0, 1.0]]))  # not orthonormal
    with pytest.raises(InvalidInput):
        OrientedPlane(np.ones((2, 3)))  # more columns than rows
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInput):
            OrientedPlane(np.array([[bad], [0.0]]))
        with pytest.raises(InvalidInput):
            OrientedPlane(np.array([[1.0, 0.0], [0.0, bad], [0.0, 0.0]]))
        with pytest.raises(InvalidInput):
            GreatSphere(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, bad]]))


def test_affine_plane_validation():
    d = OrientedPlane(np.array([[1.0], [0.0]]))
    with pytest.raises(InvalidInput):
        AffinePlane(d, np.array([1.0, 0.0]))  # base not orthogonal to direction
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInput):
            AffinePlane(d, np.array([0.0, bad]))
    p = AffinePlane(d, np.array([0.0, 2.0]))
    assert p.n == 2 and p.k == 1
    # |b|^2 overflows for these bases; numeric.norm scales b first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="not orthogonal"):
            AffinePlane(d, np.array([1e200, 1e200]))
        assert AffinePlane(d, np.array([0.0, 1e200])).base[1] == 1e200
        assert AffinePlane(d, np.array([0.0, 1.7e308])).base[1] == 1.7e308
        # |b| itself is beyond the float range
        with pytest.raises(InvalidInput, match="math range error"):
            AffinePlane(OrientedPlane(np.eye(3)[:, :1]), np.array([0.0, 1.5e308, 1.5e308]))


def test_plane_from_columns_spans_input():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(10):
        cols = rng.standard_normal((6, 3))
        p = plane_from_columns(cols)
        # arccos halves the usable precision near zero angle
        assert max_principal_angle(p.frame, np.linalg.qr(cols)[0]) <= 1e-6


def test_embed_affine_line_through_origin():
    p = _line(3, 0)
    e = embed_affine(p)
    assert e.frame.shape == (4, 2)
    expected = np.zeros((4, 2))
    expected[0, 0] = 1.0  # direction keeps its slot, zero-padded
    expected[3, 1] = 1.0  # origin embeds to the unit last axis
    assert np.max(np.abs(e.frame - expected)) <= 1e-12


def test_embed_affine_offset_line():
    p = _line(3, 0, base=[0.0, 0.0, 1.0])
    e = embed_affine(p)
    # second column is (base, 1) normalized
    expected = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2.0)
    assert np.max(np.abs(e.frame[:, 1] - expected)) <= 1e-12


def test_intersection_dim_cases():
    rng = np.random.default_rng(RNG_SEED)
    p = _random_plane(rng, 6, 2)
    dim, gap = intersection_dim(p, p)
    assert dim == 2
    e12 = plane_from_columns(np.eye(6)[:, :2])
    e34 = plane_from_columns(np.eye(6)[:, 2:4])
    dim, gap = intersection_dim(e12, e34)
    assert dim == 0 and gap > 0.9
    e23 = plane_from_columns(np.eye(6)[:, 1:3])
    dim, _ = intersection_dim(e12, e23)
    assert dim == 1


def test_skew_pair_parallel_lines():
    a = _line(3, 0)
    b = _line(3, 0, base=[0.0, 1.0, 0.0])
    ok, _ = skew_pair(a, b)
    assert not ok  # parallel, shared direction


def test_skew_pair_intersecting_lines():
    a = _line(3, 0)
    b = _line(3, 1)
    ok, _ = skew_pair(a, b)
    assert not ok  # both pass through the origin


def test_skew_pair_classic_skew_lines():
    a = _line(3, 0)
    b = _line(3, 2, base=[0.0, 1.0, 0.0])
    ok, gap = skew_pair(a, b)
    assert ok and gap > 0.1
    # symmetry of the verdict and the gap
    ok2, gap2 = skew_pair(b, a)
    assert ok2 and abs(gap - gap2) <= 1e-12


def test_principal_angles_rotation():
    for theta in np.linspace(0.05, 1.5, 8):
        u = OrientedPlane(np.eye(3)[:, :1])
        c, s = np.cos(theta), np.sin(theta)
        w = OrientedPlane(np.array([[c], [s], [0.0]]))
        angles = principal_angles(u, w)
        assert angles.shape == (1,)
        assert abs(angles[0] - theta) <= 1e-10


def _pair_at_angle(k, theta, rng):
    """Frames of two k-planes in R^(2k+1) at principal angles all theta, and
    a (k+1)-plane containing the first: e_1..e_k (plus e_(2k+1)), and the
    rotation of e_1..e_k by theta toward e_(k+1)..e_(2k), mixed within the
    plane by a random orthogonal r and laid out by a signed permutation of
    the coordinates.  Every frame entry is then exact up to one rounding
    of cos(theta) r or sin(theta) r."""
    n = 2 * k + 1
    r = np.linalg.qr(rng.standard_normal((k, k)))[0]
    fu, fw = np.zeros((n, k + 1)), np.zeros((n, k))
    fu[:k, :k], fu[n - 1, k] = np.eye(k), 1.0
    fw[:k], fw[k : 2 * k] = np.cos(theta) * r, np.sin(theta) * r
    perm, sign = rng.permutation(n), rng.choice([-1.0, 1.0], (n, 1))
    return sign * fu[perm], sign * fw[perm]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_principal_angles_keep_relative_accuracy(k):
    """atan2 of sine and cosine recovers tiny and near-right angles to a few
    eps relative, where arccos of the cosine reads 1e-12 as 0."""
    rng = np.random.default_rng(RNG_SEED + k)
    eps = 2.0**-52
    for theta in (1e-12, 1e-8, 1e-4, 0.5, np.pi / 2 - 1e-9):
        for _ in range(20):
            fu, fw = _pair_at_angle(k, theta, rng)
            # the wider frame goes first or second: it is the one projected on
            for angles in (principal_angles(fu[:, :k], fw), principal_angles(fw, fu),
                           principal_angles(fu, fw)):
                assert angles.shape == (k,)
                assert np.all(np.abs(angles - theta) <= 8 * eps * theta)
            # a dense frame projected on errs by a few eps absolute
            assert np.all(np.abs(principal_angles(fw, fu[:, :k]) - theta) <= 8 * eps)


def test_principal_angles_range_and_zero():
    rng = np.random.default_rng(RNG_SEED)
    p = _random_plane(rng, 7, 3)
    assert max_principal_angle(p, p) <= 1e-7
    q = _random_plane(rng, 7, 3)
    angles = principal_angles(p, q)
    assert np.all(angles >= -1e-12) and np.all(angles <= np.pi / 2.0 + 1e-12)


def test_great_sphere_points():
    g = GreatSphere(np.eye(4)[:, :2])
    params = np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
    pts = g.points(params)
    assert pts.shape == (3, 4)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert g.k == 1
