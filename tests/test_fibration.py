"""Tests for charts, fiber solving, skewness and nondegeneracy checks,
asymptotic probes, and germ extension."""

import math
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from skewfib import fibration
from skewfib.bilinear import (
    GRAM_MAX,
    BilinearMap,
    from_algebra,
    gram_enclosure,
    hurwitz_radon_family,
    verify_nonsingular,
)
from skewfib.dims import skew_table
from skewfib.errors import (
    BlendFailure,
    InvalidInput,
    NoConvergence,
    SingularLastColumn,
    SingularSystem,
)
from skewfib.fibration import (
    LIMIT_T,
    Chart,
    ConeProbe,
    block_rotation,
    builtin_chart,
    chart_from_dict,
    chart_to_dict,
    continuity_probe,
    extend_germ,
    fiber_containing_direction,
    fiber_plane,
    fiber_solve,
    from_bilinear,
    limiting_direction,
    sample_fibers,
    verify_nondegenerate,
    verify_skew,
)
from skewfib.numeric import SampleStream, Tolerance, jacobian, row_norms
from skewfib.sphere import completion_check

RNG_SEED = 424242

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _on_fiber_residual(c, y, x):
    """|B(y) t + y - plane part of x| for the ambient point x = (t, ...)."""
    t, plane = x[: c.k], x[c.k:]
    return float(np.linalg.norm(c.B(y) @ t + y - plane))


# ---------------------------------------------------------------------------
# chart construction


def test_from_bilinear_complex():
    c = from_bilinear(from_algebra("complex", 2))
    assert c.k == 1 and c.q == 2 and c.n == 3
    # C1 = inv(M2) M1 = inv(J) = -J
    assert np.allclose(c.C[0], -J2, atol=1e-14)


def test_from_bilinear_divides_by_last_slot():
    a = from_algebra("quaternion", 4)
    c = from_bilinear(a)
    inv_last = np.linalg.inv(a.mats[-1])
    for j in range(3):
        assert np.max(np.abs(c.C[j] - inv_last @ a.mats[j])) <= 1e-12


def test_from_bilinear_singular_last_slot():
    with pytest.raises(SingularLastColumn):
        from_bilinear(BilinearMap(2, 2, (np.eye(2), np.zeros((2, 2)))))
    with pytest.raises(InvalidInput):
        from_bilinear(BilinearMap(2, 1, (np.eye(2),)))


def test_builtin_hopf3_is_unit_rotation():
    c = builtin_chart("hopf3")
    assert (c.k, c.q) == (1, 2)
    assert np.array_equal(c.C[0], J2)
    line = builtin_chart("hopf_line", m=1, a=0.0, b=1.0)
    assert np.array_equal(c.C[0], line.C[0])


def test_builtin_dimensions():
    assert builtin_chart("hopf7").n == 7
    assert builtin_chart("hopf15").n == 15
    assert builtin_chart("hopf_line", m=3, a=1.0, b=-2.0).n == 7
    assert builtin_chart("gluck_yang", m=2).n == 5
    g = builtin_chart("quad_germ", eps=0.1)
    assert g.n == 3 and g.domain_radius == 1.0


def test_builtin_hopf_line_matrix():
    c = builtin_chart("hopf_line", m=2, a=1.0, b=2.0)
    expected = np.eye(4) + 2.0 * block_rotation(2)
    assert np.array_equal(c.C[0], expected)
    eig = np.linalg.eigvals(c.C[0])
    assert np.allclose(np.sort(eig.imag), [-2.0, -2.0, 2.0, 2.0], atol=1e-12)


def test_builtin_rejects_bad_params():
    with pytest.raises(InvalidInput):
        builtin_chart("hopf_line", m=0, a=0.0, b=1.0)
    with pytest.raises(InvalidInput):
        builtin_chart("hopf_line", m=2, a=1.0, b=0.0)
    with pytest.raises(InvalidInput):
        builtin_chart("perelman")


def test_hopf_line_rejects_non_finite_parameters():
    """a and b are checked before any arithmetic, so no warning comes first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for key in ("a", "b"):
            for bad in (math.inf, -math.inf, math.nan):
                params = {"m": 1, "a": 0.0, "b": 1.0, key: bad}
                with pytest.raises(InvalidInput, match=f"parameter {key} must be finite"):
                    builtin_chart("hopf_line", **params)


def test_chart_derivative_tensor():
    c = builtin_chart("hopf7")
    y = np.array([0.3, -0.2, 0.5, 0.1])
    t = c.dB(y)
    assert t.shape == (4, 3, 4)
    for j in range(c.k):
        assert np.array_equal(t[:, j, :], c.C[j])
    # the closed-form dB of a germ and of its extension agree with a central
    # difference of B in all three blend zones and just inside the ring's edges
    g = builtin_chart("quad_germ", eps=0.2)
    r = 0.5
    ext = builtin_chart("germ_extension", base=g, blend_r=r)
    rng = np.random.default_rng(RNG_SEED)
    dirs = rng.standard_normal((30, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    scales = np.concatenate([rng.uniform(0.0, 0.5, 10), rng.uniform(0.5, 1.0, 10),
                             rng.uniform(1.0, 3.0, 10)])
    # on an axis |y| is exact, so s = |y| / r is 1/2 + ulp and 1 - ulp
    edges = [np.nextafter(0.5 * r, 1.0), np.nextafter(r, 0.0)]
    axes = np.concatenate([np.eye(2), -np.eye(2)])
    ys = np.concatenate([dirs * (r * scales)[:, None], *(e * axes for e in edges)])
    assert set(row_norms(ys[30:]) / r) == {np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)}
    for c in (g, ext):
        ds = c.dB(ys)
        numeric = jacobian(lambda zs: c.B(zs).reshape(len(zs), -1), ys).reshape(ds.shape)
        assert np.max(np.abs(ds - numeric)) <= 1e-7


def test_builtin_chart_needs_derivative():
    with pytest.raises(InvalidInput, match="dB"):
        Chart(1, 2, "builtin", b_func=lambda ys: ys[:, :, None])


def test_quad_germ_stack_matches_closed_form():
    """The stacked germ rounds exactly like its single-point closed form."""
    rng = np.random.default_rng(RNG_SEED)
    ys = rng.standard_normal((4000, 2)) * np.exp(rng.uniform(-5.0, 5.0, (4000, 1)))
    for eps in (0.05, -0.3):
        g = builtin_chart("quad_germ", eps=eps)
        for y, b, d in zip(ys, g.B(ys), g.dB(ys)):
            assert np.array_equal(b, (J2 @ y + eps * np.array([y[0] ** 2, y[0] * y[1]]))[:, None])
            assert np.array_equal(d[:, 0, :], J2 + eps * np.array([[2 * y[0], 0.0], [y[1], y[0]]]))
        # its extension's stacks hold the single-point values, row for row
        ext = builtin_chart("germ_extension", base=g, blend_r=0.5)
        for y, b, d in zip(ys, ext.B(ys), ext.dB(ys)):
            assert np.array_equal(b, ext.B(y))
            assert np.array_equal(d, ext.dB(y))


@pytest.mark.parametrize(
    "k, q, mats, message",
    [
        (1, 2, [np.eye(3)], "chart matrix shape (3, 3) != (2, 2)"),
        (2, 2, [J2, np.eye(3)], "chart matrix shape (3, 3) != (2, 2)"),
        (2, 2, [np.eye(3), np.eye(4)], "chart matrix shape (3, 3) != (2, 2)"),
        (2, 2, [J2, [1.0, 2.0]], "chart matrix shape (2,) != (2, 2)"),
        (2, 2, [[1.0, 2.0], [3.0, 4.0]], "chart matrix shape (2,) != (2, 2)"),
        (1, 2, np.zeros((1, 2, 2, 1)), "chart matrix shape (2, 2, 1) != (2, 2)"),
        (2, 2, [J2], "linear chart needs 2 matrices"),
        (1, 2, None, "linear chart needs 1 matrices"),
        (1, 2, 5, "linear chart needs 1 matrices"),
        (0, 2, [], "need k >= 1 and q >= 1, got k=0 q=2"),
        (2, 2, [J2, [[np.inf, 0.0], [0.0, 1.0]]], "chart matrices must be finite"),
    ],
    ids=["shape", "ragged", "ragged-first", "vector", "vectors", "4d", "count", "none", "number", "k0", "inf"],
)
def test_chart_constructor_messages(k, q, mats, message):
    """C is converted by one np.array call, and each bad C keeps the
    message naming the first matrix of a wrong shape, the count or the
    non-finite entry."""
    with pytest.raises(InvalidInput) as exc:
        Chart(k, q, "linear", C=mats)
    assert str(exc.value) == message


def test_chart_owns_a_copy_of_its_data():
    """Writing to the caller's arrays after Chart(...) leaves the chart as built."""
    for mats in ([J2.copy()], J2[None].copy()):
        b0 = np.array([[1.0], [2.0]])
        c = Chart(1, 2, "affine", C=mats, B0=b0)
        mats[0][0, 0] = 5.0
        b0[0, 0] = 5.0
        assert np.array_equal(c.C, J2[None]) and c.C.flags.c_contiguous
        assert np.array_equal(c.B0, [[1.0], [2.0]])


def test_chart_rejects_non_finite_entries():
    with pytest.raises(InvalidInput):
        Chart(1, 2, "linear", C=([[0.0, np.nan], [1.0, 0.0]],))
    with pytest.raises(InvalidInput):
        Chart(1, 2, "linear", C=([[0.0, -np.inf], [1.0, 0.0]],))
    with pytest.raises(InvalidInput):
        Chart(1, 2, "affine", C=builtin_chart("hopf3").C, B0=np.array([[np.nan], [0.0]]))


def test_builtin_chart_values_must_be_finite():
    """A closure that returns NaN or inf for a finite point is an input
    error at every entry point, never a NaN plane or a raw LinAlgError."""
    for bad in (np.nan, np.inf):
        c = Chart(
            1, 2, "builtin",
            b_func=lambda ys, bad=bad: np.full((len(ys), 2, 1), bad),
            db_func=lambda ys, bad=bad: np.full((len(ys), 2, 1, 2), bad),
        )
        with pytest.raises(InvalidInput, match=r"builtin chart B\(y\) is not finite"):
            fiber_plane(c, np.zeros(2))
        with pytest.raises(InvalidInput, match=r"builtin chart B\(y\) is not finite"):
            verify_skew(c, samples=8)
        with pytest.raises(InvalidInput, match=r"builtin chart dB\(y\) is not finite"):
            verify_nondegenerate(c, samples=8)


def _stack_charts():
    germ = builtin_chart("quad_germ", eps=0.05)
    return [
        builtin_chart("hopf3"),
        builtin_chart("hopf7"),
        Chart(3, 4, "affine", C=builtin_chart("hopf7").C, B0=np.arange(12.0).reshape(4, 3) / 7.0),
        builtin_chart("quad_germ", eps=-0.3),
        builtin_chart("germ_extension", base=germ, blend_r=0.5),
        extend_germ(germ),
    ]


def _stack_points(c, rng):
    """Points in every blend zone of an extension, the exact zone edges
    s = 1/2 and s = 1, the origin and far points."""
    r = c.params["blend_r"] if c.name == "germ_extension" else 1.0
    pts = [np.zeros(c.q), 0.5 * r * np.eye(c.q)[0], -r * np.eye(c.q)[-1]]
    for radius in (0.3 * r, 0.75 * r, 0.99 * r, 3.0 * r, 40.0):
        for _ in range(6):
            y = rng.standard_normal(c.q)
            pts.append(y * rng.uniform(0.0, radius) / np.linalg.norm(y))
    return np.stack(pts)


def test_stacked_chart_evaluation_matches_single_points():
    rng = np.random.default_rng(RNG_SEED)
    for c in _stack_charts():
        ys = _stack_points(c, rng)
        bs, ds = c.B(ys), c.dB(ys)
        assert bs.shape == (len(ys), c.q, c.k)
        assert ds.shape == (len(ys), c.q, c.k, c.q)
        for i, y in enumerate(ys):
            assert np.array_equal(bs[i], c.B(y))
            assert np.array_equal(ds[i], c.dB(y))
        assert c.B(ys[:1]).shape == (1, c.q, c.k)


def test_extension_blend_zones_row_by_row():
    """Rows with s <= 1/2 are the germ, rows with s >= 1 the
    linearization and rows in between the bump blend, bit for bit; the
    zone edges s = 1/2 and s = 1 are exact."""
    germ = builtin_chart("quad_germ", eps=0.05)
    r = 0.5
    ext = builtin_chart("germ_extension", base=germ, blend_r=r)
    b0, t0 = germ.B(np.zeros(2)), germ.dB(np.zeros(2))
    ys = _stack_points(ext, np.random.default_rng(RNG_SEED))
    zones = set()
    for y, got in zip(ys, ext.B(ys)):
        s = float(np.linalg.norm(y)) / r
        lin = b0 + np.einsum("ijl,l->ij", t0, y)
        if s <= 0.5:
            want, zone = germ.B(y), "germ"
        elif s >= 1.0:
            want, zone = lin, "linear"
        else:
            tau = 2.0 * (s - 0.5)
            g1, g0 = math.exp(-1.0 / (1.0 - tau)), math.exp(-1.0 / tau)
            w = g1 / (g1 + g0)
            want, zone = w * germ.B(y) + (1.0 - w) * lin, "blend"
        zones.add((zone, s))
        assert np.array_equal(got, want)
    assert {z for z, _ in zones} == {"germ", "linear", "blend"}
    assert ("germ", 0.5) in zones and ("linear", 1.0) in zones


# ---------------------------------------------------------------------------
# fiber solving


def test_fiber_solve_at_zero_parameter():
    c = builtin_chart("hopf7")
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(10):
        y = rng.standard_normal(4)
        x = np.concatenate([np.zeros(3), y])
        assert np.max(np.abs(fiber_solve(c, x) - y)) <= 1e-12


def test_fiber_solve_round_trip():
    rng = np.random.default_rng(RNG_SEED)
    charts = [
        builtin_chart("hopf3"),
        builtin_chart("hopf7"),
        builtin_chart("hopf_line", m=2, a=-1.0, b=3.0),
        extend_germ(builtin_chart("quad_germ", eps=0.05)),
    ]
    for c in charts:
        for _ in range(25):
            y = rng.uniform(-5.0, 5.0, c.q)
            t = rng.uniform(-3.0, 3.0, c.k)
            x = np.concatenate([t, c.B(y) @ t + y])
            sol = fiber_solve(c, x)
            assert np.max(np.abs(sol - y)) <= 1e-8 * (1.0 + np.max(np.abs(y)))
            assert _on_fiber_residual(c, sol, x) <= 1e-10 * (1.0 + float(np.linalg.norm(x)))


def test_fiber_solve_singular_combination():
    # B(y) = -y makes the solve matrix vanish at parameter t = 1
    c = Chart(1, 2, "linear", C=(-np.eye(2),))
    with pytest.raises(SingularSystem):
        fiber_solve(c, np.array([1.0, 0.3, 0.4]))


def _line_chart(b, db):
    """A smooth chart with k = q = 1 from scalar closures of y."""
    return Chart(1, 1, "builtin", b_func=lambda ys: b(ys).reshape(-1, 1, 1),
                 db_func=lambda ys: db(ys).reshape(-1, 1, 1, 1))


def test_fiber_solve_damps_an_overshooting_newton_step():
    """y + B(y) = 2 with B(y) = arctan(y) - y + 2 is arctan(y) = 0.  Newton
    from y = 2 steps to -3.54, where |arctan| is larger, so the step is
    halved to -0.77; undamped Newton diverges from any |y| > 1.39."""
    seen = []
    c = _line_chart(lambda ys: seen.extend(ys[:, 0].tolist()) or np.arctan(ys) - ys + 2.0,
                    lambda ys: 1.0 / (1.0 + ys * ys) - 1.0)
    y = fiber_solve(c, np.array([1.0, 2.0]))
    assert abs(float(y[0])) <= 1e-10
    full = 2.0 - 5.0 * math.atan(2.0)
    assert seen[:3] == [2.0, pytest.approx(full), pytest.approx(2.0 + 0.5 * (full - 2.0))]


def test_fiber_solve_reports_a_newton_iteration_that_cannot_converge():
    """A dB that does not match B: with the wrong sign every damped step
    raises the residual, and 10^6 times too large every step is too short
    to reach the budget in 100 steps."""
    ones = np.ones_like
    with pytest.raises(NoConvergence, match="damping stalled at residual 1.000e"):
        fiber_solve(_line_chart(ones, lambda ys: -2.0 * ones(ys)), np.array([1.0, 0.0]))
    with pytest.raises(NoConvergence, match="no convergence in 100 iterations"):
        fiber_solve(_line_chart(ones, lambda ys: 1e6 * ones(ys)), np.array([1.0, 0.0]))


def test_fiber_solve_rejects_non_finite_points():
    for c in (builtin_chart("hopf3"), extend_germ(builtin_chart("quad_germ", eps=0.05))):
        for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]):
            with pytest.raises(InvalidInput):
                fiber_solve(c, np.array(bad))


_HOMOGENEITY_CHARTS = [
    ("hopf3", {}),
    ("hopf_line", {"m": 2, "a": 0.5, "b": 2.0}),
    ("hopf_line", {"m": 2, "a": 0.0, "b": 2.0}),
    ("hopf15", {}),
]


@pytest.mark.parametrize("name, params", _HOMOGENEITY_CHARTS, ids=["hopf3", "line-m2", "line-m2-skew", "hopf15"])
def test_fiber_solve_is_homogeneous_in_t2(name, params):
    """On a linear chart y solves (I + sum t1_j C_j) y = t2, so scaling t2
    by 2^e scales y by 2^e, bit for bit, for e = +-300, +-600 and +-1000:
    the residual budgets do not overflow on the way.  Where every C_j is
    skew, (0, y) is orthogonal to the fiber, so fiber_plane's base is
    (0, y) up to the rounding of its projection, and scales with y to a
    few ulps; the fiber through (t1, 2^e t2) is not the dilated fiber, so
    its frame, and that rounding, differ."""
    c = builtin_chart(name, **params)
    skew = all(np.array_equal(m, -m.T) for m in c.C)
    rng = np.random.default_rng(RNG_SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5):
            t1, t2 = rng.standard_normal(c.k), rng.standard_normal(c.q)
            y = fiber_solve(c, np.concatenate([t1, t2]))
            base = fiber_plane(c, y).base
            for e in (-1000, -600, -300, 300, 600, 1000):
                ys = fiber_solve(c, np.concatenate([t1, np.ldexp(t2, e)]))
                assert np.array_equal(ys, np.ldexp(y, e)), e
                if skew:
                    got = np.ldexp(fiber_plane(c, ys).base, -e)
                    assert np.abs(got - base).max() <= 2.0**-50 * np.abs(base).max(), e


def test_fiber_plane_through_origin():
    c = builtin_chart("hopf3")
    p = fiber_plane(c, np.zeros(2))
    assert p.k == 1 and p.n == 3
    assert np.allclose(np.abs(p.direction.frame[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(p.base, 0.0, atol=1e-14)


def test_fiber_plane_off_origin():
    c = builtin_chart("hopf3")
    p = fiber_plane(c, np.array([0.0, 1.0]))
    # direction (1, B(y)) with B(0, 1) = (-1, 0)
    d = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert abs(abs(p.direction.frame[:, 0] @ d) - 1.0) <= 1e-12
    assert np.allclose(p.base, [0.0, 0.0, 1.0], atol=1e-12)
    # base point sits on the fiber and is orthogonal to it
    assert abs(p.direction.frame[:, 0] @ p.base) <= 1e-12


def _fiber_distance(c, x):
    """Distance from the origin to the fiber through x."""
    return float(np.linalg.norm(fiber_plane(c, fiber_solve(c, x)).base))


def test_fiber_distance_values():
    c = builtin_chart("hopf3")
    assert _fiber_distance(c, np.zeros(3)) <= 1e-12
    for h in (1.0, 10.0, 250.0):
        x = np.array([0.0, 0.0, h])
        assert _fiber_distance(c, x) == pytest.approx(h, rel=1e-10)


def test_fiber_distance_diverges():
    c = builtin_chart("hopf7")
    rng = np.random.default_rng(RNG_SEED)
    w = rng.standard_normal(4)
    w /= np.linalg.norm(w)
    prev = 0.0
    for r in (1e2, 1e3, 1e4):
        d = _fiber_distance(c, np.concatenate([np.zeros(3), r * w]))
        assert d > prev
        prev = d


# ---------------------------------------------------------------------------
# verification


# The line chart C = P J P^-1 with P = diag(2, 1/2): skew and nondegenerate
# (C^2 = -I), but its Gram matrix is indefinite, so the Gram test leaves
# it to sampling.
_STRETCHED = Chart(1, 2, "linear", C=(np.array([[0.0, -4.0], [0.25, 0.0]]),))


def _noisy(name, scale, seed=RNG_SEED):
    """A Clifford chart plus Gaussian noise in C.  The Gram test leaves
    hopf7 + 0.2 and hopf15 + 0.1 open, and certifies hopf15 + 0.02 without
    closing its margin."""
    c = builtin_chart(name)
    noise = np.random.default_rng(seed).standard_normal(c.C.shape)
    return Chart(c.k, c.q, "linear", C=c.C + scale * noise)


def test_skew_kernel_margin_matches_direct_svd():
    """Margin equals min sigma_min([B(x)-B(y) | x-y]) / |x-y| over pairs."""
    c = _STRETCHED
    stream = SampleStream(seed=99)
    xs, ys = SampleStream(seed=99).pairs_in_ball(64, c.q, 10.0)
    direct = np.inf
    for x, y in zip(xs, ys):
        mat = np.column_stack([c.B(x) - c.B(y), x - y])
        sv = np.linalg.svd(mat, compute_uv=False)
        direct = min(direct, sv[-1] / np.linalg.norm(x - y))
    rep = verify_skew(c, radius=10.0, samples=64, stream=stream)
    assert rep.margin == pytest.approx(direct, rel=1e-12)
    assert rep.verdict == "evidence-only"


@pytest.mark.parametrize(
    "chart, verdict",
    [
        # hopf15 plus noise: the Gram test leaves it to sampling
        (_noisy("hopf15", 0.1), "evidence-only"),
        (Chart(3, 4, "linear", C=(np.zeros((4, 4)),) * 3), "fail"),
    ],
    ids=["hopf15", "zero-k3"],
)
def test_large_skew_report_equals_one_svd_call(monkeypatch, chart, verdict):
    """10k pairs go to LAPACK in one np.linalg.svd call, and the report
    margin is the least sigma_min / |x - y| of the whole pair stack."""
    svd, sizes = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rep = verify_skew(chart, radius=100.0, samples=10_000, stream=SampleStream(seed=5))
    monkeypatch.undo()
    assert [n for n in sizes if n > 100] == [10_000]
    xs, ys = SampleStream(seed=5).pairs_in_ball(10_000, chart.q, 100.0)
    diff = xs - ys
    stack = np.stack([diff @ m.T for m in chart.C] + [diff], axis=2)
    smin = np.linalg.svd(stack, compute_uv=False)[:, -1]
    assert rep.margin == np.min(smin / np.linalg.norm(diff, axis=1))
    assert rep.verdict == verdict
    assert len(rep.witnesses) == (3 if verdict == "fail" else 0)
    assert all(w["sigma_min"] in smin for w in rep.witnesses)


def test_skew_margin_of_unit_rotation_is_one():
    rep = verify_skew(builtin_chart("hopf3"), radius=50.0, samples=512)
    assert abs(rep.margin - 1.0) <= 1e-9


def test_skew_fails_for_parallel_fibers():
    c = Chart(1, 2, "linear", C=(np.zeros((2, 2)),))
    rep = verify_skew(c, radius=5.0, samples=128)
    assert rep.verdict == "fail"
    assert rep.witnesses
    w = rep.witnesses[0]
    assert "x" in w and "y" in w and w["sigma_min"] <= 1e-10


def test_skew_fail_witnesses_are_singular():
    """C = 2I makes every pair of fibers parallel: [C d | d] has rank one.
    The fail must name singular pairs.  (hopf_line with b = 0.5 failed
    here only at radius 5e-12, where sigma_min fell under the absolute
    tolerance; that chart is skew, and the Gram test passes it.)"""
    c = Chart(1, 2, "linear", C=(2.0 * np.eye(2),))
    rep = verify_skew(c)
    assert rep.verdict == "fail"
    assert 1 <= len(rep.witnesses) <= 3
    tol = Tolerance()
    for w in rep.witnesses:
        d = np.asarray(w["x"]) - np.asarray(w["y"])
        sv = np.linalg.svd(np.column_stack([c.C[0] @ d, d]), compute_uv=False)
        assert sv[-1] <= tol.rel * sv[0] + tol.abs


def _pair_kernel_sigma(c, w):
    """sigma_min of [B(x) - B(y) | x - y] at a witness pair, zero-padded
    when the q x (k + 1) matrix has more columns than rows."""
    x, y = np.asarray(w["x"]), np.asarray(w["y"])
    pair = np.column_stack([c.B(x) - c.B(y), x - y])
    sv = np.linalg.svd(pair, compute_uv=False)
    return 0.0 if pair.shape[1] > pair.shape[0] else float(sv[-1] / sv[0])


_K_AT_LEAST_Q = {
    "k1-q1": Chart(1, 1, "linear", C=(np.array([[2.0]]),)),
    "k2-q2": Chart(2, 2, "linear", C=(J2, np.diag([1.0, -1.0]))),
    "k3-q2": Chart(3, 2, "linear", C=(J2, np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))),
    "smooth-k2-q1": Chart(
        2, 1, "builtin",
        b_func=lambda ys: np.stack([np.sin(ys), ys**2], 2),
        db_func=lambda ys: np.stack([np.cos(ys), 2 * ys], 2)[..., None],
    ),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(_K_AT_LEAST_Q))
def test_skew_fails_every_chart_with_k_at_least_q(name, seed):
    """[B(x) - B(y) | x - y] is q x (k + 1), so for k >= q every pair of
    fibers meets or shares a direction, and no chart is skew."""
    c = _K_AT_LEAST_Q[name]
    rep = verify_skew(c, stream=SampleStream(seed))
    assert rep.verdict == "fail" and rep.margin == 0.0
    assert 1 <= len(rep.witnesses) <= 3
    for w in rep.witnesses:
        assert w["sigma_min"] == 0.0 and _pair_kernel_sigma(c, w) == 0.0


@pytest.mark.parametrize("seed", [0, 7])
def test_skew_tries_the_gram_tests_singular_t(seed):
    """C = diag(1, 2): the fibers through 0 and e_1 meet at t = -1, a
    singular set no sampled pair finds.  The pencil (C, I) is singular at
    the Gram test's t, and its kernel vector d gives the pair (d, 0)."""
    c = Chart(1, 2, "linear", C=(np.diag([1.0, 2.0]),))
    rep = verify_skew(c, stream=SampleStream(seed))
    assert rep.verdict == "fail" and rep.margin == 0.0
    (w,) = rep.witnesses
    assert np.abs(w["x"]).tolist() == [1.0, 0.0] and w["y"] == [0.0, 0.0]
    assert w["sigma_min"] == 0.0
    assert _pair_kernel_sigma(c, w) <= 1e-12
    assert rep.details == {"pairs_tested": 1024}
    assert verify_nondegenerate(c, stream=SampleStream(seed)).verdict == "fail"


def test_skew_verdict_does_not_depend_on_radius():
    """A pair is singular by its singular values divided by |x - y|, so a
    skew linear chart that the Gram test leaves open gets one verdict and
    one margin at every radius, also at 5e-12, where the pairs' own
    sigma_min is near the absolute tolerance."""
    reps = [verify_skew(_STRETCHED, radius=r) for r in (5e-12, 1.0, 1e6)]
    assert [r.verdict for r in reps] == ["evidence-only"] * 3
    assert len({r.margin for r in reps}) == 1
    assert reps[0].margin == pytest.approx(0.25, rel=1e-5)


def test_skew_coincident_pairs_are_relative_to_the_radius():
    """A pair counts as coincident when |x - y| <= 1e-12 radius, so the
    pairs tested, and the margin, are the same at every scale."""
    reps = [verify_skew(_STRETCHED, radius=r) for r in (1e-13, 2e-12, 5e-12, 1.0, 1e6)]
    assert all(r.details == {"pairs_tested": 1024} for r in reps)
    assert len({r.margin for r in reps}) == 1
    assert reps[0].margin == pytest.approx(0.25000121696655625, rel=1e-12)


def test_skew_rejects_all_pairs_coincident():
    """At radius 1e-320 every pair distance underflows to 0."""
    with pytest.raises(InvalidInput, match="all sampled pairs were coincident"):
        verify_skew(_STRETCHED, radius=1e-320, samples=4)


def test_skew_rejects_single_sample():
    with pytest.raises(InvalidInput):
        verify_skew(builtin_chart("hopf3"), samples=1)


def test_sampled_checks_reject_bad_radius():
    charts = (builtin_chart("hopf3"), builtin_chart("hopf7"),
              builtin_chart("germ_extension", base=builtin_chart("quad_germ"), blend_r=0.5))
    for c in charts:
        for radius in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(InvalidInput):
                verify_skew(c, radius=radius)
            with pytest.raises(InvalidInput):
                verify_nondegenerate(c, radius=radius)


def _skew_reference(c, xs, ys, tol):
    """verify_skew's margin and witnesses from one chart call per point."""
    sv = [np.linalg.svd(np.column_stack([c.B(x) - c.B(y), x - y]), compute_uv=False)
          for x, y in zip(xs, ys)]
    margins = [s[-1] / d for s, d in zip(sv, np.linalg.norm(xs - ys, axis=1))]
    bad = [i for i, s in enumerate(sv) if s[-1] <= tol.threshold(s[0])]
    bad = sorted(bad, key=lambda i: margins[i])[:3]
    return min(margins), [{"x": xs[i].tolist(), "y": ys[i].tolist(), "sigma_min": sv[i][-1]}
                          for i in bad]


def _nondeg_reference(c, pts, tol):
    """Smooth k = 1 verify_nondegenerate from one chart call per point."""
    eigs = [np.linalg.eigvals(c.dB(y)[:, 0, :]) for y in pts]
    per_point = [np.min(np.abs(e.imag)) for e in eigs]
    real = [np.abs(e.imag) <= tol.rel * (1.0 + np.abs(e)) for e in eigs]
    bad = [i for i, r in enumerate(real) if r.any()][:1]
    witnesses = [{"y": pts[i].tolist(), "eigenvalue": float(eigs[i].real[real[i]][0])} for i in bad]
    return min(per_point), witnesses, pts[int(np.argmin(per_point))].tolist()


def _identity_db(ys):
    """dB of the line chart B(y) = y."""
    return np.broadcast_to(np.eye(2)[:, None, :], (len(ys), 2, 1, 2))


def test_smooth_sampled_checks_match_per_point_reference():
    """verify_skew and verify_nondegenerate on smooth charts evaluate the
    chart on whole stacks; margins, witnesses and details equal a loop
    over single points."""
    tol = Tolerance()
    charts = (
        extend_germ(builtin_chart("quad_germ", eps=0.05)),
        builtin_chart("quad_germ", eps=0.6),  # degenerate far from the origin
        # fibers not skew
        Chart(1, 2, "builtin", b_func=lambda ys: ys[:, :, None], db_func=_identity_db),
    )
    for c in charts:
        for seed, radius in ((0, 10.0), (7, 0.8)):
            rep = verify_skew(c, radius=radius, samples=200, stream=SampleStream(seed), tol=tol)
            xs, ys = SampleStream(seed).pairs_in_ball(200, 2, radius)
            margin, witnesses = _skew_reference(c, xs, ys, tol)
            assert rep.margin == margin
            assert list(rep.witnesses) == witnesses
            assert rep.verdict == ("fail" if witnesses else "evidence-only")

            rep = verify_nondegenerate(c, radius=radius, samples=200, stream=SampleStream(seed),
                                       tol=tol)
            pts = SampleStream(seed).ball_points(200, 2, radius)
            margin, witnesses, worst = _nondeg_reference(c, pts, tol)
            assert rep.margin == margin
            assert list(rep.witnesses) == witnesses
            assert rep.details["worst_point"] == worst
            assert rep.verdict == ("fail" if witnesses else "evidence-only")


def test_nondegenerate_exact_line_charts():
    for a, b in [(0.0, 1.0), (1.0, 2.0), (-3.0, -0.5)]:
        c = builtin_chart("hopf_line", m=2, a=a, b=b)
        rep = verify_nondegenerate(c)
        assert rep.verdict == "pass"
        # the 2x2 block path makes the eigenvalue margin exactly |b|
        assert rep.margin == abs(b)
        assert rep.details["exact"] is True


def test_nondegenerate_fails_on_real_eigenvalues():
    c = Chart(1, 2, "linear", C=(np.diag([1.0, 2.0]),))
    rep = verify_nondegenerate(c)
    assert rep.verdict == "fail"
    assert rep.witnesses[0]["eigenvalue"] in (1.0, 2.0)


def test_nondegenerate_sampled_plane_chart():
    """A k = 3 chart the Gram test leaves open: margin is the least sampled
    sigma_min of the pencil (C_1, C_2, C_3, I)."""
    c = _noisy("hopf7", 0.2)
    rep = verify_nondegenerate(c, samples=128, stream=SampleStream(seed=4))
    ts = SampleStream(seed=4).unit_vectors(128, 4)
    pencil = np.stack([*c.C, np.eye(4)])
    smin = np.linalg.svd(np.einsum("sj,jab->sab", ts, pencil), compute_uv=False)[:, -1]
    assert rep.verdict == "evidence-only"
    assert rep.margin == smin.min()


def test_nondegenerate_sampled_failure_witnesses():
    """Ill-conditioned k = 2 chart: every witness is singular, and the
    margin is the least sampled sigma_min."""
    c = Chart(2, 2, "linear", C=(np.diag([1e9, 1.0]), np.zeros((2, 2))))
    rep = verify_nondegenerate(c, samples=256, stream=SampleStream(seed=3))
    mats = np.stack([*c.C, np.eye(2)])
    ts = SampleStream(seed=3).unit_vectors(256, 3)
    smin = np.linalg.svd(np.einsum("sj,jab->sab", ts, mats), compute_uv=False)[:, -1]
    assert rep.verdict == "fail"
    assert rep.margin == smin.min()
    assert 1 <= len(rep.witnesses) <= 3
    sigmas = [w["sigma_min"] for w in rep.witnesses]
    assert sigmas == sorted(sigmas)
    tol = Tolerance()
    for w in rep.witnesses:
        sv = np.linalg.svd(np.einsum("j,jab->ab", np.asarray(w["t"]), mats), compute_uv=False)
        assert sv[-1] <= tol.rel * sv[0] + tol.abs


def test_nondegenerate_sampled_worst_point_is_first_least_margin():
    """Smooth k >= 2: worst_point holds the first sample of least sigma_min.
    The Clifford derivative is the same at every point, so the least
    margin ties across all points and the first point must win."""
    mats = builtin_chart("hopf7").C
    c = Chart(
        3, 4, "builtin",
        b_func=lambda ys: np.stack([ys @ m.T for m in mats], axis=2),
        db_func=lambda ys: np.broadcast_to(np.stack(mats, axis=1), (len(ys), 4, 3, 4)),
    )
    stream = SampleStream(seed=2)
    pts = stream.ball_points(64, 4, 3.0)
    ts = stream.unit_vectors(64, 4)
    pencil = np.stack([*mats, np.eye(4)])
    smin = np.concatenate([
        np.linalg.svd(np.einsum("sj,jab->sab", ts, pencil), compute_uv=False)[:, -1] for _ in pts
    ])
    assert np.sum(smin == smin.min()) > 1
    rep = verify_nondegenerate(c, radius=3.0, samples=64, stream=SampleStream(seed=2))
    assert rep.verdict == "evidence-only"
    assert rep.details["worst_point"] == pts[np.argmin(smin) // len(ts)].tolist()
    assert rep.margin == smin.min()


def test_nondegenerate_sampling_records():
    """Every sampled nondegeneracy path records seed, mode, count and
    radius, linear k >= 2 included; the exact k = 1 test on a linear
    chart samples nothing."""
    stream = SampleStream(5, "low-discrepancy")
    linear = verify_nondegenerate(builtin_chart("hopf7"), radius=3.0, samples=64, stream=stream)
    assert linear.sampling == {"seed": 5, "mode": "low-discrepancy", "count": 64, "radius": 3.0}
    assert verify_nondegenerate(builtin_chart("hopf3")).sampling is None
    ext = extend_germ(builtin_chart("quad_germ", eps=0.05))
    smooth = verify_nondegenerate(ext, radius=2.0, samples=32, stream=SampleStream(1))
    assert smooth.sampling == {"seed": 1, "mode": "pseudo-random", "count": 32, "radius": 2.0}


def test_nondegenerate_smooth_chart():
    ext = extend_germ(builtin_chart("quad_germ", eps=0.05))
    rep = verify_nondegenerate(ext, radius=5.0, samples=256)
    assert rep.ok
    assert rep.margin > 0.5


def _hopf_line_skew_margin(a, b):
    """sigma_min of [(aI + bJ) d | d] / |d|, the same for every d: the Gram
    matrix of the two columns is [[a^2 + b^2, a], [a, 1]]."""
    tr = a * a + b * b + 1.0
    return math.sqrt((tr - math.sqrt(tr * tr - 4.0 * b * b)) / 2.0)


_B0_RNG = np.random.default_rng(RNG_SEED)
_CERTIFIED = {
    **{name: (builtin_chart(name), 1.0) for name in ("hopf3", "hopf7", "hopf15")},
    **{f"hr-{q}-{r}": (from_bilinear(hurwitz_radon_family(q, r)), 1.0)
       for q, r in ((4, 4), (8, 5), (8, 8), (16, 9))},
    **{f"{alg}-{kp1}": (from_bilinear(from_algebra(alg, kp1)), 1.0)
       for alg, kp1 in (("complex", 2), ("quaternion", 3), ("octonion", 5))},
    **{f"off-{name}": (Chart(k, q, "affine", C=builtin_chart(name).C,
                             B0=_B0_RNG.uniform(-3.0, 3.0, (q, k))), 1.0)
       for name, k, q in (("hopf3", 1, 2), ("hopf7", 3, 4), ("hopf15", 7, 8))},
    **{f"line-m{m}": (builtin_chart("hopf_line", m=m, a=a, b=b), _hopf_line_skew_margin(a, b))
       for m, a, b in ((1, 0.0, 0.5), (2, 0.5, 1.5), (3, -1.9, 0.51))},
}


@pytest.mark.parametrize("c, margin", _CERTIFIED.values(), ids=_CERTIFIED.keys())
def test_gram_certifies_linear_charts(c, margin):
    """Every linear and affine chart the builders make passes verify_skew,
    verify_nondegenerate (k >= 2) and, where n = 2k+1, completion_check,
    with the margin closed and no pair or t drawn."""
    rep = verify_skew(c, radius=100.0, samples=10_000, stream=SampleStream(seed=1))
    assert rep.verdict == "pass" and rep.details["margin_exact"] is True
    assert rep.details["certified_lower_bound"] <= rep.margin
    assert rep.margin == pytest.approx(margin, rel=1e-12)
    assert rep.details["pairs_tested"] == 0 and rep.sampling["count"] == 10_000
    if c.k >= 2:
        rep = verify_nondegenerate(c, samples=64)
        assert rep.verdict == "pass" and rep.details["margin_exact"] is True
        assert rep.margin == pytest.approx(1.0, rel=1e-12)
    if c.n == 2 * c.k + 1:
        rep = completion_check(c, samples=64)
        assert rep.verdict == "pass" and rep.details["margin_exact"] is True


_K2_Q3 = Chart(2, 3, "linear", C=(
    np.array([[-1.66, -1.05, 1.21], [0.33, -1.62, -0.27], [-0.08, -1.36, 0.94]]),
    np.array([[-1.55, -0.44, 0.07], [-0.28, 0.35, 0.95], [1.83, -0.86, 0.59]]),
))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "check, c",
    [(verify_skew, _K2_Q3), (verify_nondegenerate, _K2_Q3),
     (verify_nondegenerate, _K_AT_LEAST_Q["k2-q2"])],
    ids=["skew-k2-q3", "nondeg-k2-q3", "nondeg-k2-q2"],
)
def test_adams_gate_fails_pencils_with_more_slots_than_rho(check, c, seed):
    """k + 1 > rho(q), so the pencil (C_1, ..., C_k, I) is singular
    somewhere (Hurwitz-Radon-Adams).  No sample and no Gram-test t finds
    that set on these charts, and the gate fails them with its witness."""
    rep = check(c, stream=SampleStream(seed))
    assert rep.verdict == "fail" and rep.margin == 0.0
    assert rep.witnesses == ({"kp1": c.k + 1, "q": c.q, "reason": "no nonsingular pencil exists"},)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["hopf3", "hopf7", "hopf15", "hr-16-9"])
def test_adams_gate_passes_admissible_charts(name, seed):
    """Charts with k + 1 <= rho(q) are never gated, at the seeds above."""
    c = _CERTIFIED[name][0]
    assert verify_skew(c, stream=SampleStream(seed)).verdict == "pass"
    assert verify_nondegenerate(c, stream=SampleStream(seed)).verdict == "pass"


_EXT_K2_Q3 = builtin_chart("germ_extension", blend_r=1.0, base=_K2_Q3)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("check", [verify_skew, verify_nondegenerate], ids=["skew", "nondeg"])
def test_adams_gate_fails_smooth_charts_without_a_skew_fibration(check, seed):
    """A smooth extension of the k = 2, q = 3 chart: R^5 admits no skew
    fibration by planes, no sample finds its singular set at these seeds,
    and the gate fails the clean run with its witness."""
    rep = check(_EXT_K2_Q3, stream=SampleStream(seed))
    assert rep.verdict == "fail" and rep.margin == 0.0
    assert rep.witnesses == ({"k": 2, "n": 5, "reason": "no skew fibration exists"},)


def test_adams_gate_keeps_sampled_witnesses_on_smooth_charts():
    """A sampled fail stands: the extension of C = [[2]] (k = q = 1) keeps
    its singular pairs and its real eigenvalue; an admissible smooth
    chart is never gated."""
    c = builtin_chart("germ_extension", blend_r=1.0, base=Chart(1, 1, "linear", C=(np.array([[2.0]]),)))
    skew = verify_skew(c, stream=SampleStream(0))
    assert skew.verdict == "fail" and all("sigma_min" in w for w in skew.witnesses)
    assert verify_nondegenerate(c, stream=SampleStream(0)).witnesses[0]["eigenvalue"] == 2.0
    ext = builtin_chart("germ_extension", blend_r=0.5, base=builtin_chart("quad_germ", eps=0.05))
    assert verify_skew(ext, stream=SampleStream(0)).verdict == "evidence-only"
    assert verify_nondegenerate(ext, stream=SampleStream(0)).verdict == "evidence-only"


def test_gram_skips_pencils_above_its_size_cap():
    """HR(128, 9) has the skew pencil S = I, but with mq = 9 * 128 above
    GRAM_MAX it is sampled, as before the certificate."""
    c = from_bilinear(hurwitz_radon_family(128, 9))
    assert (c.k + 1) * c.q > GRAM_MAX
    rep = verify_skew(c, samples=64)
    assert rep.verdict == "evidence-only" and rep.details == {"pairs_tested": 64}


def test_gram_lower_bound_under_sampled_margins():
    """hopf15 + 0.02 noise: the certificate proves the pencil nonsingular
    but leaves [lo, hi] open, so the margins are sampled, and lo lies
    below both of them and below hi."""
    c = _noisy("hopf15", 0.02)
    lo, hi, _ = gram_enclosure(np.concatenate([c.C, np.eye(c.q)[None]]))
    assert 0.0 < lo <= hi
    skew = verify_skew(c, radius=10.0, samples=2048)
    assert skew.details["pairs_tested"] == 2048
    for rep in (skew, verify_nondegenerate(c, samples=2048)):
        assert rep.verdict == "pass" and rep.details["margin_exact"] is False
        assert rep.details["certified_lower_bound"] == lo <= rep.margin


def test_gram_certifies_skew_table():
    """Every cell of skew_table(24), built as from_bilinear of a
    Hurwitz-Radon family, passes all three checks where they apply, in
    well under the 2 s budget."""
    start = time.perf_counter()
    cells = 0
    for n, ks in skew_table(24).items():
        for k in ks:
            c = from_bilinear(hurwitz_radon_family(n - k, k + 1))
            assert verify_skew(c, samples=256).verdict == "pass", (n, k)
            assert verify_nondegenerate(c, samples=256).verdict == "pass", (n, k)
            if n == 2 * k + 1:
                assert completion_check(c, samples=256).verdict == "pass", (n, k)
            cells += 1
    assert cells == 30
    assert time.perf_counter() - start < 2.0


def test_nondegenerate_zero_chart_k3_fails():
    """C = 0 with k = 3: every t with t_4 = 0 makes the pencil (0, 0, 0, I)
    singular, a set that sampling never hits; the unit axis t = e_1 is the
    witness."""
    c = Chart(3, 4, "linear", C=(np.zeros((4, 4)),) * 3)
    rep = verify_nondegenerate(c, samples=200)
    assert rep.verdict == "fail" and rep.margin == 0.0
    assert rep.witnesses == ({"t": [1.0, 0.0, 0.0, 0.0], "sigma_min": 0.0},)


_NOISE_RNG = np.random.default_rng(RNG_SEED)
_PENCIL_CHARTS = {
    "hopf7": builtin_chart("hopf7"),
    "hopf15": builtin_chart("hopf15"),
    "hr-8-5": from_bilinear(hurwitz_radon_family(8, 5)),
    "hr-16-9": from_bilinear(hurwitz_radon_family(16, 9)),
    "quaternion-3": from_bilinear(from_algebra("quaternion", 3)),
    "octonion-5": from_bilinear(from_algebra("octonion", 5)),
    "off-hopf7": Chart(3, 4, "affine", C=builtin_chart("hopf7").C,
                       B0=_NOISE_RNG.uniform(-3.0, 3.0, (4, 3))),
    "zero-k3": Chart(3, 4, "linear", C=np.zeros((3, 4, 4))),
    "noisy-hopf7": Chart(
        3, 4, "linear", C=builtin_chart("hopf7").C + 0.2 * _NOISE_RNG.standard_normal((3, 4, 4))
    ),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", _PENCIL_CHARTS)
def test_linear_pencil_verdicts_equal_verify_nonsingular(name, seed):
    """verify_nondegenerate (k >= 2) and completion_check decide a linear
    chart's own stack, without a BilinearMap: each report is
    verify_nonsingular's on the same pencil, (C_1, ..., C_k, I) and
    (C_1, ..., C_k), with only check and sampling replaced.  The Clifford
    charts close, the zero chart fails and the noisy one is sampled."""
    c = _PENCIL_CHARTS[name]
    pencil = BilinearMap(c.q, c.k + 1, (*c.C, np.eye(c.q)))
    ref = verify_nonsingular(pencil, 300, SampleStream(seed))
    rep = verify_nondegenerate(c, samples=300, stream=SampleStream(seed))
    sampling = SampleStream(seed).sampling(300, 10.0)
    assert rep.to_dict() == replace(ref, check="nondegenerate", sampling=sampling).to_dict()
    assert rep.verdict == {"zero-k3": "fail", "noisy-hopf7": "evidence-only"}.get(name, "pass")
    if c.n == 2 * c.k + 1:
        ref = verify_nonsingular(BilinearMap(c.q, c.k, tuple(c.C)), 300, SampleStream(seed))
        rep = completion_check(c, samples=300, stream=SampleStream(seed))
        assert rep.to_dict() == replace(ref, check="completion").to_dict()


# ---------------------------------------------------------------------------
# asymptotics


def test_cone_probe_validation():
    ell = np.array([1.0, 0.0, 0.0])
    probe = ConeProbe(ell, (1e2, 1e3))
    assert probe.points().shape == (2, 3)
    with pytest.raises(InvalidInput):
        ConeProbe(2.0 * ell, (1e2, 1e3))  # not unit
    with pytest.raises(InvalidInput):
        ConeProbe(ell, (1e3, 1e2))  # not increasing
    with pytest.raises(InvalidInput):
        ConeProbe(ell, ())
    with pytest.raises(InvalidInput):
        ConeProbe(ell, (1e2, 1e3), delta=2.0)
    with pytest.raises(InvalidInput):
        # base offset so large the first point leaves the cone
        ConeProbe(ell, (1.0, 10.0), base=np.array([0.0, 50.0, 0.0]))


@pytest.mark.parametrize("n", [0.0, -1.0, math.nan])
def test_cone_probe_rejects_a_cone_bound_that_is_not_positive(n):
    """N <= 0 would let a probe point sit at the origin, where unit(y) is
    0/0; such an N, and NaN, is refused with a message about the cone."""
    with pytest.raises(InvalidInput) as exc:
        ConeProbe(np.array([1.0, 0.0, 0.0]), (0.0, 1.0), N=n)
    assert str(exc.value) == f"cone bound N must be > 0, got {n}"


def test_fiber_containing_direction():
    c = builtin_chart("hopf3")
    y = fiber_containing_direction(c, np.array([1.0, 0.0, 0.0]))
    assert np.max(np.abs(y)) <= 1e-12
    # a direction inside the chart plane belongs to no fiber
    with pytest.raises(InvalidInput):
        fiber_containing_direction(c, np.array([0.0, 1.0, 0.0]))


def test_fiber_containing_direction_matches_lstsq():
    rng = np.random.default_rng(RNG_SEED)
    for name in ("hopf3", "hopf7", "hopf15"):
        c = builtin_chart(name)
        for _ in range(20):
            ell = rng.standard_normal(c.n)
            ell /= np.linalg.norm(ell)
            lt, ly = ell[: c.k], ell[c.k:]
            mat = sum(lt[j] * c.C[j] for j in range(c.k))
            expected = np.linalg.lstsq(mat, ly, rcond=None)[0]
            got = fiber_containing_direction(c, ell)
            assert np.max(np.abs(got - expected)) <= 1e-12


def test_fiber_containing_direction_on_extension():
    ext = extend_germ(builtin_chart("quad_germ", eps=0.05))
    for ell in ([1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.3, -2.0, 5.0]):
        ell = np.asarray(ell)
        y = fiber_containing_direction(ext, ell)
        budget = 1e-12 * (1.0 + np.linalg.norm(ell[1:]))
        assert np.linalg.norm(ext.B(y) @ ell[:1] - ell[1:]) <= budget


def test_fiber_containing_direction_does_not_depend_on_length():
    """The fiber that contains a direction does not depend on its length:
    the same chart point, within 1e-12, from ell scaled by 1e-11 to 1e6.
    An unnormalized ell once raised "chart plane" on hopf3 at 1e-13 and
    stopped Newton 3.6e-2 away on quad_germ(0.5) at 1e-11.  A zero ell is
    an input error."""
    ell = np.array([1.0, 0.3, -0.2])
    charts = [builtin_chart("hopf3"), builtin_chart("quad_germ", eps=0.5),
              extend_germ(builtin_chart("quad_germ", eps=0.05))]
    for c in charts:
        ref = fiber_containing_direction(c, ell)
        for scale in (1e-11, 1e-6, 1.0, 1e6):
            assert np.max(np.abs(fiber_containing_direction(c, scale * ell) - ref)) <= 1e-12
        with pytest.raises(InvalidInput, match="nonzero"):
            fiber_containing_direction(c, np.zeros(3))
    hopf3 = charts[0]
    assert np.max(np.abs(fiber_containing_direction(hopf3, 1e-13 * ell)
                         - fiber_containing_direction(hopf3, ell))) <= 1e-12


def test_smooth_verify_skew_evaluates_b_once(monkeypatch):
    """The smooth pair stack evaluates B once on both ends of every pair:
    one call of the chart's evaluator Chart._b per sampled run (made
    through Chart._values), on 2 * pairs_tested rows, and none of the
    public Chart.B, whose input check the drawn points do not need.  (The extension's blend calls _b
    on the germ and its linearization, other charts, not counted here.)"""
    ext = extend_germ(builtin_chart("quad_germ", eps=0.2))
    calls, public = [], []
    b, b_public = Chart._b, Chart.B
    monkeypatch.setattr(
        Chart, "_b", lambda self, ys: (self is ext and calls.append(len(ys))) or b(self, ys)
    )
    monkeypatch.setattr(Chart, "B", lambda self, y: public.append(len(y)) or b_public(self, y))
    for seed in (0, 7):
        calls.clear()
        rep = verify_skew(ext, samples=256, stream=SampleStream(seed))
        assert calls == [2 * rep.details["pairs_tested"]]
    assert public == []


def _bits(a):
    """The float64 bits of an array, so that 0.0 and -0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("germ", [
    builtin_chart("quad_germ", eps=0.3),
    Chart(2, 3, "builtin",
          b_func=lambda ys: np.stack([np.sin(ys), np.cos(ys) - 0.5], axis=2),
          db_func=lambda ys: np.stack([np.cos(ys)[:, :, None] * np.eye(3),
                                       -np.sin(ys)[:, :, None] * np.eye(3)], axis=2)),
], ids=["quad_germ", "k2-q3"])
def test_linearization_equals_the_constructed_chart(germ):
    """The germ's linearization, built without the constructor's checks,
    is the chart Chart(k, q, "affine", C=..., B0=...) would build: every
    field equal, bit for bit, and C and B0 C-contiguous arrays of its own."""
    lin = fibration._linearization(germ)
    zero = np.zeros((1, germ.q))
    ref = Chart(germ.k, germ.q, "affine", C=germ._db(zero)[0].transpose(1, 0, 2),
                B0=germ._b(zero)[0])
    for f in fields(Chart):
        mine, want = getattr(lin, f.name), getattr(ref, f.name)
        if isinstance(want, np.ndarray):
            assert mine.dtype == want.dtype and mine.shape == want.shape
            assert np.array_equal(_bits(mine), _bits(want))
            assert mine.flags.c_contiguous and mine.flags.owndata
        else:
            assert mine == want, f.name


def test_linear_system_matrix_is_the_sum_over_j(monkeypatch):
    """_solve forms s I + sum_j t_j C_j by adding in place; its bits are
    those of the generator sum eye + sum(t[j] * C[j] for j), signed zeros
    included, for s = 1 (fiber_solve) and s = 0 (fiber_containing_direction),
    on random charts with k <= 10, q <= 16 and entries 0.0 and -0.0.
    q = 1 with k >= 8 is where one np.add.reduce over the stack differs."""
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a.copy()) or svd(a, **kw))
    rng = np.random.default_rng(RNG_SEED)
    tol = Tolerance()
    zeros = np.array([0.0, -0.0])
    shapes = [(8, 1), (10, 1)] + [(int(rng.integers(1, 11)), int(rng.integers(1, 17)))
                                  for _ in range(300)]
    for k, q in shapes:
        cs = rng.standard_normal((k, q, q))
        cs[rng.random(cs.shape) < 0.3] = 0.0
        cs[rng.random(cs.shape) < 0.3] = -0.0
        cs[rng.random(cs.shape) < 0.1] *= 1e-300
        t = rng.standard_normal(k)
        t[rng.random(k) < 0.3] = rng.choice(zeros)
        c = Chart(k, q, "affine" if rng.random() < 0.5 else "linear", C=cs,
                  B0=rng.standard_normal((q, k)))
        for s in (1.0, 0.0):
            seen.clear()
            try:
                fibration._solve(c, s, t, np.ones(q), np.zeros(q), math.inf, tol)
            except (SingularSystem, NoConvergence):
                pass
            want = (np.eye(q) if s else 0.0) + sum(t[j] * c.C[j] for j in range(k))
            assert np.array_equal(_bits(seen[0]), _bits(want))


def test_fiber_containing_direction_singular_system():
    """A chart whose B does not move has a singular Jacobian, and a zero
    linear chart a singular system: both raise SingularSystem, not a raw
    numpy error."""
    flat = Chart(1, 2, "builtin", b_func=lambda ys: np.ones((len(ys), 2, 1)),
                 db_func=lambda ys: np.zeros((len(ys), 2, 1, 2)))
    with pytest.raises(SingularSystem):
        fiber_containing_direction(flat, np.array([1.0, 0.0, 0.0]))
    zero = Chart(1, 2, "linear", C=(np.zeros((2, 2)),))
    with pytest.raises(SingularSystem):
        fiber_containing_direction(zero, np.array([1.0, 0.0, 0.0]))


def test_fiber_containing_direction_rejects_non_finite_direction(capfd):
    c = builtin_chart("hopf3")
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInput):
            fiber_containing_direction(c, np.array([1.0, bad, 0.0]))
    with pytest.raises(InvalidInput):
        fiber_containing_direction(c, np.array([1.0, 0.0]))  # wrong length
    assert capfd.readouterr().err == ""


def test_non_finite_chart_points_are_input_errors():
    c = builtin_chart("hopf3")
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInput):
            fiber_plane(c, np.array([bad, 0.0]))
        with pytest.raises(InvalidInput):
            sample_fibers(c, np.array([[1.0, 0.0], [bad, 0.0]]))
        probe = ConeProbe(np.array([1.0, 0.0, 0.0]), (1e2,))
        with pytest.raises(InvalidInput):
            continuity_probe(c, np.array([1.0, bad, 0.0]), probe)
        with pytest.raises(InvalidInput):
            ConeProbe(np.array([bad, 0.0, 0.0]), (1e2,))
        with pytest.raises(InvalidInput):
            ConeProbe(np.array([1.0, 0.0, 0.0]), (1e2,), base=np.array([0.0, bad, 0.0]))
        with pytest.raises(InvalidInput):
            ConeProbe(np.array([1.0, 0.0, 0.0]), (1e2, bad))
        with pytest.raises(InvalidInput):
            ConeProbe(np.array([1.0, 0.0, 0.0]), (1e2,), N=bad)
        for t_range in ((bad, 1.0), (-1.0, bad), (-bad, 1.0)):
            with pytest.raises(InvalidInput, match="t_range"):
                sample_fibers(c, np.array([[1.0, 0.0]]), t_range)


def test_sample_fibers_rejects_overflowing_points():
    c = Chart(1, 2, "linear", C=(np.array([[1e308, -1e308], [1e308, 1e308]]),))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInput, match="overflow"):
            sample_fibers(c, np.array([[1.0, 1.0]]))


def test_fiber_plane_rejects_overflowing_chart():
    """B(y) overflows here; the error is an input error, with no warning
    on the way, and the same under the CLI's raising error state."""
    c = builtin_chart("hopf_line", m=1, a=1e300, b=1e300)
    y = np.array([1e10, 1.0])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInput, match="overflow encountered in matmul"):
            fiber_plane(c, y)
    assert seen == []
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(InvalidInput, match="overflow encountered in matmul"):
            fiber_plane(c, y)


def test_continuity_probe_decays():
    c = builtin_chart("hopf3")
    ell = np.array([1.0, 0.0, 0.0])
    base = np.array([0.0, 2.0, 0.0])
    probe = ConeProbe(ell, (1e2, 1e4, 1e6), base=base)
    angles = continuity_probe(c, ell, probe)
    assert angles[0] > angles[1] > angles[2]
    assert angles[2] <= 1e-5
    # one-over-t decay: each two-decade step shrinks the angle ~100x
    assert angles[1] / angles[0] <= 0.02
    assert angles[2] / angles[1] <= 0.02


def test_continuity_probe_along_own_fiber():
    c = builtin_chart("hopf7")
    y = np.array([0.5, -1.0, 0.25, 2.0])
    plane = fiber_plane(c, y)
    d = plane.direction.frame[:, 0]
    probe = ConeProbe(d, (10.0, 100.0), base=plane.base)
    angles = continuity_probe(c, d, probe)
    assert max(angles) <= 1e-6


def test_limiting_direction_closed_form():
    """Richardson limit matches C (I + v_t C)^-1 u computed directly."""
    rng = np.random.default_rng(RNG_SEED)
    for m, a, b in [(1, 0.0, 1.0), (2, 1.0, 2.0), (3, -0.5, 1.5)]:
        c = builtin_chart("hopf_line", m=m, a=a, b=b)
        cmat = c.C[0]
        for _ in range(10):
            uq = rng.standard_normal(c.q)
            uq /= np.linalg.norm(uq)
            u = np.concatenate([[0.0], uq])
            v = rng.standard_normal(c.n)
            v -= (v @ u) * u
            got = limiting_direction(c, u, v)
            lim = cmat @ np.linalg.solve(np.eye(c.q) + v[0] * cmat, uq)
            expected = np.concatenate([[0.0], lim])
            expected /= np.linalg.norm(expected)
            err = min(np.linalg.norm(got - expected), np.linalg.norm(got + expected))
            assert err <= 1e-6


def test_limiting_direction_evaluates_nothing_after_its_solves(monkeypatch):
    """Each of the two fiber directions comes from the B(y) of its solve:
    limiting_direction evaluates B and dB exactly as fiber_solve at its
    two points does, on a linear chart and on a germ extension."""
    calls = []
    for name in ("_b", "_db"):
        orig = getattr(Chart, name)
        monkeypatch.setattr(
            Chart, name, lambda self, ys, name=name, orig=orig: calls.append(name) or orig(self, ys)
        )
    u, v = np.array([0.0, 0.6, 0.8]), np.array([0.5, 0.8, -0.6])
    dist = LIMIT_T * max(1.0, float(np.linalg.norm(v)))
    for c in (builtin_chart("hopf3"), extend_germ(builtin_chart("quad_germ", eps=0.2))):
        calls.clear()
        limiting_direction(c, u, v)
        used = list(calls)
        calls.clear()
        fiber_solve(c, v + dist * u)
        fiber_solve(c, v + 2.0 * dist * u)
        assert used == calls and "_b" in used


def test_limiting_direction_of_a_steep_line():
    """On hopf_line b = 1e160 the direction (1, B(y)) at s = LIMIT_T has a
    squared norm near 1e336; unit scales it first, so the limit is the
    closed form's, not an overflow error."""
    c = builtin_chart("hopf_line", m=1, a=0.0, b=1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = limiting_direction(c, np.array([0.0, 1.0, 0.0]), np.zeros(3))
        assert np.array_equal(got, [0.0, 0.0, 1.0])
        # with v_t = 0.5 the closed form C (I + v_t C)^-1 u_q is nearly 2 u_q
        got = limiting_direction(c, np.array([0.0, 0.6, 0.8]), np.array([0.5, 0.8, -0.6]))
        assert np.allclose(got, [0.0, 0.6, 0.8], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "v", [[0.0, 0.0, 1e8], [0.0, 0.0, 1e12], [1e10, 0.0, 0.0], [1e12, 0.0, 1e12], [-1e11, 0.0, 5e11]],
    ids=["vy-1e8", "vy-1e12", "vt-1e10", "both-1e12", "mixed"],
)
def test_limiting_direction_far_from_the_origin(v):
    """The evaluation distance grows with |v|, so Richardson's order-|v|/s
    error stays small for large v: the limit matches the closed form
    M (I + v_t M)^-1 u_q.  At the fixed distance 1e8 these were off by
    0.17 to 1."""
    c = builtin_chart("hopf3")
    u, v = np.array([0.0, 1.0, 0.0]), np.array(v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = limiting_direction(c, u, v)
    lim = c.C[0] @ np.linalg.solve(np.eye(2) + v[0] * c.C[0], u[1:])
    expected = np.concatenate([[0.0], lim / np.linalg.norm(lim)])
    assert np.abs(got - expected).max() <= 1e-9


def test_limiting_direction_names_a_v_too_large_to_evaluate():
    with pytest.raises(InvalidInput, match=r"\|v\| = 1\.000e\+300 is too large"):
        limiting_direction(builtin_chart("hopf3"), np.array([0.0, 1.0, 0.0]), np.array([1e300, 0.0, 0.0]))


def test_limiting_direction_validation():
    c = builtin_chart("hopf3")
    u = np.array([0.0, 1.0, 0.0])
    with pytest.raises(InvalidInput):
        limiting_direction(builtin_chart("hopf7"), np.zeros(7), np.zeros(7))
    with pytest.raises(InvalidInput):
        limiting_direction(c, 2.0 * u, np.zeros(3))  # not unit
    with pytest.raises(InvalidInput):
        limiting_direction(c, np.array([1.0, 0.0, 0.0]), np.zeros(3))  # not in chart plane
    with pytest.raises(InvalidInput):
        limiting_direction(c, u, u)  # v not orthogonal to u


# ---------------------------------------------------------------------------
# germ extension


def test_extend_germ_linear_passthrough():
    c = builtin_chart("hopf3")
    assert extend_germ(c) is c


def test_extend_germ_blend_structure():
    germ = builtin_chart("quad_germ", eps=0.05)
    ext = extend_germ(germ)
    assert ext.name == "germ_extension"
    r = ext.params["blend_r"]
    rng = np.random.default_rng(RNG_SEED)
    # bitwise agreement with the germ inside the inner half zone
    for _ in range(100):
        y = rng.uniform(-1.0, 1.0, 2)
        y *= rng.uniform(0.0, 0.5 * r) / max(np.linalg.norm(y), 1e-300)
        assert np.array_equal(ext.B(y), germ.B(y))
        assert np.array_equal(ext.dB(y), germ.dB(y))
    # exact linearization outside the blend zone
    b0 = germ.B(np.zeros(2))
    t0 = germ.dB(np.zeros(2))
    for _ in range(100):
        y = rng.standard_normal(2)
        y *= rng.uniform(1.001 * r, 50.0) / np.linalg.norm(y)
        lin = b0 + np.einsum("ijl,l->ij", t0, y)
        assert np.max(np.abs(ext.B(y) - lin)) <= 1e-14
        assert np.array_equal(ext.dB(y), t0)


def test_extend_germ_rejects_degenerate_origin():
    def b(ys):
        return np.asarray(ys, dtype=float).reshape(-1, 2, 1)  # dB_0 = identity

    degenerate = Chart(1, 2, "builtin", name=None, b_func=b, db_func=_identity_db)
    with pytest.raises(InvalidInput):
        extend_germ(degenerate)


def test_extend_germ_rejects_degenerate_origin_plane_germ():
    """k = 2: dB_0 = (diag(1e9, 1), 0) makes the pencil (dB_0, identity)
    singular, which the origin check finds on its 512 samples."""
    d = np.diag([1e9, 1.0])

    def b(ys):
        return np.stack([ys @ d.T, np.zeros_like(ys)], axis=2)

    def db(ys):
        return np.broadcast_to(np.stack([d, np.zeros((2, 2))], axis=1), (len(ys), 2, 2, 2))

    germ = Chart(2, 2, "builtin", b_func=b, db_func=db)
    with pytest.raises(InvalidInput, match="degenerate at the origin"):
        extend_germ(germ)


def test_extend_germ_fails_below_any_difference_step():
    """quad_germ(1e10) has real eigenvalues of dB within 1e-7 of the origin.
    A central-difference dB with step 1e-5 (1 + |y|) only saw the
    linearization once the blend radius fell below the step, and accepted
    the blend at radius 4.77e-7; the closed-form dB finds the germ's
    eigenvalues at every radius."""
    germ = builtin_chart("quad_germ", eps=1e10)
    with pytest.raises(BlendFailure, match="down to radius 4.768e-07"):
        extend_germ(germ, 0.5, samples=1000)


def test_extend_germ_failure_carries_last_report(monkeypatch):
    """quad_germ(1e10) has real eigenvalues of dB within 1e-9 of the origin,
    inside its unit domain, so every blend of its extension from radius 1
    down to 2^-20 fails; the error carries the report of the last one,
    whose ball has ten times its blend radius.  The linearization is built
    once for all 21 blends."""
    steep = builtin_chart("germ_extension", blend_r=1.0, base=builtin_chart("quad_germ", eps=1e10))
    calls = []
    linearization = fibration._linearization
    monkeypatch.setattr(fibration, "_linearization", lambda c: calls.append(c) or linearization(c))
    with pytest.raises(BlendFailure, match="no nondegenerate blend found") as failure:
        extend_germ(steep, blend_r=1.0, samples=500)
    assert calls == [steep]
    last = failure.value.report
    assert last.check == "nondegenerate" and last.verdict == "fail"
    assert last.sampling == {"seed": 20, "mode": "pseudo-random", "count": 500,
                             "radius": 10.0 / 2**20}
    # the message names the blend radius of that last attempt
    assert f"radius {last.sampling['radius'] / 10.0:.3e}" in str(failure.value)


def test_extend_germ_blend_radius_cap():
    germ = builtin_chart("quad_germ", eps=0.05)
    with pytest.raises(InvalidInput):
        extend_germ(germ, blend_r=5.0)  # exceeds the unit domain radius
    # the same rule for an extension built directly
    with pytest.raises(InvalidInput, match="base's domain radius 1.0, got 5.0"):
        builtin_chart("germ_extension", blend_r=5.0, base=germ)
    assert builtin_chart("germ_extension", blend_r=1.0, base=germ).params["blend_r"] == 1.0


# ---------------------------------------------------------------------------
# sampling and serialization


def test_sample_fibers_line_chart():
    c = builtin_chart("hopf3")
    bases = np.array([[0.0, 0.0], [1.0, 2.0]])
    ids, idx, pts = sample_fibers(c, bases, t_range=(-1.0, 1.0), steps=5)
    assert ids.shape == (10,) and idx.shape == (10, 1) and pts.shape == (10, 3)
    assert set(ids.tolist()) == {0, 1}
    for fid, x in zip(ids, pts):
        assert _on_fiber_residual(c, bases[fid], x) <= 1e-12
    with pytest.raises(InvalidInput, match="need at least one base point"):
        sample_fibers(c, np.zeros((0, 2)))


def test_sample_fibers_plane_chart():
    c = from_bilinear(hurwitz_radon_family(4, 3))
    assert c.k == 2
    ids, idx, pts = sample_fibers(c, np.zeros((1, 4)), steps=3)
    assert pts.shape == (9, 6) and idx.shape == (9, 2)
    with pytest.raises(InvalidInput):
        sample_fibers(c, np.zeros((1, 3)))
    with pytest.raises(InvalidInput):
        sample_fibers(c, np.zeros((1, 4)), t_range=(1.0, -1.0))
    with pytest.raises(InvalidInput, match="need at least one base point"):
        sample_fibers(c, np.zeros((0, 4)))


def test_sample_fibers_checks_its_row_count_before_allocating():
    """The row count len(base_points) * steps^k is a Python int, checked
    against SAMPLE_MAX_ROWS before the grid exists: 100000^7 rows on hopf15
    would overflow numpy's array size, 1025 x 1024 rows on a line chart
    would not."""
    with pytest.raises(InvalidInput, match=r"^1 x 100000\^7 sample rows exceed 1048576$"):
        sample_fibers(builtin_chart("hopf15"), np.zeros((1, 8)), steps=100000)
    with pytest.raises(InvalidInput, match="exceed"):
        sample_fibers(builtin_chart("hopf3"), np.zeros((1025, 2)), steps=1024)


def _sample_fibers_loop(c, base_points, t_range, steps):
    """The per-fiber loop sample_fibers ran before it became one stacked
    product: a reference for its values, indices and dtypes."""
    axis = np.linspace(t_range[0], t_range[1], steps)
    grids = np.meshgrid(*([axis] * c.k), indexing="ij")
    tgrid = np.stack([g.ravel() for g in grids], axis=1)
    idx = np.stack(
        [g.ravel() for g in np.meshgrid(*([np.arange(steps)] * c.k), indexing="ij")], axis=1
    )
    ids, indices, points = [], [], []
    for fid, (y, by) in enumerate(zip(base_points, c.B(base_points))):
        ids.append(np.full(tgrid.shape[0], fid))
        indices.append(idx)
        points.append(np.hstack([tgrid, tgrid @ by.T + y]))
    return np.concatenate(ids), np.vstack(indices), np.vstack(points)


@pytest.mark.parametrize(
    "chart",
    [
        builtin_chart("hopf3"),
        builtin_chart("hopf7"),
        builtin_chart("hopf15"),
        builtin_chart("hopf_line", m=2, a=0.5, b=1.5),
        from_bilinear(hurwitz_radon_family(8, 5)),
        Chart(3, 4, "affine", C=builtin_chart("hopf7").C, B0=np.arange(12.0).reshape(4, 3) / 7.0),
        extend_germ(builtin_chart("quad_germ", eps=0.2), samples=200),
    ],
    ids=["hopf3", "hopf7", "hopf15", "hopf_line", "hr-8-5", "affine-hopf7", "extension"],
)
def test_sample_fibers_matches_per_fiber_loop(chart):
    bases = SampleStream(RNG_SEED).ball_points(6, chart.q, 3.0)
    bases[0] = 0.0
    # 5**7 parameter values per fiber of hopf15 would only slow the test down
    for steps in (1, 3, 5) if chart.k < 7 else (1, 2, 3):
        got = sample_fibers(chart, bases, (-1.5, 2.0), steps)
        want = _sample_fibers_loop(chart, bases, (-1.5, 2.0), steps)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)


def test_chart_json_round_trip_linear():
    for c in (builtin_chart("hopf7"), builtin_chart("hopf_line", m=2, a=0.5, b=1.0)):
        data = chart_to_dict(c)
        assert data["schema"] == "skewfib-chart-v1"
        back = chart_from_dict(data)
        assert (back.k, back.q, back.kind) == (c.k, c.q, c.kind)
        for m1, m2 in zip(back.C, c.C):
            assert np.array_equal(m1, m2)
        assert back.name == c.name


def test_chart_json_round_trip_affine():
    c = Chart(1, 2, "affine", C=builtin_chart("hopf3").C, B0=np.array([[1.5], [-2.0]]))
    back = chart_from_dict(chart_to_dict(c))
    y = np.array([0.7, 0.1])
    assert np.array_equal(back.B(y), c.B(y))


def test_chart_json_round_trip_extension():
    ext = extend_germ(builtin_chart("quad_germ", eps=0.07))
    back = chart_from_dict(chart_to_dict(ext))
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        y = rng.uniform(-3.0, 3.0, 2)
        assert np.array_equal(back.B(y), ext.B(y))


def _builtin_dict(k, q, name, params):
    return {"schema": "skewfib-chart-v1", "k": k, "q": q, "kind": "builtin",
            "builtin": {"name": name, "params": params}}


_QUAD_DICT = _builtin_dict(1, 2, "quad_germ", {"eps": 0.2})
_EXT_DICT = _builtin_dict(1, 2, "germ_extension", {"blend_r": 0.5, "base": _QUAD_DICT})
_CHART_DICTS = {
    **{name: chart_to_dict(builtin_chart(name)) for name in ("hopf3", "hopf7", "hopf15")},
    "hopf_line": chart_to_dict(builtin_chart("hopf_line", m=2, a=0.5, b=1.5)),
    "gluck_yang": chart_to_dict(builtin_chart("gluck_yang", m=3)),
    "quad_germ": _QUAD_DICT,
    "affine": {"schema": "skewfib-chart-v1", "k": 1, "q": 2, "kind": "affine",
               "C": [[[0.0, -1.0], [1.0, 0.0]]], "B0": [[1.5], [-2.0]]},
    "germ_extension": _EXT_DICT,
    "extension-of-extension": _builtin_dict(1, 2, "germ_extension", {"blend_r": 0.25, "base": _EXT_DICT}),
}


@pytest.mark.parametrize("data", _CHART_DICTS.values(), ids=_CHART_DICTS)
def test_chart_to_dict_inverts_chart_from_dict(data):
    """Every chart layout comes back as it was read: the arrays of a linear
    or affine chart, and one builtin record, in which an extension nests
    its base's layout, an extension's included."""
    assert chart_to_dict(chart_from_dict(data)) == data


def test_chart_from_dict_errors():
    with pytest.raises(InvalidInput):
        chart_from_dict({"kind": "linear", "k": 1})  # missing q
    with pytest.raises(InvalidInput):
        chart_from_dict({"kind": "spectral", "k": 1, "q": 2})
    with pytest.raises(InvalidInput):
        chart_from_dict({"kind": "builtin", "k": 1, "q": 2, "builtin": {}})
    with pytest.raises(InvalidInput):
        chart_from_dict(
            {"kind": "builtin", "k": 2, "q": 2, "builtin": {"name": "hopf3", "params": {}}}
        )


def test_anonymous_smooth_chart_not_serializable():
    def b(y):
        return np.asarray([[y[1]], [-y[0]]], dtype=float)

    def db(ys):
        return np.broadcast_to(-J2[:, None, :], (len(ys), 2, 1, 2))

    c = Chart(1, 2, "builtin", b_func=b, db_func=db)
    with pytest.raises(InvalidInput):
        chart_to_dict(c)
