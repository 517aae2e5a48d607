"""Tests for the shared numeric kernel: tolerances, sampling, linear algebra helpers,
and the overflow guard that every library entry point runs under."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from skewfib.bilinear import J2, BilinearMap, hurwitz_radon_family, verify_nonsingular
from skewfib.contact import contact_check, contact_checks, contact_form
from skewfib.dims import skew_period, skew_table
from skewfib.errors import InvalidInput, RankDeficient
from skewfib.fibration import (
    Chart,
    ConeProbe,
    builtin_chart,
    chart_from_dict,
    continuity_probe,
    extend_germ,
    fiber_containing_direction,
    fiber_plane,
    fiber_solve,
    limiting_direction,
    sample_fibers,
    verify_nondegenerate,
    verify_skew,
)
from skewfib.grassmann import (
    AffinePlane, GreatSphere, OrientedPlane, intersection_dim, plane_from_columns, skew_pair,
)
from skewfib.numeric import (
    SampleStream,
    Tolerance,
    eigenvalues,
    finite_array,
    jacobian,
    norm,
    oriented_q,
    orthonormalize,
    overflow_is_invalid,
    pow2_scaled,
    real_eigenvalue_mask,
    row_norms,
    spherical_distance,
    unit,
)
from skewfib.sphere import (
    assemble_great_circles,
    central_project,
    completion_check,
    equator_restriction,
    invariant_on_planes,
    inverse_project,
    plane_residual,
    sphere_fiber_direction,
)

RNG_SEED = 1234


def test_tolerance_defaults():
    tol = Tolerance.default()
    assert tol.rel == 1e-8
    assert tol.abs == 1e-12
    assert tol.threshold(1.0) == 1e-8 + 1e-12
    assert tol.threshold(100.0) == 1e-8 * 100.0 + 1e-12


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("SKEWFIB_TOL", "1e-3")
    tol = Tolerance.default()
    assert tol.rel == 1e-3
    monkeypatch.setenv("SKEWFIB_TOL", "1e-4,1e-10")
    tol = Tolerance.default()
    assert tol.rel == 1e-4 and tol.abs == 1e-10
    monkeypatch.delenv("SKEWFIB_TOL")
    assert Tolerance.default().rel == 1e-8
    monkeypatch.setenv("SKEWFIB_TOL", "banana")
    with pytest.raises(InvalidInput):
        Tolerance.default()


def test_tolerance_rejects_bad_values():
    with pytest.raises(InvalidInput):
        Tolerance(rel=-1e-9, abs=1e-12)
    with pytest.raises(InvalidInput):
        Tolerance(rel=1e-9, abs=float("nan"))


def test_tolerance_rejects_infinite_values(monkeypatch):
    with pytest.raises(InvalidInput):
        Tolerance(rel=float("inf"))
    with pytest.raises(InvalidInput):
        Tolerance(abs=float("inf"))
    monkeypatch.setenv("SKEWFIB_TOL", "inf")
    with pytest.raises(InvalidInput):
        Tolerance.default()


def test_sample_stream_deterministic():
    """Same seed and mode must reproduce draws bit for bit."""
    for mode in ("pseudo-random", "low-discrepancy"):
        a = SampleStream(seed=7, mode=mode).unit_vectors(50, 5)
        b = SampleStream(seed=7, mode=mode).unit_vectors(50, 5)
        assert np.array_equal(a, b)
        c = SampleStream(seed=8, mode=mode).unit_vectors(50, 5)
        assert not np.array_equal(a, c)


def test_sample_stream_prefix_stable():
    """Asking for more points must not change the points already drawn."""
    for mode in ("pseudo-random", "low-discrepancy"):
        short = SampleStream(seed=3, mode=mode).ball_points(100, 4, 2.0)
        long = SampleStream(seed=3, mode=mode).ball_points(1000, 4, 2.0)
        assert np.array_equal(short, long[:100])


def test_sample_stream_builds_its_generator_on_the_first_draw(monkeypatch):
    """A stream that only records its sampling builds no generator; one
    that draws builds it once, and its points are the seeded PCG64
    normals, divided by their norms, as they were when the generator was
    built with the stream."""
    built = []
    pcg64 = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda seed: built.append(seed) or pcg64(seed))
    streams = {mode: SampleStream(seed=3, mode=mode) for mode in SampleStream.MODES}
    for stream in streams.values():
        stream.sampling(64, 2.0)
    assert built == []
    drawn = streams["pseudo-random"].unit_vectors(300, 4)
    streams["pseudo-random"].unit_vectors(5, 4)
    assert built == [3]
    gen, chunks = np.random.Generator(pcg64(3)), []
    for _ in range(2):  # a chunk is 256 points: their normals, then one uniform each
        chunks.append(gen.standard_normal((256, 4)))
        gen.random(256)
    g = np.vstack(chunks)[:300]
    assert np.array_equal(drawn, g / np.linalg.norm(g, axis=1, keepdims=True))
    later = streams["low-discrepancy"].ball_points(100, 4, 2.0)
    fresh = SampleStream(seed=3, mode="low-discrepancy").ball_points(100, 4, 2.0)
    assert np.array_equal(later, fresh)


# sha256 prefixes of _golden_draws per mode and dimension (numpy 2.4,
# x86-64 Linux): a draw that moves by one bit changes its digest
_GOLDEN_DRAWS = {
    "pseudo-random": {
        1: "321cd48d8bdc4349", 2: "3b2449ccf6325070", 3: "e8102bbb4782e580",
        4: "6773e381580e19eb", 5: "5a83ac0948101e5d", 6: "d94995c3db37d565",
        7: "dd7d4867199eef37", 8: "4cc25d7a36df047f", 9: "ad8d04848cc86eb3",
        16: "c3ec9206e27a803d",
    },
    "low-discrepancy": {
        1: "aa8b1d445758343f", 2: "3245ae1fef7f65a1", 3: "b566a06c3b5ce50f",
        4: "73c913bbc210541b", 5: "bb02a5e2a4b2fc03", 6: "d83806a2199350ab",
        7: "f28fbae85e98446a", 8: "6d1c8fe8517f475f", 9: "3c930ae9e8bf48d2",
        16: "d0b7b4f05c5a8f79",
    },
}


def _golden_draws(mode: str, dims: int) -> str:
    """Digest of unit_vectors, ball_points and pairs_in_ball at counts 1,
    255, 256, 257 and 2,000, drawn in turn from one stream per seed 0, 7."""
    digest = hashlib.sha256()
    for seed in (0, 7):
        stream = SampleStream(seed, mode)
        for count in (1, 255, 256, 257, 2000):
            for arr in (stream.unit_vectors(count, dims), stream.ball_points(count, dims, 2.5),
                        *stream.pairs_in_ball(count, dims, 0.75)):
                digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("mode", SampleStream.MODES)
def test_sample_stream_golden_draws(mode):
    """Every draw keeps its bits: both modes, dims 1 to 9 and 16, counts on
    both sides of a chunk boundary, and draws that continue a stream."""
    assert {dims: _golden_draws(mode, dims) for dims in _GOLDEN_DRAWS[mode]} == _GOLDEN_DRAWS[mode]


def test_sample_stream_rejects_a_negative_seed(monkeypatch):
    """A negative seed is an input error when the stream is built, in both
    modes, before any generator is."""
    built = []
    pcg64 = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda seed: built.append(seed) or pcg64(seed))
    for mode in SampleStream.MODES:
        with pytest.raises(InvalidInput, match="seed >= 0"):
            SampleStream(-1, mode)
    assert built == []


@pytest.mark.parametrize("dims", [63, 64, 200])
def test_low_discrepancy_draws_in_any_dimension(dims):
    """Beyond 62 dimensions the lattice takes more phases from the stream's
    own generator: its points are finite unit vectors and prefix-stable."""
    short = SampleStream(seed=3, mode="low-discrepancy").unit_vectors(100, dims)
    long = SampleStream(seed=3, mode="low-discrepancy").unit_vectors(600, dims)
    assert short.shape == (100, dims) and np.isfinite(long).all()
    assert np.allclose(np.linalg.norm(long, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(short, long[:100])


def test_sample_stream_geometry():
    stream = SampleStream(seed=RNG_SEED)
    u = stream.unit_vectors(200, 6)
    assert u.shape == (200, 6)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
    b = stream.ball_points(200, 3, 5.0)
    assert b.shape == (200, 3)
    assert np.all(np.linalg.norm(b, axis=1) <= 5.0 + 1e-12)
    x, y = stream.pairs_in_ball(100, 4, 2.0)
    assert x.shape == y.shape == (100, 4)


def test_sample_stream_rejects_unknown_mode():
    with pytest.raises(InvalidInput):
        SampleStream(seed=0, mode="sobol")


def test_sample_stream_checks_every_count_and_radius():
    stream = SampleStream(seed=0)
    with pytest.raises(InvalidInput, match=r"need samples >= 1, got 0"):
        stream.unit_vectors(0, 3)
    with pytest.raises(InvalidInput, match=r"need samples >= 1, got -2"):
        stream.pairs_in_ball(-2, 3, 1.0)
    with pytest.raises(InvalidInput, match=r"need a finite sampling radius > 0, got -1.0"):
        stream.ball_points(5, 3, -1.0)
    for radius in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidInput, match="sampling radius"):
            stream.pairs_in_ball(5, 3, radius)
    with pytest.raises(InvalidInput, match=r"need samples >= 1, got 0"):
        stream.sampling(0)
    with pytest.raises(InvalidInput, match="sampling radius"):
        stream.sampling(5, 0.0)
    for count in (np.nan, np.inf, 2.5, 3.0):
        with pytest.raises(InvalidInput, match=r"^need an integer sample count, got "):
            stream.sampling(count)
    assert stream.sampling(np.int64(3))["count"] == 3
    # a rejected request draws nothing, so the stream stays where it was
    assert np.array_equal(stream.unit_vectors(4, 3), SampleStream(seed=0).unit_vectors(4, 3))


_COUNTED = {
    "verify_skew": lambda n: verify_skew(builtin_chart("hopf3"), samples=n),
    "verify_skew-sampled": lambda n: verify_skew(builtin_chart("gluck_yang", m=2), samples=n),
    "verify_nondegenerate": lambda n: verify_nondegenerate(builtin_chart("hopf3"), samples=n),
    "verify_nondegenerate-smooth": lambda n: verify_nondegenerate(builtin_chart("quad_germ"), samples=n),
    "completion_check": lambda n: completion_check(builtin_chart("hopf3"), samples=n),
    "verify_nonsingular": lambda n: verify_nonsingular(BilinearMap(2, 2, (np.eye(2), J2)), samples=n),
    "invariant_on_planes": lambda n: invariant_on_planes(J2, samples=n),
    "extend_germ": lambda n: extend_germ(builtin_chart("quad_germ"), samples=n),
}


@pytest.mark.parametrize("count", [np.nan, np.inf, 2.5])
@pytest.mark.parametrize("call", _COUNTED.values(), ids=_COUNTED.keys())
def test_sample_counts_must_be_integers(call, count):
    """A count that is not an integer is an input error at every sampled
    entry point: NaN passed the count < 1 test, so an exact verdict came
    back with a NaN count, and a sampled one raised a raw TypeError."""
    with pytest.raises(InvalidInput, match=r"^need an integer sample count, got "):
        call(count)


def test_orthonormalize_plain_cases():
    q = orthonormalize(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-14)
    # first column is only scaled, so it keeps its direction
    assert np.allclose(q[:, 0], [1.0, 0.0, 0.0], atol=1e-14)


def test_orthonormalize_idempotent():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        frame = rng.standard_normal((7, 3))
        q1 = orthonormalize(frame)
        q2 = orthonormalize(q1)
        assert np.max(np.abs(q2 - q1)) <= 1e-14


def test_orthonormalize_keeps_orientation():
    """Square frames keep the sign of their determinant."""
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        frame = rng.standard_normal((4, 4))
        if abs(np.linalg.det(frame)) < 1e-6:
            continue
        q = orthonormalize(frame)
        assert np.sign(np.linalg.det(q)) == np.sign(np.linalg.det(frame))


def test_orthonormalize_rank_deficient():
    frame = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(RankDeficient):
        orthonormalize(frame)


def test_orthonormalize_stack_matches_single_frames():
    rng = np.random.default_rng(RNG_SEED)
    frames = rng.standard_normal((6, 5, 2))
    q = orthonormalize(frames)
    for frame, qi in zip(frames, q):
        assert np.array_equal(qi, orthonormalize(frame))
    frames[4, :, 1] = 3.0 * frames[4, :, 0]
    with pytest.raises(RankDeficient):
        orthonormalize(frames)


def test_oriented_q_is_orthonormalize_without_gate():
    """Below the gate the two agree bit for bit.  A graph frame [I; B] has
    sigma_min >= 1, so only a tolerance of 1 or more makes orthonormalize
    reject it; oriented_q has no gate."""
    rng = np.random.default_rng(RNG_SEED)
    frames = rng.standard_normal((6, 5, 2))
    assert np.array_equal(oriented_q(frames), orthonormalize(frames))
    graph = np.vstack([np.eye(2), 1e-3 * rng.standard_normal((3, 2))])
    assert np.linalg.svd(graph, compute_uv=False)[-1] >= 1.0
    with pytest.raises(RankDeficient):
        orthonormalize(graph, Tolerance(abs=2.0))
    assert np.array_equal(oriented_q(graph), orthonormalize(graph))


def test_eigenvalues_known_spectra():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    eig = np.sort_complex(eigenvalues(rot))
    assert np.allclose(eig, [-1j, 1j], atol=1e-13)
    eig = np.sort_complex(eigenvalues(np.diag([2.0, 3.0])))
    assert np.allclose(eig, [2.0, 3.0], atol=1e-13)


def test_eigenvalues_real_two_by_two_component():
    """A 2 x 2 component with real eigenvalues, smaller first, with zero
    imaginary parts, from the quadratic formula."""
    m = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 5.0]])
    eig = eigenvalues(m)
    root = math.sqrt(8.25)
    assert eig.tolist() == [complex(2.5 - root), complex(2.5 + root), 5.0]
    assert np.allclose(np.sort(eig.real), np.sort(np.linalg.eigvals(m).real), atol=1e-13)


def _closed_form_2x2(a, b, c, d):
    """The quadratic formula on one 2 x 2 block, unscaled, in numpy scalars."""
    a, b, c, d = map(np.float64, (a, b, c, d))
    half_tr = 0.5 * (a + d)
    disc = (0.5 * (a - d)) ** 2 + b * c
    root = float(np.sqrt(abs(disc)))
    if disc >= 0.0:
        return [complex(half_tr - root), complex(half_tr + root)]
    return [complex(half_tr, -root), complex(half_tr, root)]


def test_eigenvalues_two_by_two_scaling_changes_no_bit_in_range():
    """Blocks whose entries lie within 2^+-500 take the quadratic formula
    unscaled; blocks beyond are scaled by a power of two, exactly, so the
    spectrum of 2^e M is 2^e times that of M, bit for bit."""
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(500):
        m = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-130, 130, (2, 2))
        assert eigenvalues(m).tolist() == _closed_form_2x2(*m.ravel())
    for _ in range(500):
        m = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3, 3, (2, 2))
        eig = eigenvalues(m)
        for e in (-1000, -600, -300, 300, 600, 1000):
            want = np.ldexp(eig.real, e) + 1j * np.ldexp(eig.imag, e)
            assert np.array_equal(eigenvalues(np.ldexp(m, e)), want), (m, e)


@pytest.mark.parametrize(
    "block",
    [[[-6.42e-182, -1.74e-133], [-7.74e-260, 1.01e-226]], [[0.0, 1e130], [1e-200, 0.0]]],
    ids=["tiny-diagonal", "unbalanced-off-diagonal"],
)
def test_eigenvalues_balance_the_off_diagonal_pair(block):
    """b and c enter the spectrum only through bc, so they are balanced by
    a power of two before the scale test: a large b no longer hides a
    block whose ((a - d) / 2)^2 underflows (the first block returned the
    double eigenvalue -3.21e-182), and an unscaled block whose bc is in
    range keeps its answer (+-1e-35 for the second)."""
    m = np.array(block)
    got = np.sort_complex(eigenvalues(m))
    want = np.sort_complex(np.linalg.eigvals(m).astype(complex))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("scale", [2.0**1000, 1e308, 2.0**-1000, 1e-300])
def test_eigenvalues_answer_at_the_ends_of_the_range(scale):
    """The 2 x 2 closed form neither overflows nor underflows to a wrong
    spectrum where the eigenvalues are representable."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rot = np.array([[1.0, -1.0], [1.0, 1.0]])
        assert eigenvalues(scale * rot).tolist() == [complex(scale, -scale), complex(scale, scale)]
        sym = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert eigenvalues(scale * sym).tolist() == [complex(0.5 * scale), complex(1.5 * scale)]


def test_eigenvalue_beyond_the_float_range_raises():
    """An eigenvalue that is not representable raises OverflowError from
    the scaled closed form, never comes back as inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            eigenvalues(1.5e308 * np.ones((2, 2)))


def test_eigenvalues_similarity_invariant():
    """Conjugating by an orthogonal matrix must not move the spectrum."""
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(25):
        m = rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = np.sort_complex(eigenvalues(m))
        b = np.sort_complex(eigenvalues(q.T @ m @ q))
        scale = np.linalg.norm(m, 2)
        assert np.max(np.abs(a - b)) <= 1e-8 * scale


def test_jacobian_exact_on_linear_maps():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(10):
        m = rng.standard_normal((4, 3))
        jac = jacobian(lambda ys: ys @ m.T, rng.standard_normal(3))
        assert np.max(np.abs(jac - m)) <= 1e-10 * (1.0 + np.max(np.abs(m)))


def test_jacobian_quadratic():
    def f(ys):
        return np.column_stack([ys[:, 0] ** 2, ys[:, 1]])

    jac = jacobian(f, np.array([1.0, 1.0]))
    assert np.allclose(jac, [[2.0, 0.0], [0.0, 1.0]], atol=1e-7)


def test_jacobian_rows_are_outputs():
    # map from R^2 to R^3, so the jacobian must be 3 x 2
    def f(ys):
        return np.column_stack([ys[:, 0], ys[:, 1], ys[:, 0] + ys[:, 1]])

    jac = jacobian(f, np.zeros(2))
    assert jac.shape == (3, 2)


def test_row_norms_match_numpy_bit_for_bit():
    """row_norms gives the bits of np.linalg.norm(a, axis=1) for 1 to 16
    columns, by one reduction below 16 rows and from 8 columns up and by
    column sums otherwise, on magnitudes from 1e-130 to 1e130; row i
    equals the N = 1 call, on 1 row and on both sides of the 16-row cut."""
    rng = np.random.default_rng(RNG_SEED)
    for p in range(1, 17):
        for scale in (1e-130, 1.0, 1e130):
            a = rng.standard_normal((3000, p)) * scale * np.exp(rng.uniform(-3.0, 3.0, (3000, p)))
            single = [row_norms(a[i : i + 1])[0] for i in range(50)]
            assert single == np.linalg.norm(a[:50], axis=1).tolist(), (p, scale)
            for rows in (15, 16, 17, 3000):
                got = row_norms(a[:rows])
                assert np.array_equal(got, np.linalg.norm(a[:rows], axis=1)), (p, scale, rows)
                assert got[:15].tolist() == single[:15], (p, scale, rows)


def test_jacobian_stack_matches_single_rows():
    rng = np.random.default_rng(RNG_SEED)

    def f(ys):
        # elementwise in each row, so a row's values do not depend on the stack
        y0, y1 = ys[:, 0], ys[:, 1]
        return np.stack([np.sin(y0) * y1, y0 ** 3, np.exp(0.1 * y1) - y0], axis=1)

    ys = rng.standard_normal((9, 2)) * np.array([[1.0], [10.0], [1e-3]] * 3)
    jac = jacobian(f, ys)
    assert jac.shape == (9, 3, 2)
    for i, y in enumerate(ys):
        assert np.array_equal(jac[i], jacobian(f, y))
        # one central difference per column, step 1e-5 (1 + |y|)
        h = 1e-5 * (1.0 + np.linalg.norm(y))
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            col = (f((y + step)[None]).ravel() - f((y - step)[None]).ravel()) / (2.0 * h)
            assert np.array_equal(jac[i][:, j], col)


def test_spherical_distance():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert spherical_distance(e1, e2) == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert spherical_distance(e1, -e1) == pytest.approx(np.pi, abs=1e-12)
    assert spherical_distance(e1, e1) <= 1e-12


def test_overflow_guard_keeps_message_and_caller_state():
    """The guard re-raises numpy's overflow, or a Python OverflowError, as
    InvalidInput with the same message, and leaves the caller's numpy error
    state as it found it."""

    @overflow_is_invalid
    def square(x):
        """docstring"""
        return x * x

    assert square.__name__ == "square" and square.__doc__ == "docstring"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInput, match="^overflow encountered in scalar multiply$"):
            square(np.float64(1e200))
        assert np.geterr()["over"] == "ignore"
    with pytest.raises(InvalidInput, match="^cannot convert float infinity to integer$"):
        overflow_is_invalid(int)(math.inf)


_HOPF3 = builtin_chart("hopf3")
# Skew, but left to sampling by the Gram test, which reads no radius.
_STRETCHED = Chart(1, 2, "linear", C=(np.array([[0.0, -4.0], [0.25, 0.0]]),))
_E1, _E2 = np.eye(3)[0], np.eye(3)[1]


def _line(base):
    return AffinePlane(OrientedPlane(np.eye(3)[:, :1]), np.asarray(base, dtype=float))


_OVERFLOWS = {
    "contact_form": lambda: contact_form(_HOPF3, np.array([1e200, 0.0])),
    "contact_check": lambda: contact_check(_HOPF3, np.array([1e200, 0.0])),
    "contact_checks": lambda: contact_checks(_HOPF3, np.array([[1e200, 0.0]])),
    "verify_skew": lambda: verify_skew(_STRETCHED, radius=1e200, samples=8),
    # I + t C has entries 1e310
    "fiber_solve": lambda: fiber_solve(
        builtin_chart("hopf_line", m=1, a=0.0, b=1e300), np.array([1e10, 1.0, 1.0])
    ),
    # the evaluation distance 1e8 |v| doubled overflows
    "limiting_direction": lambda: limiting_direction(_HOPF3, _E2, np.array([1e300, 0.0, 0.0])),
    "ConeProbe": lambda: ConeProbe(_E1, (1e308,), base=1e308 * _E1),
    # the eigenvalue 3e308 is beyond the float range
    "verify_nondegenerate": lambda: verify_nondegenerate(
        Chart(1, 2, "linear", C=(1.5e308 * np.ones((2, 2)),))
    ),
}


@pytest.mark.parametrize("call", _OVERFLOWS.values(), ids=_OVERFLOWS.keys())
def test_entry_points_reject_overflowing_input(call):
    """Finite input whose arithmetic overflows is an input error at every
    library entry point, never a warning, a verdict on inf or NaN (such as
    margin 0.0 for a chart whose true margin is positive), a result of
    zeros or a raw LinAlgError.  The message is numpy's, or math.ldexp's
    where a power-of-two scaled result is scaled back beyond the range."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="overflow|^math range error$"):
            call()


def test_entry_points_answer_where_the_answer_is_representable():
    """Inputs that once overflowed in a residual budget or an unscaled
    closed form, although their answers are representable."""
    huge = np.array([[1e308, -1e308], [1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # (I + t J)^-1 (t, 0) = (t, -t^2) / (1 + t^2)
        assert fiber_solve(_HOPF3, np.array([1e200, 1e200, 0.0])).tolist() == [1e-200, -1.0]
        y = fiber_solve(_HOPF3, np.array([0.5, 1.0, -2.0]))
        big = fiber_solve(_HOPF3, np.array([0.5, 2.0**1000, -(2.0**1001)]))
        assert np.array_equal(big, np.ldexp(y, 1000))
        rep = verify_nondegenerate(Chart(1, 2, "linear", C=(huge,)))
        assert rep.ok and rep.margin == 1e308
        rep = verify_nondegenerate(Chart(1, 2, "linear", C=(2.0**1000 * J2,)))
        assert rep.ok and rep.margin == 2.0**1000


def test_entry_points_keep_large_finite_results():
    """The guard leaves large but finite arithmetic alone: these results
    are the bits computed without it."""
    assert verify_skew(_STRETCHED, radius=1e150).margin == float.fromhex("0x1.000051ab53845p-2")
    rep = contact_check(_HOPF3, np.array([1e76, 0.0]))
    assert rep.det_margin == float.fromhex("0x1.fffffffffff19p-1") and rep.is_contact
    # |y|^2 and |(base, 1)|^2 overflow here, but unit scales before its norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ConeProbe(_E1, (1e200, 1e300)).t_values == (1e200, 1e300)
        # the two lines are parallel
        assert skew_pair(_line([0.0, 1e200, 0.0]), _line([0.0, 0.0, 1e200])) == (False, 0.0)


def test_finite_array_converts_and_checks_shape_and_entries():
    v = np.array([0.5, -1.0, 2.0])
    assert finite_array(v, (3,), "v") is v
    assert finite_array([1, 2], (2,), "v").dtype == float
    stack = finite_array([[1, 2], [3, 4], [5, 6]], (None, 2), "points")
    assert stack.shape == (3, 2) and stack.dtype == float
    assert finite_array(np.zeros((0, 2)), (None, 2), "points").shape == (0, 2)
    assert finite_array(np.eye(3), (None, None), "m").shape == (3, 3)
    # finite entries whose sum overflows
    big = [1.7e308, 1.7e308, -1.7e308]
    assert finite_array(big, (3,), "v").tolist() == big
    bad = [
        ([1.0, 2.0], (3,), "v shape (2,) != (3,)"),
        (np.zeros((2, 3)), (None, 2), "points shape (2, 3) != (N, 2)"),
        (np.zeros(2), (None, 2), "points shape (2,) != (N, 2)"),
        (5.0, (None,), "x shape () != (N,)"),
        (np.zeros((1, 2, 2)), (None, None), "m shape (1, 2, 2) != (N, N)"),
        ([1.0, np.nan], (2,), "v must be finite"),
        ([np.inf, -np.inf], (2,), "v must be finite"),
        ([1.7e308, 1.7e308, np.nan], (3,), "v must be finite"),
        ([[1.0, 0.0], [np.inf, 1.0]], (2, 2), "m must be finite"),
        (np.full((300, 2), -np.inf), (None, 2), "points must be finite"),
        (["a", 1.0], (2,), "v must be an array of numbers"),
        ([[1.0, 2.0], [3.0]], (None, 2), "points must be an array of numbers"),
        (1j, (None,), "x must be an array of numbers"),
        (None, (2,), "v shape () != (2,)"),
    ]
    for a, shape, message in bad:
        name = message.split(" ")[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput) as exc:
                finite_array(a, shape, name)
        assert str(exc.value) == message


_M2 = J2.tolist()
_WORDS2 = ["a", 1.0]
_WORDS3 = ["a", 1.0, 0.0]
_MATRIX_WORDS = [["a", -1.0], [1.0, 0.0]]
_PROBE = ConeProbe(_E1, (1e2,))
_NON_NUMERIC = {
    "fiber_solve": lambda: fiber_solve(_HOPF3, _WORDS3),
    "fiber_plane": lambda: fiber_plane(_HOPF3, _WORDS2),
    "fiber_containing_direction": lambda: fiber_containing_direction(_HOPF3, _WORDS3),
    "continuity_probe": lambda: continuity_probe(_HOPF3, _WORDS3, _PROBE),
    "limiting_direction-u": lambda: limiting_direction(_HOPF3, _WORDS3, np.zeros(3)),
    "limiting_direction-v": lambda: limiting_direction(_HOPF3, _E2, _WORDS3),
    "ConeProbe-ell": lambda: ConeProbe(_WORDS3, (1e2,)),
    "ConeProbe-base": lambda: ConeProbe(_E1, (1e2,), base=_WORDS3),
    "Chart-C": lambda: Chart(1, 2, "linear", C=[_MATRIX_WORDS]),
    "Chart-C-ragged": lambda: Chart(2, 2, "linear", C=[_M2, [[0.0, 1.0], [1.0]]]),
    "Chart-B0": lambda: Chart(1, 2, "affine", C=[_M2], B0=[["a"], [0.0]]),
    "Chart.B": lambda: _HOPF3.B(_WORDS2),
    "Chart.B-stack": lambda: _HOPF3.B([_WORDS2]),
    "Chart.dB": lambda: _HOPF3.dB(_WORDS2),
    "Chart.dB-ragged": lambda: _HOPF3.dB([[0.0, 1.0], [1.0]]),
    "sample_fibers": lambda: sample_fibers(_HOPF3, [_WORDS2]),
    "BilinearMap": lambda: BilinearMap(2, 2, (_M2, _MATRIX_WORDS)),
    "OrientedPlane": lambda: OrientedPlane([["a"], [0.0]]),
    "GreatSphere": lambda: GreatSphere([["a"], [0.0]]),
    "GreatSphere.points": lambda: GreatSphere(np.eye(3)[:, :2]).points([_WORDS2]),
    "AffinePlane": lambda: AffinePlane(OrientedPlane(np.eye(3)[:, :1]), _WORDS3),
    "contact_form": lambda: contact_form(_HOPF3, _WORDS2),
    "contact_form-ragged": lambda: contact_form(_HOPF3, [[0.0, 1.0], [1.0]]),
    "contact_check": lambda: contact_check(_HOPF3, _WORDS2),
    "contact_checks": lambda: contact_checks(_HOPF3, [_WORDS2]),
    "central_project": lambda: central_project(_WORDS2),
    "inverse_project": lambda: inverse_project(_WORDS2),
    "plane_residual-m": lambda: plane_residual(_MATRIX_WORDS, [1.0, 0.0]),
    "plane_residual-u": lambda: plane_residual(_M2, _WORDS2),
    "invariant_on_planes": lambda: invariant_on_planes(_MATRIX_WORDS),
    "sphere_fiber_direction-m": lambda: sphere_fiber_direction(_MATRIX_WORDS, [1.0, 0.0], 0.5),
    "sphere_fiber_direction-z": lambda: sphere_fiber_direction(_M2, _WORDS2, 0.5),
    "assemble_great_circles": lambda: assemble_great_circles(_MATRIX_WORDS),
    "assemble_great_circles-point": lambda: assemble_great_circles(_M2)(["a", 0.0, 0.0, 1.0]),
    "equator_restriction-m": lambda: equator_restriction(_MATRIX_WORDS, [1.0, 0.0]),
    "equator_restriction-u": lambda: equator_restriction(_M2, _WORDS2),
}


@pytest.mark.parametrize("call", _NON_NUMERIC.values(), ids=_NON_NUMERIC.keys())
def test_entry_points_reject_non_numeric_arrays(call):
    """An array that numpy cannot convert to float, a word among numbers or
    a ragged nest of lists, is an input error that names the argument at
    every library entry point, never numpy's raw ValueError or TypeError."""
    with pytest.raises(InvalidInput, match=r"^\w.* must be an array of numbers$"):
        call()


_CIRCLE = GreatSphere(np.eye(3)[:, :2])
_POINT_STACK_CALLS = {
    "Chart.B": (_HOPF3.B, _HOPF3.B([0.5, 1.0])),
    "Chart.B-smooth": (builtin_chart("quad_germ").B, builtin_chart("quad_germ").B([0.5, 1.0])),
    "Chart.dB": (_HOPF3.dB, _HOPF3.dB([0.5, 1.0])),
    "GreatSphere.points": (_CIRCLE.points, np.array([0.5, 1.0, 0.0])),
}


@pytest.mark.parametrize("call, good", _POINT_STACK_CALLS.values(), ids=_POINT_STACK_CALLS.keys())
def test_point_or_stack_methods_check_their_points(call, good):
    """Chart.B, Chart.dB and GreatSphere.points take one point or a stack of
    points, with the finite_array rule: NaN and inf raise InvalidInput
    without a warning, where NaN once came back as NaN and inf warned from
    matmul, and a wrong shape names the expected one."""
    for bad in ([np.nan, 0.0], [np.inf, 1.0], [[0.5, 1.0], [1.0, -np.inf]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=r"^\w.* must be finite$"):
                call(bad)
    for bad in ([1.0, 2.0, 3.0], [[[0.5, 1.0]]]):
        with pytest.raises(InvalidInput, match=r"^\w.* shape \(.*\) != \(2,\)$"):
            call(bad)
    with pytest.raises(InvalidInput, match=r"^\w.* shape \(1, 3\) != \(N, 2\)$"):
        call([[1.0, 2.0, 3.0]])
    # one point is row 0 of the one-row stack
    assert np.array_equal(call([0.5, 1.0]), good)
    assert np.array_equal(call([[0.5, 1.0], [0.5, 1.0]]), np.stack([good, good]))


_GUARDS = {
    "central_project": (lambda: central_project([1.0]), InvalidInput,
                        "need a vector with at least two coordinates"),
    "orthonormalize-vector": (lambda: orthonormalize(np.ones(3)), InvalidInput,
                              "orthonormalize expects n x k frames with k >= 1"),
    "orthonormalize-wide": (lambda: orthonormalize(np.ones((2, 3))), RankDeficient,
                            "frame of shape (2, 3) cannot have independent columns"),
    "eigenvalues": (lambda: eigenvalues(np.ones((2, 3))), InvalidInput,
                    "eigenvalues expects a square matrix"),
    "intersection_dim": (
        lambda: intersection_dim(plane_from_columns(np.eye(3)[:, :1]), plane_from_columns(np.eye(4)[:, :1])),
        InvalidInput, "planes live in different ambient dimensions",
    ),
    "sample_fibers": (lambda: sample_fibers(_HOPF3, np.zeros((1, 2)), steps=0), InvalidInput,
                      "need steps >= 1"),
    "Chart-kind": (lambda: Chart(1, 2, "spectral"), InvalidInput, "unknown chart kind 'spectral'"),
    "chart_from_dict": (lambda: chart_from_dict({"k": 1, "q": 2}), InvalidInput,
                        "chart data missing key 'kind'"),
    "unit_vectors": (lambda: SampleStream().unit_vectors(4, 0), InvalidInput, "need dims >= 1, got 0"),
    "hurwitz_radon_family": (lambda: hurwitz_radon_family(0, 1), InvalidInput,
                             "need q >= 1 and r >= 1, got q=0 r=1"),
    "skew_period": (lambda: skew_period(-1), InvalidInput, "need k >= 0, got -1"),
    "skew_table": (lambda: skew_table(2), InvalidInput, "need n_max >= 3, got 2"),
}


@pytest.mark.parametrize("call, error, message", _GUARDS.values(), ids=_GUARDS.keys())
def test_argument_guards_raise_library_errors(call, error, message):
    """Argument checks across the library, one row each, with the error
    class and message each raises."""
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_inverse_project_checks_the_shape_of_its_point():
    """A matrix is not a tangent-plane point: it once came back as the unit
    vector of its flattened entries and a 1."""
    with pytest.raises(InvalidInput, match=r"^tangent-plane point coordinates shape \(2, 2\) != \(N,\)$"):
        inverse_project(np.ones((2, 2)))
    assert inverse_project(np.zeros(0)).tolist() == [1.0]


def test_real_eigenvalue_mask_decides_as_the_plain_formula_in_range():
    """Where rel (1 + |lambda|) is finite the mask's bound has its bits, so
    every decision is the plain formula's, spectra at the threshold included."""
    rng = np.random.default_rng(RNG_SEED)
    n = 200_000
    re = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    for tol in (Tolerance(), Tolerance(rel=1e-10), Tolerance(rel=0.3)):
        bound = tol.rel * (1.0 + np.abs(re))
        for im in (
            rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n),
            bound * (1.0 + rng.uniform(-1e-15, 1e-15, n)),
            np.zeros(n),
        ):
            eig = re + 1j * im
            want = np.abs(im) <= tol.rel * (1.0 + np.abs(eig))
            assert np.array_equal(real_eigenvalue_mask(eig, tol), want)


def test_real_eigenvalue_mask_where_the_modulus_is_beyond_the_range():
    """1.5e308 +- 1.5e308 i has finite parts, but |lambda| overflows: the
    plain formula's bound is inf and calls the pair real."""
    eig = np.array([1.5e308 + 1.5e308j, 1.5e308 - 1.5e308j, 1.7e308 + 0j, -1.7e308 + 1e300j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert real_eigenvalue_mask(eig, Tolerance()).tolist() == [False, False, True, True]
    rot = 1.5e308 * np.array([[1.0, -1.0], [1.0, 1.0]])
    rep = verify_nondegenerate(Chart(1, 2, "linear", C=(rot,)))
    assert rep.verdict == "pass" and rep.margin == 1.5e308 and rep.witnesses == ()


def test_pow2_scaled_is_exact():
    rng = np.random.default_rng(RNG_SEED)
    for a in [rng.standard_normal((3, 2)) * 10.0 ** rng.uniform(-300, 300), np.array([1.0, -0.5]),
              np.array([5e-324, 0.0]), np.array([1.7e308])]:
        scaled, e = pow2_scaled(a)
        assert 0.5 <= np.abs(scaled).max() < 1.0
        assert np.array_equal(np.ldexp(scaled, e), a)
    scaled, e = pow2_scaled(np.zeros(3))
    assert e == 0 and not scaled.any()


def test_norm_is_np_linalg_norm_in_range():
    """Where v . v is in range (entries from 1e-130 to 1e130), norm gives
    the bits of np.linalg.norm(v)."""
    rng = np.random.default_rng(RNG_SEED)
    for size in range(1, 9):
        vs = rng.standard_normal((250, size)) * 10.0 ** rng.uniform(-130, 130, (250, size))
        for v in vs:
            assert norm(v) == float(np.linalg.norm(v))


@pytest.mark.parametrize("scale", [1e300, 1.7e308, 2.0**-500, 1e-300, 5e-324, 3e-320])
def test_norm_is_finite_correct_and_silent_at_the_ends_of_the_range(scale):
    """Under warnings as errors and with no guard, norm scales where v . v
    would overflow or underflow: |(0, -s)| = s, and |s (3, 4) / 5| and
    |s (1, 1) / sqrt(2)| are s to a few roundings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm(np.array([0.0, -scale])) == scale
        for v in (np.array([0.6, -0.8, 0.0]), np.full(2, math.sqrt(0.5))):
            got = norm(scale * v)
            assert math.isfinite(got) and abs(got - scale) <= 2.0**-51 * scale + 2e-323


def test_norm_beyond_the_float_range_raises():
    """A length that is not representable is an OverflowError, never inf,
    and the guard makes it an input error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            norm(np.array([1.5e308, 1.5e308]))
        with pytest.raises(InvalidInput):
            overflow_is_invalid(norm)(np.array([1.5e308, 1.5e308]))
    assert norm(np.zeros(3)) == 0.0


def test_unit_is_plain_division_in_range():
    """Where v / np.linalg.norm(v) computes without overflow (entries from
    1e-130 to 1e130), the power-of-two scaling changes none of its bits."""
    rng = np.random.default_rng(RNG_SEED)
    for size in range(1, 9):
        vs = rng.standard_normal((250, size)) * 10.0 ** rng.uniform(-130, 130, (250, size))
        for v in vs:
            assert np.array_equal(unit(v), v / np.linalg.norm(v))


@pytest.mark.parametrize("scale", [1e300, 1.7e308, 1e-300, 5e-324, 3e-320])
def test_unit_is_finite_and_unit_at_the_ends_of_the_range(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in ([0.5, 1.0, -0.75], [1.0, 0.0], [-1.0]):
            u = unit(scale * np.asarray(v))
            assert np.isfinite(u).all()
            assert abs(float(np.linalg.norm(u)) - 1.0) <= 2 * 2.0**-52
