"""The closed-form screens of sampled verdicts.

numeric.svd_screen and numeric.eig_screen send only the samples that can
hold a report's least margin to LAPACK.  Every report here is compared,
in to_dict() and so bit for bit, with the same call made with both
screens switched off, when every sample goes to LAPACK.
"""

import numpy as np
import pytest

from skewfib import fibration
from skewfib import report as rp
from skewfib.fibration import (
    Chart,
    builtin_chart,
    chart_to_dict,
    extend_germ,
    verify_nondegenerate,
    verify_skew,
)
from skewfib.numeric import SampleStream, Tolerance, eig_screen, svd_screen
from skewfib.sphere import completion_check
from test_sphere import _sin_square_db

TOL = Tolerance()
TINY_ABS = Tolerance(abs=1e-300)


@pytest.fixture
def unscreened(monkeypatch):
    """unscreened(f, *args, **kwargs) calls f with both screens off."""

    def call(f, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(rp, "svd_screen", lambda *a, **k: None)
            m.setattr(fibration, "eig_screen", lambda *a, **k: None)
            return f(*args, **kwargs)

    return call


def _stack_report(stack, scale=None, tol=TOL):
    return rp.sampled_report(
        "skew", stack, {"count": len(stack)},
        lambda i, smin: {"i": i, "sigma_min": smin}, lambda i: {"worst": i}, tol, scale,
    )


def _rotation_like(rng, count, noise=0.3):
    """2 x 2 matrices a I + b J plus noise, with complex eigenvalues."""
    a = rng.uniform(-2.0, 2.0, count)
    b = rng.uniform(0.5, 2.0, count) * rng.choice([-1.0, 1.0], count)
    mats = a[:, None, None] * np.eye(2) + b[:, None, None] * np.array([[0.0, -1.0], [1.0, 0.0]])
    return mats + noise * rng.uniform(-1.0, 1.0, (count, 2, 2))


def _near_threshold(count, tol):
    """Rotated diag(1, t) with t within 4 ulps of tol.threshold(1)."""
    t = tol.threshold(1.0)
    ts = [t]
    for _ in range(4):
        ts = [np.nextafter(ts[0], 0.0), *ts, np.nextafter(ts[-1], 1.0)]
    out = []
    for i in range(count):
        c, s = np.cos(0.1 * i), np.sin(0.1 * i)
        out.append(np.array([[c, -s], [s, c]]) @ np.diag([1.0, ts[i % len(ts)]]))
    return np.array(out)


def _rotations(count):
    angles = np.linspace(0.0, 3.0, count)
    c, s = np.cos(angles), np.sin(angles)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def _stacks():
    rng = np.random.default_rng(11)
    random = rng.standard_normal((1024, 2, 2))
    # equal singular values up to rounding: LAPACK's last bits pick the worst
    rotated = _rotations(200) @ random[0]
    tied = np.tile(rng.standard_normal((1, 2, 2)), (512, 1, 1))
    tall = rng.standard_normal((300, 5, 2))
    zero_first, zero_second = random[:64].copy(), random[:64].copy()
    zero_first[17, :, 0] = 0.0
    zero_second[40, :, 1] = 0.0
    mixed_scales = random * 10.0 ** rng.uniform(-150.0, 150.0, (1024, 1, 1))
    return {
        "random": random,
        "tied": tied,
        "tied-and-one-less": np.concatenate([tied, 0.5 * tied[:1], tied]),
        "tall": tall,
        "rotated-copies": rotated,
        "near-threshold": _near_threshold(9, TOL),
        "near-threshold-among-random": np.concatenate([random[:100], _near_threshold(9, TOL)]),
        # singular (sigma_min <= rel sigma_max), yet not of least sigma_min
        "singular-not-least": np.concatenate([random[:100], np.diag([1e10, 50.0])[None]]),
        "zero-first-column": zero_first,
        "zero-second-column": zero_second,
        "mixed-scales": mixed_scales,
        "one": random[:1],
        **{f"scale-1e{e}": random[:256] * 10.0**e for e in (-150, -120, -50, 50, 100, 150)},
    }


STACKS = _stacks()


@pytest.mark.parametrize("tol", [TOL, TINY_ABS], ids=["default", "tiny-abs"])
@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("name, stack", list(STACKS.items()), ids=list(STACKS))
def test_svd_screen_report_equals_full_stack(unscreened, name, stack, scaled, tol):
    scale = np.random.default_rng(3).uniform(0.5, 2.0, len(stack)) if scaled else None
    screened = _stack_report(stack, scale, tol)
    full = unscreened(_stack_report, stack, scale, tol)
    assert screened.to_dict() == full.to_dict()
    keep = svd_screen(stack, tol, scale)
    if name in ("random", "tall", "scale-1e50", "scale-1e150") or (
        name == "scale-1e-120" and tol is TINY_ABS
    ):
        assert keep is not None and len(keep) < 4
    if name.startswith("tied") and not scaled:
        # copies of one matrix send it once; the half-size copy decides alone
        assert keep.tolist() == ([0] if name == "tied" else [512])
    near = name.startswith("near-threshold") and tol is TOL
    if near or name.startswith(("zero", "singular")) or name == "scale-1e-150":
        assert keep is None  # may be singular, or too small to bound safely


@pytest.mark.parametrize("bad", [0.0, -1.0, 1e-320], ids=["zero", "negative", "subnormal"])
def test_svd_screen_sends_the_whole_stack_for_a_bad_scale(unscreened, bad):
    """A scale that is not positive, or so small that a bound divided by it
    is not finite, sends the whole stack, and the report is unchanged."""
    stack = STACKS["random"][:64]
    scale = np.ones(len(stack))
    assert svd_screen(stack, TOL, scale) is not None
    scale[5] = bad
    assert svd_screen(stack, TOL, scale) is None
    with np.errstate(all="ignore"):
        full = unscreened(_stack_report, stack, scale)
        assert _stack_report(stack, scale).to_dict() == full.to_dict()


def test_svd_screen_sends_one_row_stacks_whole():
    """A 1 x 2 matrix always has a kernel, so the screen leaves the stack
    to the padded sigma_min of report.sampled_report."""
    stack = np.random.default_rng(4).standard_normal((16, 1, 2))
    assert svd_screen(stack, TOL) is None
    rep = _stack_report(stack, np.ones(len(stack)))
    assert rep.verdict == "fail" and rep.margin == 0.0


def test_eig_screen_sends_other_shapes_whole():
    rng = np.random.default_rng(4)
    for shape in ((8, 3, 3), (8, 2, 3), (2, 2)):
        assert eig_screen(rng.standard_normal(shape), TOL) is None


def _preset_chart(mats):
    """A smooth line chart on R^2 whose dB at the i-th queried point is mats[i]."""
    db = np.ascontiguousarray(mats).reshape(-1, 2, 1, 2)
    return Chart(1, 2, "builtin", b_func=lambda ys: np.zeros((len(ys), 2, 1)),
                 db_func=lambda ys: db[: len(ys)])


def _eig_stacks():
    rng = np.random.default_rng(12)
    rot = _rotation_like(rng, 1024)
    real = rot[:64].copy()
    real[9] = np.diag([1.0, 2.0])
    # |Im lambda| = b within a few ulps of rel * (1 + |lambda|) = rel * (1 + b)
    b = TOL.rel / (1.0 - TOL.rel)
    near = np.array([[[0.0, -v], [v, 0.0]] for v in (b, np.nextafter(b, 0.0), np.nextafter(b, 1.0))])
    # equal eigenvalues up to rounding
    similar = _rotations(500) @ rot[0] @ _rotations(500).transpose(0, 2, 1)
    return {
        "rotation-like": rot,
        "similar-copies": similar,
        "tied": np.tile(rot[:1], (512, 1, 1)),
        "real-eigenvalue": real,
        "near-real": np.concatenate([rot[:50], near]),
        "one": rot[:1],
        **{f"scale-1e{e}": rot[:256] * 10.0**e for e in (-150, -50, 50, 150, 160)},
    }


EIG_STACKS = _eig_stacks()


@pytest.mark.parametrize("name, mats", list(EIG_STACKS.items()), ids=list(EIG_STACKS))
def test_eig_screen_report_equals_full_stack(unscreened, name, mats):
    c = _preset_chart(mats)
    screened = verify_nondegenerate(c, samples=len(mats), stream=SampleStream(0), tol=TOL)
    full = unscreened(verify_nondegenerate, c, samples=len(mats), stream=SampleStream(0), tol=TOL)
    assert screened.to_dict() == full.to_dict()
    keep = eig_screen(mats, TOL)
    if name in ("rotation-like", "scale-1e50", "scale-1e150"):
        assert keep is not None and len(keep) < 4
    if name in ("real-eigenvalue", "near-real", "scale-1e-150", "scale-1e160"):
        assert keep is None
    if name == "tied":
        assert keep.tolist() == [0]


def test_smooth_checks_equal_unscreened_on_germ_extensions(unscreened, monkeypatch):
    """verify_skew, verify_nondegenerate and completion_check on quad_germ
    extensions, over eps, radii and seeds; extend_germ, which runs the
    screened nondegeneracy check, returns the same chart."""
    kept = {"svd": [], "eig": []}
    for name, mod, screen in (("svd", rp, svd_screen), ("eig", fibration, eig_screen)):
        def record(*args, _name=name, _screen=screen, **kwargs):
            keep = _screen(*args, **kwargs)
            kept[_name].append((len(args[0]), None if keep is None else len(keep)))
            return keep
        monkeypatch.setattr(mod, f"{name}_screen", record)

    for eps in (0.02, 0.05, 0.1, 0.15, 0.3):
        germ = builtin_chart("quad_germ", eps=eps)
        for seed in range(6):
            ext = extend_germ(germ, seed=seed)
            ref = unscreened(extend_germ, germ, seed=seed)
            assert chart_to_dict(ext) == chart_to_dict(ref)
            for radius in (1e-3, 0.3, 10.0):
                for check in (verify_skew, verify_nondegenerate):
                    args = dict(radius=radius, stream=SampleStream(seed))
                    screened = check(ext, **args)
                    args["stream"] = SampleStream(seed)
                    assert screened.to_dict() == unscreened(check, ext, **args).to_dict()
            screened = completion_check(ext, stream=SampleStream(seed))
            full = unscreened(completion_check, ext, stream=SampleStream(seed))
            assert screened.to_dict() == full.to_dict()
    for name in ("svd", "eig"):
        pruned = [k for n, k in kept[name] if k is not None and k < n]
        assert len(pruned) >= len(kept[name]) // 2, name


FAIL_CHARTS = {
    "steep-extension": lambda: builtin_chart(
        "germ_extension", blend_r=1.0, base=builtin_chart("quad_germ", eps=1e10)
    ),
    "sin-square": lambda: Chart(
        1, 2, "builtin", b_func=lambda ys: np.stack([np.sin(ys[:, 0]), ys[:, 0] ** 2], 1)[..., None],
        db_func=_sin_square_db,
    ),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", list(FAIL_CHARTS))
def test_fail_reports_equal_unscreened(unscreened, name, seed):
    """Charts with singular samples: the same fails, with the same
    witnesses in the same order."""
    c = FAIL_CHARTS[name]()
    verdicts = []
    for check, kwargs in ((verify_skew, {"radius": 1.0}), (verify_nondegenerate, {"radius": 1.0}),
                          (completion_check, {})):
        screened = check(c, samples=300, stream=SampleStream(seed), **kwargs)
        full = unscreened(check, c, samples=300, stream=SampleStream(seed), **kwargs)
        assert screened.to_dict() == full.to_dict()
        verdicts.append(screened.verdict)
    assert "fail" in verdicts


def test_huge_germ_under_raising_errstate(unscreened):
    """Entries near 1e162 overflow the closed forms, which run with errors
    ignored: the report is the full stack's and nothing raises."""
    c = builtin_chart("quad_germ", eps=1e160)
    with np.errstate(over="raise", invalid="raise"):
        for check in (verify_skew, verify_nondegenerate, completion_check):
            screened = check(c, stream=SampleStream(7))
            full = unscreened(check, c, stream=SampleStream(7))
            assert screened.to_dict() == full.to_dict()


LINEAR_CHARTS = {
    "gluck-yang-m2": lambda: builtin_chart("gluck_yang", m=2),
    "gluck-yang-m3": lambda: builtin_chart("gluck_yang", m=3),
    "skew-not-clifford": lambda: Chart(1, 2, "linear", C=(np.array([[0.0, -4.0], [0.25, 0.0]]),)),
    "real-eigenvalues": lambda: Chart(1, 2, "linear", C=(np.array([[1.0, 2.0], [0.0, 3.0]]),)),
    "zero-k1": lambda: Chart(1, 2, "linear", C=(np.zeros((2, 2)),)),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", list(LINEAR_CHARTS))
def test_linear_skew_reports_equal_unscreened(unscreened, name, seed):
    """Line charts the Gram test leaves open sample two-column pair stacks,
    which the screen prunes: the report is the whole stack's."""
    c = LINEAR_CHARTS[name]()
    screened = verify_skew(c, stream=SampleStream(seed))
    full = unscreened(verify_skew, c, stream=SampleStream(seed))
    assert screened.to_dict() == full.to_dict()


def test_linear_skew_sends_few_pairs(monkeypatch):
    """Glueck-Yang m = 2 sends fewer than its 1,024 pairs to LAPACK."""
    svd, sizes = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rep = verify_skew(builtin_chart("gluck_yang", m=2))
    assert rep.details["pairs_tested"] == 1024 and rep.verdict == "evidence-only"
    assert sizes and max(sizes) < 1024
