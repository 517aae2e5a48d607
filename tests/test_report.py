"""Tests for the verdict rule of VerificationReport: fail with a witness,
pass from an exact test, evidence-only otherwise; and for sampled_report,
the one SVD step of every sampled verdict."""

import dataclasses

import numpy as np
import pytest

from skewfib.numeric import Tolerance, svd_screen
from skewfib.report import EVIDENCE, FAIL, PASS, VerificationReport, sampled_report

WITNESS = {"t": [1.0, 0.0], "sigma_min": 0.0}


@pytest.mark.parametrize("details", [{}, {"exact": True}, {"exact": False}, {"reason": "x"}])
def test_a_witness_is_a_fail_whatever_the_details(details):
    rep = VerificationReport("nonsingular", 0.0, (WITNESS,), None, details)
    assert rep.verdict == FAIL
    assert not rep.ok
    assert rep.to_dict()["verdict"] == FAIL


def test_an_exact_test_without_witnesses_passes():
    rep = VerificationReport("nonsingular", 1.0, (), {"seed": 0}, {"exact": True})
    assert rep.verdict == PASS
    assert rep.ok
    assert rep.to_dict()["verdict"] == PASS


@pytest.mark.parametrize(
    "details", [{}, {"exact": False}, {"exact": 1}, {"exact": "yes"}, {"sampled_margin": 1.0}]
)
def test_anything_else_is_evidence_only(details):
    rep = VerificationReport("skew", 1.0, (), {"seed": 0, "count": 8}, details)
    assert rep.verdict == EVIDENCE
    assert rep.ok


def test_the_verdict_cannot_be_set():
    rep = VerificationReport("skew", 1.0)
    assert rep.verdict == EVIDENCE
    with pytest.raises(TypeError):
        dataclasses.replace(rep, verdict=PASS)
    with pytest.raises(TypeError):
        VerificationReport("skew", PASS, 1.0, verdict=PASS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.verdict = PASS


TOL = Tolerance()


def _report(stack, scale):
    return sampled_report(
        "skew", stack, {"count": len(stack)},
        lambda i, smin: {"i": i, "sigma_min": smin}, lambda i: {"worst": i}, TOL, scale,
    )


def _one_svd_call(stack, scale):
    """margin, first worst index and witnesses from np.linalg.svd of the
    whole stack: up to three singular samples, least margin first."""
    sv = np.linalg.svd(stack, compute_uv=False)
    rel = sv if scale is None else sv / scale[:, None]
    singular = rel[:, -1] <= TOL.rel * rel[:, 0] + TOL.abs
    order = sorted(np.flatnonzero(singular), key=lambda i: rel[i, -1])[:3]
    worst = int(np.argmin(rel[:, -1]))
    return rel[worst, -1], worst, [{"i": int(i), "sigma_min": sv[i, -1]} for i in order]


def _with_singular(stack):
    """The stack with samples 5, 50, 100, 200 set to sigma_min / sigma_max
    = 8e-10, 1e-10, 4e-10, 2e-10: singular at the default tolerance, with
    distinct margins."""
    out = stack.copy()
    for i, ratio in zip((5, 50, 100, 200), (8e-10, 1e-10, 4e-10, 2e-10)):
        u, s, vt = np.linalg.svd(out[i], full_matrices=False)
        s[-1] = ratio * s[0]
        out[i] = (u * s) @ vt
    return out


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
@pytest.mark.parametrize(
    "shape", [(2, 2), (8, 2), (300, 2), (8, 8), (16, 9)], ids=["2x2", "8x2", "300x2", "8x8", "16x9"]
)
def test_sampled_report_equals_one_svd_call(shape, scaled):
    """Screened or not, the report is the whole stack's: the screen runs on
    exactly the two-column stacks of at most SCREEN_ROWS rows."""
    rng = np.random.default_rng(17)
    clean = rng.standard_normal((512, *shape))
    scale = rng.uniform(0.5, 2.0, len(clean)) if scaled else None
    screened = shape[1] == 2 and shape[0] <= 256
    assert (svd_screen(clean, TOL, scale) is not None) == screened
    for stack, verdict in ((clean, EVIDENCE), (_with_singular(clean), FAIL)):
        rep = _report(stack, scale)
        margin, worst, witnesses = _one_svd_call(stack, scale)
        assert rep.verdict == verdict
        assert rep.margin == margin and rep.details == {"worst": worst}
        assert list(rep.witnesses) == witnesses
        assert len(witnesses) == (3 if verdict == FAIL else 0)


@pytest.mark.parametrize("shape", [(2, 2), (8, 8)], ids=["2x2", "8x8"])
def test_sampled_report_raises_the_svd_error(shape):
    """A NaN sample sends the whole stack to LAPACK, which fails with the
    message of the one-call svd, also with overflow raising."""
    stack = np.random.default_rng(17).standard_normal((512, *shape))
    stack[300, 1, 0] = np.nan
    assert svd_screen(stack, TOL) is None
    with pytest.raises(np.linalg.LinAlgError) as one_call:
        np.linalg.svd(stack, compute_uv=False)
    with np.errstate(over="raise"), pytest.raises(np.linalg.LinAlgError) as report:
        _report(stack, None)
    assert str(report.value) == str(one_call.value) == "SVD did not converge"
