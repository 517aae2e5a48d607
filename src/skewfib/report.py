"""Verification report structure shared by all checking routines.

Verdicts: "pass" for exact certificates (pencil and eigenvalue tests),
"fail" for any detected violation, and "evidence-only" when a sampled
search found no violation.  Sampling can refute but never certify, so a
clean sampled run is evidence, not proof.  No check states its verdict:
VerificationReport.verdict derives it from the report's own evidence, so
a "fail" always carries a witness and a "pass" always comes from a test
that recorded details["exact"].  Sample counts and radii are checked
where samples are drawn, in numeric.SampleStream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .numeric import Tolerance, is_singular, svd_screen

PASS = "pass"
FAIL = "fail"
EVIDENCE = "evidence-only"


def _plain(obj: Any) -> Any:
    """Recursively convert numpy values for JSON output."""
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


@dataclass(frozen=True)
class VerificationReport:
    check: str
    margin: float
    witnesses: tuple = ()
    sampling: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        """fail with a witness, else pass from an exact test, else evidence-only."""
        if self.witnesses:
            return FAIL
        return PASS if self.details.get("exact") is True else EVIDENCE

    @property
    def ok(self) -> bool:
        """No witness: the check found no violation."""
        return not self.witnesses

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "verdict": self.verdict,
            "margin": self.margin,
            "witnesses": _plain(list(self.witnesses)),
            "details": _plain(self.details),
        }
        if self.sampling is not None:
            out["sampling"] = _plain(self.sampling)
        return out


def sampled_report(
    check: str,
    stack: np.ndarray,
    sampling: dict,
    witness: Callable[[int, float], dict],
    details: Callable[[int], dict],
    tol: Tolerance,
    scale: np.ndarray | None = None,
) -> VerificationReport:
    """Verdict of a sampled search over an (N, r, c) stack of matrices.

    A sample's margin is its sigma_min, divided by its scale when one is
    given, and it is singular when its singular values, divided the same
    way, pass numeric.is_singular.  An r x c matrix with c > r has a
    kernel: its singular values are padded with c - r zeros, so its
    sigma_min is 0 and it is singular.  The report margin is the least margin,
    and details(i) gets the first index i attaining it.  Any singular
    sample makes the verdict "fail", with witness(i, sigma_min) for up to
    three singular samples of least margin; otherwise the run is
    evidence-only, unless details records an exact test.

    The singular values come from one np.linalg.svd call.  For a
    two-column stack, numeric.svd_screen first bounds every sample's
    sigma_max and sigma_min in closed form, widened by the rounding slack
    argued at numeric.SCREEN_SLACK, and keeps the candidates: the samples
    that can hold the least margin.  Every other sample's LAPACK margin is
    strictly larger, so the call on the candidates alone gives the margin
    and details(i) of the same first least sample, and the report equals
    the full stack's bit for bit.  Otherwise candidates_first sends the
    whole stack.
    """
    def decide(rows):
        idx = np.arange(len(stack))[rows]
        sv = np.linalg.svd(stack[rows], compute_uv=False)
        if stack.shape[2] > stack.shape[1]:
            sv = np.pad(sv, ((0, 0), (0, stack.shape[2] - stack.shape[1])))
        smin = sv[:, -1]
        if scale is not None:
            sv = sv / scale[rows][:, None]
        margins = sv[:, -1]
        singular = is_singular(sv, tol)
        worst = int(np.argmin(margins))
        order = np.argsort(np.where(singular, margins, np.inf))[:3]
        witnesses = tuple(witness(int(idx[i]), float(smin[i])) for i in order if singular[i])
        return VerificationReport(
            check, float(margins[worst]), witnesses, sampling, details(int(idx[worst]))
        )

    return candidates_first(svd_screen(stack, tol, scale), decide)


def candidates_first(
    keep: np.ndarray | None, decide: Callable[[Any], VerificationReport]
) -> VerificationReport:
    """The one fallback of the closed-form screens: decide(keep), the report
    on the screen's candidates, when the screen gave some and that report
    finds no violation, else decide(slice(None)), the report on the whole
    stack, so that every fail and its witness order come from it."""
    if keep is not None:
        rep = decide(keep)
        if rep.ok:
            return rep
    return decide(slice(None))
