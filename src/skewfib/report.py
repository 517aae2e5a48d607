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

from .numeric import Tolerance, is_singular, singular_values, svd_screen

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

    The singular values come from numeric.singular_values, which spreads
    a large stack over the process's CPUs with the same values, bit for
    bit, as one np.linalg.svd call.  A sample's margin is its sigma_min,
    divided by its scale when one is given.  The report margin is the
    least margin, and details(i) gets the first index i attaining it.
    Any singular sample makes the verdict "fail", with witness(i,
    sigma_min) for up to three singular samples of least margin;
    otherwise the run is evidence-only, unless details records an exact
    test.  Stacks drawn at the sampled points of a smooth chart go through
    screened_report, which sends only the samples that can decide the
    report here.
    """
    sv = singular_values(stack)
    smin = sv[:, -1]
    singular = is_singular(sv, tol)
    margins = smin if scale is None else smin / scale
    worst = int(np.argmin(margins))
    order = np.argsort(np.where(singular, margins, np.inf))[:3]
    witnesses = tuple(witness(int(i), float(smin[i])) for i in order if singular[i])
    return VerificationReport(check, float(margins[worst]), witnesses, sampling, details(worst))


def screened_report(
    check: str,
    stack: np.ndarray,
    sampling: dict,
    witness: Callable[[int, float], dict],
    details: Callable[[int], dict],
    tol: Tolerance,
    scale: np.ndarray | None = None,
) -> VerificationReport:
    """sampled_report, with only the samples that can decide it sent to LAPACK.

    For a two-column stack, numeric.svd_screen bounds every sample's
    sigma_max and sigma_min in closed form from the columns' dot products
    (sigma_max^2 = (uu + dd) / 2 + hypot((uu - dd) / 2, c) and sigma_min =
    |c1| |p| / sigma_max), widens both by numeric.SCREEN_SLACK * sigma_max
    = 2^-40 sigma_max, about 4,096 eps of it, where the closed form is off
    by about 10 eps and LAPACK's backward error moves the singular values
    by a few, and keeps the candidates: the samples whose lower margin
    bound is <= the least upper one.  sampled_report then runs on the
    candidates alone.  Every other sample's LAPACK margin is strictly
    larger, so the margin and details(i) are those of the same first
    least sample, and the report equals the full stack's bit for bit.
    The whole stack goes to sampled_report, so that every fail and its
    witness order come from it, when an entry or bound is not finite,
    when some sample may be singular, or when a candidate turns out
    singular.
    """
    keep = svd_screen(stack, tol, scale)
    if keep is not None:
        rep = sampled_report(
            check, stack[keep], sampling,
            lambda i, smin: witness(int(keep[i]), smin), lambda i: details(int(keep[i])), tol,
            None if scale is None else scale[keep],
        )
        if rep.ok:
            return rep
    return sampled_report(check, stack, sampling, witness, details, tol, scale)
