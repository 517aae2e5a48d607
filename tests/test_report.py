"""Tests for the verdict rule of VerificationReport: fail with a witness,
pass from an exact test, evidence-only otherwise."""

import dataclasses

import pytest

from skewfib.report import EVIDENCE, FAIL, PASS, VerificationReport

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
