"""Tests of the benchmark itself: corpus determinism, error accounting, tracer hygiene.

    python3 -m pytest bench -q
"""

import dataclasses
import os

import pytest

import corpus
import run
import tracer as tracing
from oracle import Oracle


@pytest.fixture(scope="module")
def mods():
    import sys

    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    return run.import_skewfib()


def _files(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload, mods, tmp_path):
    dirs = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = tmp_path / label
        d.mkdir()
        corpus.write_corpus(workload, seed, str(d), mods["cli"].main)
        dirs[label] = _files(str(d))
    assert dirs["a"] == dirs["b"]
    assert dirs["a"]["ops.json"] != dirs["c"]["ops.json"]


def _one_pass(workload, mods, root, plant=None):
    ops, runners = run.setup(workload, 3, str(root), mods, tracing.Tracer())
    if plant:
        plant()
    results, _, scale = run.run_pass(ops, runners)
    tally = run.Tally(Oracle(str(root)))
    tally.add(results, scale)
    return tally.failures, ops


def test_clean_pass_has_no_errors(mods, tmp_path):
    failures, ops = _one_pass("verify-linear", mods, tmp_path)
    assert failures == []
    assert any(op["expect"].get("verdict") == "fail" for op in ops)


def test_planted_wrong_margin_is_an_error(mods, tmp_path, monkeypatch):
    fib = mods["fibration"]
    honest = fib.verify_skew

    def inflated(*args, **kwargs):
        rep = honest(*args, **kwargs)
        return dataclasses.replace(rep, margin=rep.margin * 1.5 + 0.01)

    failures, _ = _one_pass("verify-linear", mods, tmp_path,
                            lambda: monkeypatch.setattr(fib, "verify_skew", inflated))
    assert failures and all("verify-skew" in why for why in failures)


def test_planted_wrong_exit_code_is_an_error(mods, tmp_path, monkeypatch):
    cli = mods["cli"]
    honest = cli.main
    failures, _ = _one_pass("verify-linear", mods, tmp_path,
                            lambda: monkeypatch.setattr(cli, "main", lambda argv: 1 - honest(argv)))
    assert any("exit code" in why for why in failures)


def test_planted_wrong_point_query_is_an_error(mods, tmp_path, monkeypatch):
    fib = mods["fibration"]
    honest = fib.fiber_solve
    failures, _ = _one_pass(
        "point-queries", mods, tmp_path,
        lambda: monkeypatch.setattr(fib, "fiber_solve", lambda c, x, tol=None: honest(c, x, tol) + 1e-6))
    assert any("fiber_solve" in why for why in failures)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_pass_restores_every_attribute(workload, mods, tmp_path):
    trc = tracing.Tracer()
    ops, runners = run.setup(workload, 5, str(tmp_path), mods, trc)
    assert tracing.wrapped_attributes() == []
    trc.install()
    try:
        wrapped = set(tracing.wrapped_attributes())
        results, _, scale = run.run_pass(ops, runners, trc)
        # outside an operation span the wrappers record nothing
        recorded = len(trc.spans)
        mods["fibration"].verify_skew(mods["fibration"].builtin_chart("hopf7"), samples=16)
        assert len(trc.spans) == recorded
    finally:
        trc.restore()
    assert tracing.wrapped_attributes() == []
    for site in ("skewfib.grassmann.orthonormalize", "skewfib.sphere.orthonormalize",
                 "skewfib.sphere.fiber_solve", "skewfib.contact.fiber_solve",
                 "skewfib.fibration.verify_nonsingular", "skewfib.sphere.verify_nonsingular",
                 "skewfib.fibration.Chart.B", "skewfib.fibration.Chart.dB",
                 "skewfib.numeric.Tolerance.default", "numpy.linalg.svd", "numpy.linalg.eigvals",
                 "numpy.linalg.solve", "numpy.linalg.qr"):
        assert site in wrapped
    tally = run.Tally(Oracle(str(tmp_path)))
    tally.add(results, scale)
    assert tally.failures == []
    assert tracing.summarize(trc.take())["spans"]["kernel.svd"]["calls"] > 0
