"""Fixtures shared by the test modules."""

import pytest

from skewfib import numeric


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes numeric.singular_values see n usable CPUs.

    The test gets a thread pool of its own, shut down when it ends, so a
    pool sized for a pretended CPU count never serves another test.
    """
    monkeypatch.setattr(numeric, "_pool", None)

    def use(count: int) -> None:
        monkeypatch.setattr(numeric, "_cpus", lambda: count)

    yield use
    if numeric._pool is not None:
        numeric._pool.shutdown()
