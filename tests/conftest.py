"""Fixtures shared by the test modules."""

import pytest

from skewfib import numeric


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes numeric.singular_values see n usable CPUs."""

    def use(count: int) -> None:
        monkeypatch.setattr(numeric, "_cpus", lambda: count)

    return use
