"""Tests for the admissible-dimension arithmetic (Hurwitz-Radon counts and tables)."""

import pytest

from skewfib.dims import (
    admissible_skew,
    admissible_sphere,
    format_skew_table,
    rho,
    skew_period,
    skew_table,
)
from skewfib.errors import InvalidInput

# independently recomputed period table for fiber dimensions 1..14
PERIODS = {
    1: 2, 2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 8,
    8: 16, 9: 32, 10: 64, 11: 64, 12: 128, 13: 128, 14: 128,
}

# admissible fiber dimensions for each ambient dimension 3..24, largest first
TABLE = {
    3: [1], 4: [], 5: [1], 6: [2], 7: [3, 1], 8: [], 9: [1], 10: [2],
    11: [3, 1], 12: [4], 13: [5, 1], 14: [6, 2], 15: [7, 3, 1], 16: [],
    17: [1], 18: [2], 19: [3, 1], 20: [4], 21: [5, 1], 22: [6, 2],
    23: [7, 3, 1], 24: [8],
}


def _rho_oracle(q: int) -> int:
    """Same count via plain trial division of the power of two."""
    a, rest = 0, q
    while rest % 16 == 0:
        a += 1
        rest //= 16
    b = 0
    while rest % 2 == 0:
        b += 1
        rest //= 2
    return 2 ** b + 8 * a


def test_rho_known_values():
    assert rho(1) == 1
    assert rho(2) == 2
    assert rho(4) == 4
    assert rho(8) == 8
    assert rho(12) == 4
    assert rho(16) == 9
    assert rho(32) == 10
    assert rho(48) == 9
    assert rho(128) == 16


def test_rho_matches_trial_division():
    for q in range(1, 10001):
        assert rho(q) == _rho_oracle(q), q


def test_rho_rejects_nonpositive():
    with pytest.raises(InvalidInput):
        rho(0)
    with pytest.raises(InvalidInput):
        rho(-4)


def test_skew_period_table():
    for k, period in PERIODS.items():
        assert skew_period(k) == period, k


def test_admissible_iff_period_divides():
    """Admissibility is periodic in n - k with period skew_period(k)."""
    for k in range(1, 15):
        p = skew_period(k)
        for n in range(k + 2, k + 257):
            expected = (n - k) % p == 0
            assert admissible_skew(k, n) == expected, (k, n)


def test_skew_table_frozen_values():
    table = skew_table(24)
    assert set(table) == set(range(3, 25))
    for n, ks in TABLE.items():
        assert table[n] == ks, n


def test_skew_table_agrees_with_predicate():
    table = skew_table(40)
    for n, ks in table.items():
        for k in range(1, n - 1):
            assert (k in ks) == admissible_skew(k, n), (k, n)


def test_admissible_sphere_cases():
    assert admissible_sphere(1, 3)
    assert not admissible_sphere(1, 4)
    assert admissible_sphere(3, 7)
    assert not admissible_sphere(3, 9)
    assert admissible_sphere(7, 15)
    assert not admissible_sphere(7, 23)
    assert not admissible_sphere(2, 6)
    assert not admissible_sphere(5, 13)


def test_sphere_implies_skew():
    for n in range(3, 130):
        for k in range(1, n - 1):
            if admissible_sphere(k, n):
                assert admissible_skew(k, n), (k, n)


def test_pair_validation():
    with pytest.raises(InvalidInput):
        admissible_skew(-1, 5)
    with pytest.raises(InvalidInput):
        admissible_skew(5, 5)
    with pytest.raises(InvalidInput):
        admissible_skew(6, 5)
    # k = 0 is the trivial fibration by points, always admissible
    assert admissible_skew(0, 5)
    assert admissible_sphere(0, 4)


def test_format_skew_table():
    text = format_skew_table(8)
    lines = text.splitlines()
    # header row of ambient dimensions plus one row per table depth
    assert len(lines) == 3
    assert lines[0].startswith("n")
    assert lines[1].startswith("k")
    # the n = 7 column lists 3 above 1
    col = lines[0].index(" 7")
    assert lines[1][col:col + 2].strip() == "3"
    assert lines[2][col:col + 2].strip() == "1"


def test_tables_cover_large_even_gaps():
    # ambient dimensions that admit no skew fibration at all
    for n in (4, 8, 16):
        assert skew_table(16)[n] == []
    assert skew_table(32)[32] == []
