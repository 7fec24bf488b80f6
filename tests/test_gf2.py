"""GF(2) linear algebra helpers."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabsynth import gf2


def test_as_bits_accepts_strings_and_lists():
    assert gf2.as_bits(["10", "01"]).tolist() == [[1, 0], [0, 1]]
    assert gf2.as_bits([[1, 0], [0, 1]]).dtype == np.uint8


def test_identity_and_mat_mul():
    eye = gf2.identity(3)
    m = gf2.as_bits(["110", "011", "001"])
    assert np.array_equal(gf2.mat_mul(m, eye), m)
    assert gf2.mat_mul(m, m).tolist() == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]


def test_rank_and_invertibility():
    assert gf2.rank(gf2.as_bits(["11", "11"])) == 1
    assert gf2.rank(gf2.identity(4)) == 4
    assert gf2.invertible(gf2.as_bits(["11", "01"]))
    assert not gf2.invertible(gf2.as_bits(["11", "11"]))


def test_row_echelon_reports_pivots():
    reduced, pivots = gf2.row_echelon(gf2.as_bits(["011", "110", "101"]))
    assert pivots == [0, 1]
    assert gf2.rank(reduced) == 2


def test_solve_finds_a_solution_or_none():
    m = gf2.as_bits(["110", "011"])
    rhs = np.array([1, 0], dtype=np.uint8)
    x = gf2.solve(m, rhs)
    assert x is not None
    assert np.array_equal((m @ x) % 2, rhs)
    # An inconsistent system has no solution.
    m2 = gf2.as_bits(["11", "11"])
    assert gf2.solve(m2, np.array([1, 0], dtype=np.uint8)) is None


def test_min_weight_solution():
    # x1 ^ x2 = 1 has the two weight-1 solutions; the helper must pick one.
    picks = gf2.min_weight_solution([0b1, 0b1], 0b1)
    assert picks is not None and len(picks) == 1
    # Both columns are 11, so 01 is outside their span.
    assert gf2.min_weight_solution([0b11, 0b11], 0b01) is None


def _brute_min_weight(columns, target):
    """Every subset by weight, lexicographic within a weight; no pruning."""
    for w in range(len(columns) + 1):
        for combo in combinations(range(len(columns)), w):
            acc = 0
            for i in combo:
                acc ^= columns[i]
            if acc == target:
                return list(combo)
    return None


@st.composite
def _columns_and_target(draw):
    """Up to 10 columns of 1-8 bits, with zero and repeated columns."""
    word = st.integers(0, (1 << draw(st.integers(1, 8))) - 1)
    columns = draw(st.lists(st.one_of(st.just(0), word), max_size=7))
    if columns:
        columns += draw(st.lists(st.sampled_from(columns), max_size=3))
    return columns, draw(word)


@settings(max_examples=300, deadline=None)
@given(_columns_and_target(), st.one_of(st.none(), st.integers(0, 10)))
def test_min_weight_solution_matches_brute_force(case, max_weight):
    columns, target = case
    want = _brute_min_weight(columns, target)
    got = gf2.min_weight_solution(columns, target, max_weight)
    if target == 0:
        assert got == []
    elif want is None or (max_weight is not None and len(want) > max_weight):
        assert got is None
    else:
        assert got == want
