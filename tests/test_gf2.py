"""GF(2) linear algebra helpers."""

import ast
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabsynth import gf2


def test_as_bits_accepts_strings_and_lists():
    assert gf2.as_bits(["10", "01"]) == (0b10, 0b01)
    assert gf2.as_bits([[1, 0], [0, 1]]) == (0b10, 0b01)
    bits = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint8)
    assert gf2.as_bits(bits) == (0b110, 0b001)
    assert gf2.as_bits([0b101, "011", (1, 1, 1)]) == (0b101, 0b011, 0b111)


def test_rank_and_invertibility():
    assert gf2.rank(gf2.as_bits(["11", "11"])) == 1
    assert gf2.rank((0b1000, 0b0100, 0b0010, 0b0001)) == 4
    assert gf2.invertible(gf2.as_bits(["11", "01"]))
    assert not gf2.invertible(gf2.as_bits(["11", "11"]))
    # Two rows of width three are not square.
    assert not gf2.invertible(gf2.as_bits(["110", "011"]))


def test_solve_finds_a_solution_or_none():
    m = gf2.as_bits(["110", "011"])
    x = gf2.solve(m, [1, 0])
    assert x is not None
    assert [(row & x).bit_count() & 1 for row in m] == [1, 0]
    # An inconsistent system has no solution.
    assert gf2.solve(gf2.as_bits(["11", "11"]), [1, 0]) is None


# ---------------------------------------------------------------------------
# the int-row routines against the numpy elimination they replaced
#
# ``_reference_row_echelon`` and ``_reference_solve`` are the numpy
# ``row_echelon`` and ``solve`` that the int rows replaced, kept as a
# test-only reference and changed only in their names.


def _reference_row_echelon(mat):
    m = mat.copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + hits[0]
        if p != r:
            m[[r, p]] = m[[p, r]]
        # clear every other 1 in this column
        others = np.nonzero(m[:, c])[0]
        for q in others:
            if q != r:
                m[q] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def _reference_solve(mat, rhs):
    rhs = np.atleast_2d(rhs.astype(np.uint8))
    if rhs.shape[0] != mat.shape[0]:
        rhs = rhs.T
    aug = np.concatenate([mat.astype(np.uint8), rhs], axis=1)
    red, pivots = _reference_row_echelon(aug)
    ncols = mat.shape[1]
    # any pivot in the augmented part means inconsistency
    if any(p >= ncols for p in pivots):
        return None
    x = np.zeros((ncols, rhs.shape[1]), dtype=np.uint8)
    for r, c in enumerate(pivots):
        x[c] = red[r, ncols:]
    return x if x.shape[1] > 1 else x[:, 0]


def _bit_matrix(rows, ncols):
    return np.array(
        [[row >> (ncols - 1 - j) & 1 for j in range(ncols)] for row in rows],
        dtype=np.uint8,
    ).reshape(len(rows), ncols)


@st.composite
def _systems(draw):
    """Up to 9x9 systems, some rank-deficient, some inconsistent."""
    nrows = draw(st.integers(1, 9))
    ncols = draw(st.integers(1, 9))
    word = st.integers(0, (1 << ncols) - 1)
    rows = draw(st.lists(word, min_size=nrows, max_size=nrows))
    # Rows that repeat or combine earlier rows make the rank deficient.
    for i in range(1, nrows):
        kind = draw(st.sampled_from(("free", "free", "copy", "sum")))
        if kind == "copy":
            rows[i] = rows[draw(st.integers(0, i - 1))]
        elif kind == "sum":
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows[i] = rows[a] ^ rows[b]
    if draw(st.booleans()):  # consistent by construction
        x = draw(word)
        rhs = [(row & x).bit_count() & 1 for row in rows]
    else:
        rhs = draw(st.lists(st.integers(0, 1), min_size=nrows, max_size=nrows))
    return rows, ncols, rhs


@settings(max_examples=400, deadline=None)
@given(_systems())
def test_rank_and_solve_match_the_numpy_reference(system):
    rows, ncols, rhs = system
    mat = _bit_matrix(rows, ncols)
    _, pivots = _reference_row_echelon(mat)
    assert gf2.rank(rows) == len(pivots)
    want = _reference_solve(mat, np.array(rhs, dtype=np.uint8))
    got = gf2.solve(rows, rhs)
    if want is None:
        assert got is None
    else:
        assert got == gf2.as_bits([want])[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
))
def test_invertible_matches_the_numpy_reference(rows):
    n = len(rows)
    _, pivots = _reference_row_echelon(_bit_matrix(rows, n))
    assert gf2.invertible(rows) == (len(pivots) == n)


def test_solve_accepts_an_empty_system():
    assert gf2.solve((), ()) == 0


def test_gf2_linear_and_optimizer_import_no_numpy():
    root = Path(gf2.__file__).parent
    for name in (
        "gf2.py", "linear.py", "optimizer.py",
        "pauli.py", "symplectic.py", "syndrome.py", "encoder.py",
    ):
        imported = set()
        for node in ast.walk(ast.parse((root / name).read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
        assert "numpy" not in imported, name


def test_min_weight_solution():
    # x1 ^ x2 = 1 has the two weight-1 solutions; the helper must pick one.
    picks = gf2.min_weight_solution([0b1, 0b1], 0b1)
    assert picks is not None and len(picks) == 1
    # Both columns are 11, so 01 is outside their span.
    assert gf2.min_weight_solution([0b11, 0b11], 0b01) is None
    # A weight bound of 1 takes the first column equal to the target; below
    # 1 nothing solves a nonzero target, and a zero target needs nothing.
    assert gf2.min_weight_solution([0b01, 0b10, 0b10], 0b10, 1) == [1]
    assert gf2.min_weight_solution([0b01, 0b10], 0b11, 1) is None
    assert gf2.min_weight_solution([0b11], 0b11) == [0]
    assert gf2.min_weight_solution([0b11], 0b11, 0) is None
    assert gf2.min_weight_solution([0b11], 0b11, -1) is None
    assert gf2.min_weight_solution([], 0b1) is None
    assert gf2.min_weight_solution([0b1], 0, -1) == []


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
@given(
    _columns_and_target(),
    st.one_of(st.sampled_from([-1, 0, 1, None]), st.integers(-1, 10)),
)
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
