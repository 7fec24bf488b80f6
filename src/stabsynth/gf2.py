"""GF(2) linear algebra: dense numpy matrices and int bitmask columns.

The matrix helpers take 2-D numpy arrays of dtype uint8 whose entries are
0 or 1; addition is XOR.  ``min_weight_solution`` instead takes each column
as a Python int bitmask, so its subset enumeration is plain int XOR.  These
helpers are deliberately small and allocation-light — the callers
(standard-form reduction, region resynthesis, port solving) run them
inside tight loops.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

__all__ = [
    "as_bits",
    "identity",
    "mat_mul",
    "row_echelon",
    "rank",
    "invertible",
    "solve",
    "min_weight_solution",
]


def as_bits(rows) -> np.ndarray:
    """Coerce a matrix-like (list of 0/1 iterables or bit strings) to uint8.

    Accepts strings like "0110" as rows for convenience in tests and code
    files.
    """
    if isinstance(rows, np.ndarray):
        return (rows.astype(np.uint8) & 1).copy()
    parsed = []
    for row in rows:
        if isinstance(row, str):
            parsed.append([int(c) for c in row])
        else:
            parsed.append([int(b) & 1 for b in row])
    return np.array(parsed, dtype=np.uint8)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2)."""
    return (a.astype(np.uint32) @ b.astype(np.uint32) % 2).astype(np.uint8)


def row_echelon(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot column indices.

    Works on a copy; does not permute columns.
    """
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


def rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    _, pivots = row_echelon(mat)
    return len(pivots)


def invertible(mat: np.ndarray) -> bool:
    rows, cols = mat.shape
    return rows == cols and rank(mat) == rows


def solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """One solution x of mat @ x = rhs over GF(2), or None if inconsistent.

    ``rhs`` may be a vector or a matrix (solved column-wise).
    """
    rhs = np.atleast_2d(rhs.astype(np.uint8))
    if rhs.shape[0] != mat.shape[0]:
        rhs = rhs.T
    aug = np.concatenate([mat.astype(np.uint8), rhs], axis=1)
    red, pivots = row_echelon(aug)
    ncols = mat.shape[1]
    # any pivot in the augmented part means inconsistency
    if any(p >= ncols for p in pivots):
        return None
    x = np.zeros((ncols, rhs.shape[1]), dtype=np.uint8)
    for r, c in enumerate(pivots):
        x[c] = red[r, ncols:]
    return x if x.shape[1] > 1 else x[:, 0]


def min_weight_solution(
    columns, target: int, max_weight: int | None = None
) -> list[int] | None:
    """Indices of a minimum-size subset of ``columns`` whose XOR is ``target``.

    Columns and target are int bitmasks.  Exhaustive by weight and
    deterministic: among equal-weight solutions the lexicographically
    smallest index tuple wins.  Returns ``[]`` for a zero target, and None
    when no subset of at most ``max_weight`` columns (default: all of them)
    works.  A target outside the columns' span is rejected by elimination
    before any subset is enumerated.
    """
    if not target:
        return []
    pivots: dict[int, int] = {}
    for col in columns:
        while col:
            top = col.bit_length() - 1
            if top not in pivots:
                pivots[top] = col
                break
            col ^= pivots[top]
    rest = target
    while rest:
        top = rest.bit_length() - 1
        if top not in pivots:
            return None
        rest ^= pivots[top]
    ncols = len(columns)
    if max_weight is None or max_weight > ncols:
        max_weight = ncols
    for w in range(1, max_weight + 1):
        for combo in combinations(range(ncols), w):
            acc = 0
            for i in combo:
                acc ^= columns[i]
            if acc == target:
                return list(combo)
    return None
