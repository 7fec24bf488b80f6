"""GF(2) linear algebra on int bit-rows.

A matrix is a tuple of Python ints, one per row, with column 0 as the most
significant bit: the row ``"0110"`` is the int ``0b0110``, and column
``j`` of an ``n``-column matrix is bit ``n - 1 - j``.  Addition is XOR, so
a row operation is one int XOR.  ``as_bits`` is the one conversion into
this layout.  One reduction keys pivot rows by their leading bit and
serves ``rank``, ``invertible``, ``solve`` and the elimination of
``min_weight_solution``, whose columns are int bitmasks in the same way.
These helpers are deliberately small and allocation-light — the callers
(standard-form checks, region resynthesis, port solving, the CLI frame
solve) run them inside tight loops.
"""

from __future__ import annotations

from itertools import combinations

__all__ = [
    "as_bits",
    "transpose",
    "rank",
    "invertible",
    "solve",
    "min_weight_solution",
]


def as_bits(rows) -> tuple[int, ...]:
    """Int rows of a matrix-like, column 0 as the most significant bit.

    A row may be an int (kept as it is), a bit string such as ``"0110"``
    or a sequence of 0/1 values; a 2-D numpy array is a sequence of such
    rows.
    """
    out = []
    for row in rows:
        if isinstance(row, int):
            out.append(row)
            continue
        bits = 0
        for b in row:
            bits = (bits << 1) | (int(b) & 1)
        out.append(bits)
    return tuple(out)


def transpose(rows, width: int) -> list[int]:
    """The ``width`` columns of ``rows`` as int rows, in this layout.

    Row i of the input is bit i of each column counted from the top, so a
    column of ``len(rows)`` bits has the first row as its leading bit.
    """
    if not rows:
        return [0] * width
    joined = 0
    for row in rows:
        joined = joined << width | row
    bits = format(joined, f"0{width * len(rows)}b")
    return [int(bits[j::width], 2) for j in range(width)]


def _reduce(row: int, pivots: dict[int, int]) -> int:
    """``row`` less the pivots of its leading bits, until one has none."""
    while row:
        pivot = pivots.get(row.bit_length() - 1)
        if pivot is None:
            break
        row ^= pivot
    return row


def _echelon(rows) -> dict[int, int]:
    """Pivot rows keyed by their leading bit.

    Each row is reduced by the pivots found before it; a row that reduces
    to zero depends on them and is dropped.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        row = _reduce(row, pivots)
        if row:
            pivots[row.bit_length() - 1] = row
    return pivots


def rank(rows) -> int:
    return len(_echelon(rows))


def invertible(rows) -> bool:
    """Whether ``rows`` is a square invertible matrix of width ``len(rows)``."""
    rows = tuple(rows)
    n = len(rows)
    return all(row >> n == 0 for row in rows) and rank(rows) == n


def solve(rows, rhs) -> int | None:
    """One x with ``parity(rows[i] & x) == rhs[i]`` for every i, or None.

    ``rhs`` holds one 0/1 value per row; x is an int in the rows' own
    layout (bit ``n - 1 - j`` is unknown ``j``).  Free unknowns are 0, so
    x is the solution the reduced row echelon form reads off.
    """
    # Each row carries its right-hand side as an extra lowest bit, so a
    # pivot on that bit alone is a row reading 0 = 1.
    pivots = _echelon(
        (row << 1) | (int(b) & 1) for row, b in zip(rows, rhs, strict=True)
    )
    if 0 in pivots:
        return None
    # y = x << 1 | 1 must have even parity against every pivot.  In
    # ascending order a pivot meets only bits of y already fixed below its
    # leading bit, which it then sets or leaves clear.
    y = 1
    for top in sorted(pivots):
        if (pivots[top] & y).bit_count() & 1:
            y |= 1 << top
    return y >> 1


def min_weight_solution(
    columns, target: int, max_weight: int | None = None
) -> list[int] | None:
    """Indices of a minimum-size subset of ``columns`` whose XOR is ``target``.

    Columns and target are int bitmasks.  Exact and deterministic: among
    equal-weight solutions the lexicographically smallest index tuple
    wins.  Returns ``[]`` for a zero target, and None when no subset of at
    most ``max_weight`` columns (default: all of them) works.

    Columns are eliminated in index order, each carrying the set of
    columns it is the XOR of.  A target outside their span is rejected
    there, before any subset is tried.  Otherwise every solution is the
    pivot columns' solution XOR some set of kernel vectors, one per
    dependent column, each holding that column and pivots only, so a set
    of k of them yields a solution of weight at least k.  Sets are tried
    by size up to the best weight so far: the cost grows with the number
    of dependent columns, not with all of them, though it stays
    exponential in the worst case.  A zero or repeated column
    takes no part: a minimum-weight solution holds no zero column and
    never two equal ones, and swapping in the first copy of a column makes
    it lexicographically smaller.
    """
    if not target:
        return []
    ncols = len(columns)
    bound = ncols if max_weight is None else min(max_weight, ncols)
    # A nonzero target needs at least one column, and one column must be
    # the target itself: the first such column is the smallest answer.
    if bound < 1:
        return None
    if bound == 1:
        return next(([i] for i, col in enumerate(columns) if col == target), None)
    # Row i is column i over the bit of index i: elimination XORs the
    # index bits along, and pivots key only the column part.
    pivots: dict[int, int] = {}
    kernel = []
    seen = set()
    for i, col in enumerate(columns):
        if col and col not in seen:
            seen.add(col)
            row = _reduce(col << ncols | 1 << i, pivots)
            if row >> ncols:
                pivots[row.bit_length() - 1] = row
            else:
                kernel.append(row)
    base = _reduce(target << ncols, pivots)
    if base >> ncols:
        return None
    best = None
    for k in range(len(kernel) + 1):
        if k > bound:
            break
        for combo in combinations(kernel, k):
            x = base
            for v in combo:
                x ^= v
            w = x.bit_count()
            if w > bound:
                continue
            # Equal sizes: the set holding the least index not in both wins.
            if best is None or w < bound or (x ^ best) & -(x ^ best) & x:
                best, bound = x, w
    if best is None:
        return None
    return [i for i in range(ncols) if best >> i & 1]
