"""Synthesis of CNOT networks from their GF(2) transfer matrices.

A circuit made only of CX gates acts linearly on computational basis
labels: tracking each qubit's bit as a row vector, CX(c, t) adds row c
into row t.  The whole block is therefore summarised by an invertible
matrix over GF(2), and conversely any invertible matrix can be realised
as a CNOT network.  This module converts between the two representations
and offers two synthesis strategies: a deterministic Gaussian-elimination
routine and a budgeted iterative-deepening search for short realisations.

Matrices are ``gf2`` int rows: row ``i`` is the bit carried by qubit
``i + 1`` as an int whose most significant of ``n`` bits is qubit 1's
input, so column ``w - 1`` (qubit ``w``) is bit ``n - w``.  The
synthesis routines accept anything ``gf2.as_bits`` accepts.
"""

from __future__ import annotations

from .circuit import Gate
from .gf2 import as_bits, invertible

__all__ = [
    "DEFAULT_SEARCH_BUDGET",
    "block_to_matrix",
    "care_mask",
    "gaussian_ops",
    "search_ops",
]

DEFAULT_SEARCH_BUDGET = 50_000


def _identity(n):
    return [1 << (n - 1 - i) for i in range(n)]


def block_to_matrix(gates, n):
    """Transfer matrix of a CX-only gate sequence on ``n`` qubits.

    Row ``i`` of the result expresses the final bit carried by qubit
    ``i + 1`` as a GF(2) combination of the input bits.  Gates are applied
    in circuit order; anything other than a CX raises ``ValueError``
    because only CNOT networks are linear in this sense, and so does a
    gate on a qubit outside 1..n.
    """
    m = _identity(n)
    for gate in gates:
        if gate.kind != "CX":
            raise ValueError(
                f"block_to_matrix needs a CX-only sequence, found {gate.kind}"
            )
        c, t = gate.q
        if not (1 <= c <= n and 1 <= t <= n):
            raise ValueError(f"{gate} acts outside qubits 1..{n}")
        m[t - 1] ^= m[c - 1]
    return tuple(m)


def _square_rows(matrix):
    """Int rows of ``matrix``, checked to be square and invertible.

    A row given as bits must have one entry per row of the matrix; a row
    given as an int carries no width, so it must only fit in that many
    bits.
    """
    rows = tuple(matrix)
    n = len(rows)
    for i, row in enumerate(rows):
        if row >> n if isinstance(row, int) else len(row) != n:
            raise ValueError(
                f"expected a square matrix, got {n} rows and row {i} "
                f"not {n} columns wide"
            )
    rows = as_bits(rows)
    if not invertible(rows):
        raise ValueError(
            "matrix is not invertible over GF(2); "
            "only reversible CNOT blocks can be resynthesized"
        )
    return rows


def gaussian_ops(matrix):
    """Realise ``matrix`` as a CX sequence by Gaussian elimination.

    The matrix is reduced to the identity by row additions — a downward
    sweep column by column, a three-addition exchange whenever a pivot is
    missing, then upward back-substitution from the last column — and the
    recorded additions are replayed in reverse as CX gates.  The result is
    deterministic and lands on the identity matrix as an empty sequence.
    """
    m = list(_square_rows(matrix))
    n = len(m)
    ops: list[tuple[int, int]] = []

    def add(src, dst):
        m[dst] ^= m[src]
        ops.append((src, dst))

    for j in range(n):
        bit = 1 << (n - 1 - j)
        if not m[j] & bit:
            i = next(i for i in range(j + 1, n) if m[i] & bit)
            add(i, j)
            add(j, i)
            add(i, j)
        for i in range(j + 1, n):
            if m[i] & bit:
                add(j, i)
    for j in range(n - 1, -1, -1):
        bit = 1 << (n - 1 - j)
        for i in range(j - 1, -1, -1):
            if m[i] & bit:
                add(j, i)
    return tuple(Gate("CX", (c + 1, t + 1)) for c, t in reversed(ops))


def care_mask(n, zero_columns=()):
    """Row mask of the columns not named in ``zero_columns``.

    ``zero_columns`` holds 1-based qubits whose input bit is known to be
    zero; their columns are don't-cares and their bits are cleared.
    """
    mask = (1 << n) - 1
    for w in zero_columns:
        if not 1 <= w <= n:
            raise ValueError(f"zero_columns entry {w} outside 1..{n}")
        mask &= ~(1 << (n - w))
    return mask


def _pack_state(rows, n):
    """One int per matrix: packed row ``i`` at bits ``[i*n, (i+1)*n)``."""
    state = 0
    for i, row in enumerate(rows):
        state |= row << (i * n)
    return state


def _gate_key(gates):
    return tuple(g.q for g in gates)


def search_ops(matrix, *, budget=DEFAULT_SEARCH_BUDGET, witness=None,
               zero_columns=()):
    """Budgeted iterative-deepening search for a short CX realisation.

    Gate sequences are explored depth-first in ascending (control, target)
    order under an f = depth + h bound, where h counts the rows that still
    differ from the target — admissible because one CX rewrites exactly
    one row.  A per-iteration transposition table prunes revisits and
    ``budget`` caps node expansions across all iterations.  The first
    solution found is the shortest, and among equally short sequences the
    first in depth-first order.  Whenever the search is exhausted or the
    budget runs out, the best known realisation — a verified ``witness``
    if one was supplied, otherwise the Gaussian circuit — is returned, so
    the result is never longer than Gaussian elimination.

    ``zero_columns`` names qubits (1-based) whose input bit is known to be
    zero when the block runs.  Their columns become don't-cares: the
    search may return a sequence whose matrix differs from ``matrix`` in
    those columns, since the difference never reaches any state the block
    actually sees.  A witness only needs to agree on the other columns.

    A search state is one int: matrix row ``i`` sits at bits
    ``[i*n, (i+1)*n)``, so CX(c, t) is a shift, a mask and an XOR, and the
    transposition table is keyed by that int.  A child differs from its
    parent only in row t, so its h is the parent's h corrected by row t
    alone, and the goal test is ``h == 0``: each child costs O(1) where
    rebuilding a row tuple and recounting h cost O(n).  For the same
    reason one list of masked row differences serves the whole search: it
    is updated at row t on the way into a child and restored on the way
    out.  Children are goal- and bound-tested inline, which is exactly
    what a recursive call did first; a node is entered only when it is
    expanded, which is where the budget is charged.  The table holds only
    the children that pass the bound test: a child pruned at depth g + 1
    is pruned by the bound again at any later visit at the same or a
    greater depth, so its entry would only grow the table.  Expansion
    order and budget accounting are the same as a row-tuple search that
    records every child, node for node, including where the budget runs
    out.  The move undoing the last one needs no special case: its child
    is the parent, which the table already holds at a smaller depth.

    A frontier node (g + h == bound) leaves its children a slack of
    h - 1, and a child's h is h - 1 only when CX(c, t) fixes a differing
    row t, that is when row c equals row t's difference on the columns
    that matter; every other child has f = bound + 1 or bound + 2 and is
    pruned.  Every next bound a node returns is above ``bound`` and,
    unless the search ends first, reaches the iteration's minimum, so once
    a pruned child with f = bound + 1 has been seen, the next bound is
    bound + 1 whatever the rest of the iteration prunes.  From then on
    until the iteration ends, a frontier node indexes its differing rows
    by value, walks only the fixing children, in the same (control,
    target) order and with the same table, goal and budget handling, and
    returns bound + 1 without looking at the children it would only
    prune.  Those children are never entered or recorded, so the nodes
    expanded, the budget charged and the gates returned are unchanged;
    only the work per frontier node falls from O(n^2) to O(n).
    """
    goal_rows = _square_rows(matrix)
    n = len(goal_rows)
    if budget < 0:
        raise ValueError(f"search budget must be non-negative, got {budget}")
    mask = care_mask(n, zero_columns)

    fallback = gaussian_ops(goal_rows)
    if witness is not None:
        w = tuple(witness)
        got = block_to_matrix(w, n)
        if any((a ^ b) & mask for a, b in zip(got, goal_rows)):
            raise ValueError("witness does not realize the target matrix")
        if (len(w), _gate_key(w)) < (len(fallback), _gate_key(fallback)):
            fallback = w

    shifts = [i * n for i in range(n)]
    start = _pack_state(_identity(n), n)
    # diff[t]: row t's masked difference from the target at the current node
    diff = [(a ^ r) & mask for a, r in zip(_identity(n), goal_rows)]
    h_start = sum(d != 0 for d in diff)
    if h_start == 0:
        return ()

    row_bits = (1 << n) - 1
    # cx[c][t] is CX(c + 1, t + 1); moves[c] lists (t, shift of row t, gate)
    # in ascending t.
    cx = [[Gate("CX", (c + 1, t + 1)) if t != c else None for t in range(n)]
          for c in range(n)]
    moves = [[(t, shifts[t], cx[c][t]) for t in range(n) if t != c]
             for c in range(n)]

    upper = len(fallback)
    spent = 0
    settled = False  # a pruned child with f == bound + 1 was seen
    path: list[Gate] = []

    def dfs(state, g, h, bound, seen):
        """Expand ``state`` (h > 0, g + h <= bound).

        Returns (found, next_bound); raises _Exhausted when out of budget.
        """
        nonlocal spent, settled
        spent += 1
        if spent > budget:
            raise _Exhausted
        g1 = g + 1
        slack = bound - g1
        if settled and slack < h:
            # Frontier node, next bound settled: only the children fixing a
            # differing row (row c & mask == diff[t]) pass the bound.
            fixes = {}
            for t, d in enumerate(diff):
                if d:
                    fixes.setdefault(d, []).append(t)
            for c in range(n):
                row = (state >> shifts[c]) & row_bits
                care = row & mask
                for t in fixes.get(care, ()):
                    if t == c:
                        continue
                    child = state ^ (row << shifts[t])
                    prev = seen.get(child)
                    if prev is not None and prev <= g1:
                        continue
                    path.append(cx[c][t])
                    if h == 1:
                        return True, bound
                    seen[child] = g1
                    diff[t] = 0
                    found, _ = dfs(child, g1, h - 1, bound, seen)
                    if found:
                        return True, bound
                    diff[t] = care
                    path.pop()
            return False, bound + 1
        nxt = None
        for c in range(n):
            row = (state >> shifts[c]) & row_bits
            care = row & mask
            for t, shift, gate in moves[c]:
                child = state ^ (row << shift)
                prev = seen.get(child)
                if prev is not None and prev <= g1:
                    continue
                d = diff[t]
                hc = h - (d != 0) + (d != care)
                if hc == 0:
                    path.append(gate)
                    return True, bound
                if hc > slack:
                    fb = g1 + hc
                    if fb == bound + 1:
                        settled = True
                else:
                    seen[child] = g1
                    path.append(gate)
                    diff[t] = d ^ care
                    found, fb = dfs(child, g1, hc, bound, seen)
                    if found:
                        return True, bound
                    diff[t] = d
                    path.pop()
                if nxt is None or fb < nxt:
                    nxt = fb
        return False, bound + 1 if nxt is None else nxt

    bound = h_start
    try:
        while bound < upper:
            settled = False
            found, nxt = dfs(start, 0, h_start, bound, {start: 0})
            if found:
                return tuple(path)
            if nxt <= bound:
                break
            bound = nxt
    except _Exhausted:
        pass
    return fallback


class _Exhausted(Exception):
    """Internal signal: the node budget ran out mid-iteration."""
