"""CNOT-network synthesis: transfer matrices, elimination, budgeted search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabsynth import gf2, library, optimizer
from stabsynth.circuit import Gate
from stabsynth.encoder import synthesize_encoder
from stabsynth.linear import (
    _square_rows,
    block_to_matrix,
    gaussian_ops,
    search_ops,
)

IDENTITY_4 = gf2.as_bits(["1000", "0100", "0010", "0001"])


def test_block_to_matrix_tracks_row_additions():
    m = block_to_matrix([Gate("CX", (1, 2))], 2)
    assert m == (0b10, 0b11)
    m = block_to_matrix([Gate("CX", (1, 2)), Gate("CX", (2, 1))], 2)
    assert m == (0b01, 0b11)


def test_block_to_matrix_rejects_non_cx():
    with pytest.raises(ValueError, match="CX-only"):
        block_to_matrix([Gate("H", (1,))], 2)


def test_block_to_matrix_rejects_qubits_outside_the_register():
    outside = r"CX\(1,3\) acts outside qubits 1..2"
    with pytest.raises(ValueError, match=outside):
        block_to_matrix([Gate("CX", (1, 2)), Gate("CX", (1, 3))], 2)
    with pytest.raises(ValueError, match=r"CX\(8,1\) acts outside"):
        search_ops(gf2.as_bits(["10", "11"]), witness=[Gate("CX", (8, 1))])


def test_identity_needs_no_gates():
    assert gaussian_ops(IDENTITY_4) == ()
    assert search_ops(IDENTITY_4, budget=10) == ()


def test_single_gate_matrix():
    target = gf2.as_bits(["10", "11"])
    assert gaussian_ops(target) == (Gate("CX", (1, 2)),)
    assert search_ops(target, budget=100) == (Gate("CX", (1, 2)),)


def test_swap_costs_three():
    target = gf2.as_bits(["01", "10"])
    ops = search_ops(target, budget=1000)
    assert len(ops) == 3
    assert block_to_matrix(ops, 2) == target


def test_rejects_singular_and_non_square():
    with pytest.raises(ValueError, match="not invertible"):
        gaussian_ops(gf2.as_bits(["11", "11"]))
    with pytest.raises(ValueError, match="square"):
        gaussian_ops(np.zeros((2, 3), dtype=np.uint8))


@pytest.mark.parametrize("matrix", [
    np.zeros((2, 3), dtype=np.uint8),
    np.array([[0, 1, 0], [0, 0, 1]]),  # wide, leading column zero
    np.array([[1, 0], [0, 1], [0, 0]]),  # tall
    ["010", "001"],
    [[1, 0], [0, 1, 0]],
    gf2.as_bits(["110", "011"]),  # int rows wider than the row count
])
@pytest.mark.parametrize("synth", [gaussian_ops, search_ops])
def test_non_square_inputs_raise_square(synth, matrix):
    with pytest.raises(ValueError, match="expected a square matrix"):
        synth(matrix)


def test_budget_validation():
    with pytest.raises(ValueError, match="non-negative"):
        search_ops(gf2.as_bits(["10", "01"]), budget=-1)


def test_exhausted_budget_falls_back_to_gaussian():
    target = gf2.as_bits(["01", "11"])
    ops = search_ops(target, budget=0)
    assert ops == gaussian_ops(target)
    assert block_to_matrix(ops, 2) == target


def test_exhausted_budget_prefers_shorter_witness():
    # A valid witness shorter than the Gaussian circuit must win when the
    # search cannot finish.
    target = block_to_matrix(
        [Gate("CX", (3, 1)), Gate("CX", (1, 2)), Gate("CX", (2, 3))], 3
    )
    witness = (Gate("CX", (3, 1)), Gate("CX", (1, 2)), Gate("CX", (2, 3)))
    if len(gaussian_ops(target)) > 3:
        ops = search_ops(target, budget=0, witness=witness)
        assert ops == witness


def test_invalid_witness_is_an_error():
    target = gf2.as_bits(["10", "11"])
    with pytest.raises(ValueError, match="witness does not realize"):
        search_ops(target, witness=(Gate("CX", (2, 1)),))


def test_dont_care_columns_relax_the_target():
    # Column 2 marked always-zero: the identity already agrees with the
    # target everywhere it matters, so no gates are needed.
    target = gf2.as_bits(["11", "01"])
    assert search_ops(target, budget=100, zero_columns=(2,)) == ()
    assert len(search_ops(target, budget=100)) == 1
    with pytest.raises(ValueError, match="outside 1..2"):
        search_ops(target, zero_columns=(3,))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 7))
def test_gaussian_round_trip_on_random_invertible_matrices(seed, n):
    rng = np.random.default_rng(seed)
    m = gf2.as_bits(rng.integers(0, 2, size=(n, n), dtype=np.uint8))
    while not gf2.invertible(m):
        m = gf2.as_bits(rng.integers(0, 2, size=(n, n), dtype=np.uint8))
    ops = gaussian_ops(m)
    assert block_to_matrix(ops, n) == m


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_search_never_beats_correctness(seed):
    rng = np.random.default_rng(seed)
    n = 4
    m = gf2.as_bits(rng.integers(0, 2, size=(n, n), dtype=np.uint8))
    while not gf2.invertible(m):
        m = gf2.as_bits(rng.integers(0, 2, size=(n, n), dtype=np.uint8))
    ops = search_ops(m, budget=1500)
    assert block_to_matrix(ops, n) == m
    assert len(ops) <= len(gaussian_ops(m))


# ---------------------------------------------------------------------------
# exactness of the packed-int search against the row-tuple search
#
# ``_reference_search_ops`` is the row-tuple IDA* that ``search_ops``
# replaced, kept as a test-only reference and changed only in its name,
# its imports, its spelled-out default budget and its input boundary
# (matrices arrive as int rows, so they are no longer packed here): the
# packed search must return the same gates for every matrix, witness,
# ``zero_columns`` and budget, including where the budget runs out.  The
# reference records every generated child in its table; ``search_ops``
# records only the children it expands.


def _gate_key(gates):
    return tuple(g.q for g in gates)


class _Exhausted(Exception):
    """Internal signal: the node budget ran out mid-iteration."""


def _reference_search_ops(matrix, *, budget=50_000, witness=None,
                          zero_columns=()):
    target = _square_rows(matrix)
    n = len(target)
    if budget < 0:
        raise ValueError(f"search budget must be non-negative, got {budget}")
    mask = (1 << n) - 1
    for w in zero_columns:
        if not 1 <= w <= n:
            raise ValueError(f"zero_columns entry {w} outside 1..{n}")
        mask &= ~(1 << (n - w))

    goal = target

    def matches(state):
        return all((a ^ b) & mask == 0 for a, b in zip(state, goal))

    fallback = gaussian_ops(target)
    if witness is not None:
        w = tuple(witness)
        if not matches(block_to_matrix(w, n)):
            raise ValueError("witness does not realize the target matrix")
        if (len(w), _gate_key(w)) < (len(fallback), _gate_key(fallback)):
            fallback = w

    start = tuple(1 << (n - 1 - i) for i in range(n))
    if matches(start):
        return ()

    moves = [(c, t) for c in range(n) for t in range(n) if t != c]

    def h(state):
        return sum((a ^ b) & mask != 0 for a, b in zip(state, goal))

    upper = len(fallback)
    spent = 0
    bound = h(start)
    path: list[tuple[int, int]] = []

    def dfs(state, g, bound, seen):
        """Return (found, next_bound); raises _Exhausted when out of budget."""
        nonlocal spent
        if matches(state):
            return True, bound
        slack = bound - g
        if h(state) > slack:
            return False, g + h(state)
        spent += 1
        if spent > budget:
            raise _Exhausted
        nxt = None
        for c, t in moves:
            child = list(state)
            child[t] ^= state[c]
            child = tuple(child)
            prev = seen.get(child)
            if prev is not None and prev <= g + 1:
                continue
            seen[child] = g + 1
            path.append((c + 1, t + 1))
            found, fb = dfs(child, g + 1, bound, seen)
            if found:
                return True, bound
            path.pop()
            if nxt is None or fb < nxt:
                nxt = fb
        return False, bound + 1 if nxt is None else nxt

    try:
        while bound < upper:
            found, nxt = dfs(start, 0, bound, {start: 0})
            if found:
                return tuple(Gate("CX", q) for q in path)
            if nxt <= bound:
                break
            bound = nxt
    except _Exhausted:
        pass
    return fallback


def _exhaustion_point(target, witness, zero_columns, hi=1000):
    """Smallest budget at which ``search_ops`` runs to completion.

    ``None`` when the completed search returns its fallback (the budget
    then never shows in the output) or needs more than ``hi`` nodes.  A
    budget below the returned value runs out and yields the fallback; any
    budget at or above it gives the completed result.  Comparing with the
    reference one below and at this point pins the budget accounting: had
    the reference completed at another point, one of the two would differ.
    """
    def search(b):
        return search_ops(
            target, budget=b, witness=witness, zero_columns=zero_columns
        )

    lo = 0
    done = search(hi)
    if done == search(lo):
        return None
    while lo + 1 < hi:  # search(lo) != done == search(hi)
        mid = (lo + hi) // 2
        if search(mid) == done:
            hi = mid
        else:
            lo = mid
    return hi


def _random_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    pairs = [tuple(int(q) + 1 for q in rng.choice(n, 2, replace=False))
             for _ in range(int(rng.integers(0, 3 * n + 1)))]
    gates = tuple(Gate("CX", q) for q in pairs)
    target = block_to_matrix(gates, n)
    witness = gates if rng.random() < 0.5 else None
    zero_columns = tuple(
        w for w in range(1, n + 1) if rng.random() < 0.3
    )
    return target, witness, zero_columns


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_search_matches_the_row_tuple_reference(seed):
    target, witness, zero_columns = _random_case(seed)
    budgets = {0, 1, 2, 3, 5, 8, 13, 30, 100, 400}
    point = _exhaustion_point(target, witness, zero_columns)
    if point is not None:
        budgets |= {max(point - 1, 0), point, point + 1}
    for budget in sorted(budgets):
        got = search_ops(target, budget=budget, witness=witness,
                         zero_columns=zero_columns)
        want = _reference_search_ops(target, budget=budget, witness=witness,
                                     zero_columns=zero_columns)
        assert got == want, (budget, point)


def test_search_cut_off_at_the_exhaustion_point():
    # Seeded cases whose completed search beats its fallback, so the budget
    # at which the search first completes shows in the output: one node
    # less must give the fallback, exactly that many the search result.
    checked = 0
    for seed in range(60):
        target, witness, zero_columns = _random_case(seed)
        point = _exhaustion_point(target, witness, zero_columns)
        if point is None:
            continue
        kw = dict(witness=witness, zero_columns=zero_columns)
        short = _reference_search_ops(target, budget=point - 1, **kw)
        assert search_ops(target, budget=point - 1, **kw) == short
        done = _reference_search_ops(target, budget=point, **kw)
        assert search_ops(target, budget=point, **kw) == done
        assert len(done) < len(short)
        checked += 1
    assert checked >= 10


def test_eight_qubit_t_matrix_is_pinned():
    from test_acceptance import T_MATRIX, TEN_OP_WITNESS

    target = gf2.as_bits(T_MATRIX)
    gaussian = (
        (5, 4), (6, 3), (6, 5), (7, 4), (7, 5), (8, 3), (8, 4), (8, 5),
        (2, 8), (2, 6), (2, 5), (1, 7), (1, 6), (1, 5),
    )
    assert _gate_key(search_ops(target, budget=4000)) == gaussian
    witness = tuple(Gate("CX", q) for q in TEN_OP_WITNESS)
    assert search_ops(target, budget=4000, witness=witness) == witness


# ---------------------------------------------------------------------------
# the frontier shortcut against the row-tuple reference
#
# Once an iteration has pruned a child at f = bound + 1, ``search_ops``
# walks only the row-fixing children of each frontier node.  On these
# seven- to nine-qubit cases that shortcut expands most of the nodes, so
# a wrong gate, a missed child or a changed node count (which moves the
# exhaustion point) shows against the reference.


def _staged_searches():
    """(matrix, witness, zero_columns) of each search eight_qubit's full
    run makes, with and without its shipped block witnesses."""
    calls = []

    def record(matrix, **kw):
        calls.append((matrix, kw["witness"], kw["zero_columns"]))
        return search_ops(matrix, **kw)

    code = library.load_code("eight_qubit")
    enc = synthesize_encoder(code.standard_form(), gate_set="cnot_cz")
    witnesses = library.golden_config("eight_qubit")["block_witnesses"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "search_ops", record)
        for block_witnesses in (None, witnesses):
            optimizer.optimize(enc, level="full", search_budget=4000,
                               block_witnesses=block_witnesses)
    return tuple(dict.fromkeys(calls))


def _assert_matches_reference(target, budgets, witness=None, zero_columns=()):
    for budget in budgets:
        got = search_ops(target, budget=budget, witness=witness,
                         zero_columns=zero_columns)
        want = _reference_search_ops(target, budget=budget, witness=witness,
                                     zero_columns=zero_columns)
        assert got == want, (budget, zero_columns)


def test_frontier_search_matches_the_reference_on_the_t_matrix():
    from test_acceptance import T_MATRIX

    _assert_matches_reference(gf2.as_bits(T_MATRIX), (1, 100, 1000, 4000))


def test_frontier_search_matches_the_reference_on_staged_regions():
    # The full staged regions run out of any budget the reference can
    # afford here, so each is compared at a small budget, and the masked
    # matrices of its witness's prefixes at their exhaustion points.
    checked = 0
    for matrix, witness, zero_columns in _staged_searches():
        assert zero_columns
        _assert_matches_reference(matrix, (0, 100), witness, zero_columns)
        for k in range(4, len(witness)):
            prefix = witness[:k]
            target = block_to_matrix(prefix, len(matrix))
            point = _exhaustion_point(target, prefix, zero_columns,
                                      hi=500)
            if point is not None:
                _assert_matches_reference(
                    target, (point - 1, point), prefix, zero_columns
                )
                checked += 1
    assert checked >= 4


def test_frontier_search_matches_the_reference_near_exhaustion():
    checked = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(7, 10))
        pairs = [tuple(int(q) + 1 for q in rng.choice(n, 2, replace=False))
                 for _ in range(int(rng.integers(n, 2 * n)))]
        gates = tuple(Gate("CX", q) for q in pairs)
        target = block_to_matrix(gates, n)
        witness = gates if rng.random() < 0.5 else None
        zero_columns = tuple(
            w for w in range(1, n + 1) if rng.random() < 0.3
        )
        point = _exhaustion_point(target, witness, zero_columns, hi=400)
        if point is None:
            continue
        _assert_matches_reference(
            target, (point - 1, point), witness, zero_columns
        )
        checked += 1
    assert checked >= 10
