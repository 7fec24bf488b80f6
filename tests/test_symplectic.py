"""Check-matrix reduction: frozen standard forms and structural invariants."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_code
from stabsynth.gf2 import as_bits
from stabsynth.pauli import PauliString
from stabsynth.symplectic import CheckMatrix, css_check_matrix, standard_form
from test_pauli import _reference_mul


def bit_rows(rows, width):
    return [f"{row:0{width}b}" for row in rows]


def test_steane_standard_form_frozen(steane_sf):
    sf = steane_sf
    assert (sf.n, sf.k, sf.m, sf.r) == (7, 1, 6, 3)
    assert bit_rows(sf.x, 7) == [
        "1001011", "0101101", "0011110", "0000000", "0000000", "0000000",
    ]
    assert bit_rows(sf.z, 7) == [
        "0000000", "0000000", "0000000", "1111000", "1010101", "0110011",
    ]
    assert sf.qubit_perm == (0, 1, 2, 3, 4, 5, 6)
    assert bit_rows(sf.row_recipe, 6) == [
        "111000", "101000", "110000", "000100", "000001", "000011",
    ]
    assert sf.regen_phases == (0, 0, 0, 0, 0, 0)
    assert [str(p) for p in sf.logical_x] == ["IIIIXXX"]
    assert [str(p) for p in sf.logical_z] == ["ZZIIIIZ"]


def test_thirteen_qubit_standard_form_frozen(thirteen_sf):
    sf = thirteen_sf
    assert (sf.n, sf.k, sf.m, sf.r) == (13, 7, 6, 5)
    assert sf.qubit_perm == (0, 1, 2, 4, 8, 5, 6, 7, 3, 9, 10, 11, 12)
    assert bit_rows(sf.x, 13) == [
        "1000011011010",
        "0100010110110",
        "0010001110011",
        "0001011101111",
        "0000100000010",
        "0000000000000",
    ]
    assert bit_rows(sf.z, 13) == [
        "0100110110001",
        "0010001111111",
        "0101101010111",
        "0011010011001",
        "0000000001100",
        "1111011110000",
    ]
    assert sf.regen_phases == (0, 0, 2, 2, 0, 0)
    assert bit_rows(sf.block("E"), 7) == ["1110000"]
    assert str(sf.logical_x[0]) == "ZZZZIXXIIIIII"
    assert str(sf.logical_z[0]) == "ZIZZIIZIIIIII"
    assert len(sf.logical_x) == len(sf.logical_z) == 7


def test_row_recipe_regenerates_standard_rows(forms):
    # Multiplying the original generators per recipe row, then permuting
    # qubits into reduced order, must land exactly on the standard row —
    # with the recorded phase relating the product to the letter string.
    for sf in forms.values():
        base = sf.base.paulis
        for i in range(sf.m):
            recipe = f"{sf.row_recipe[i]:0{sf.m}b}"
            members = [j for j in range(sf.m) if recipe[j] == "1"]
            prod = base[members[0]]
            for j in members[1:]:
                prod = prod * base[j]
            letters = str(prod).lstrip("-i")
            permuted = PauliString.parse(
                "".join(letters[q] for q in sf.qubit_perm)
            )
            assert permuted.x == sf.x[i]
            assert permuted.z == sf.z[i]
            assert prod.phase_exp == sf.regen_phases[i]


def test_standard_rows_pairwise_commute(forms):
    for sf in forms.values():
        rows = [
            PauliString(sf.x[i], sf.z[i], n=sf.n) for i in range(sf.m)
        ]
        for i in range(sf.m):
            for j in range(i + 1, sf.m):
                assert rows[i].commutes_with(rows[j])


def test_logicals_commute_with_generators_and_pair_up(thirteen_sf):
    sf = thirteen_sf
    for p in sf.logical_x + sf.logical_z:
        for g in sf.generators:
            assert p.commutes_with(g)
    for i, x_op in enumerate(sf.logical_x):
        for j, z_op in enumerate(sf.logical_z):
            assert x_op.commutes_with(z_op) == (i != j)


def test_check_matrix_rejects_anticommuting_generators():
    with pytest.raises(ValueError, match="anticommute"):
        CheckMatrix(["XI", "ZI"])


def test_check_matrix_rejects_dependent_generators():
    with pytest.raises(ValueError, match="rank 2 < 3"):
        CheckMatrix(["XXII", "ZZII", "YYII"])


def test_check_matrix_rejects_no_generators_and_unequal_widths():
    with pytest.raises(ValueError, match="^no generators given$"):
        CheckMatrix([])
    with pytest.raises(ValueError, match="^generator 2 acts on 3 qubits, expected 2$"):
        CheckMatrix(["XX", "ZZZ"])


def test_css_check_matrix_rejects_unequal_widths_and_anticommuting_rows():
    with pytest.raises(ValueError, match="different qubit counts"):
        css_check_matrix([[1, 1]], [[1, 1, 1]])
    with pytest.raises(ValueError, match="^h_z row 2 is not orthogonal to h_x row 1$"):
        css_check_matrix([[1, 1, 0]], [[1, 1, 0], [1, 0, 0]])


def test_css_check_matrix_matches_parsed_generators(codes):
    h = [
        [1, 1, 1, 1, 0, 0, 0],
        [1, 1, 0, 0, 1, 1, 0],
        [1, 0, 1, 0, 1, 0, 1],
    ]
    check = css_check_matrix(h, h)
    assert check.paulis == codes["steane"].generators


def test_unknown_block_name_raises(eight_sf):
    with pytest.raises(KeyError, match="unknown block"):
        eight_sf.block("Q")


def test_reduction_is_deterministic(codes):
    check = codes["eight_qubit"].check_matrix()
    a = standard_form(check)
    b = standard_form(check)
    assert (a.x, a.z, a.row_recipe) == (b.x, b.z, b.row_recipe)
    assert a.qubit_perm == b.qubit_perm
    assert a.regen_phases == b.regen_phases
    # a mutable record: equal by fields (the shared check matrix by
    # identity), unhashable, its generator lists left out of repr
    assert a == b and a != standard_form(codes["steane"].check_matrix())
    with pytest.raises(TypeError):
        hash(a)
    demo = standard_form(CheckMatrix(["XXXX", "ZZZZ"]))
    assert repr(demo) == (
        "StandardForm(base=CheckMatrix(['XXXX', 'ZZZZ']), r=1, "
        "qubit_perm=(0, 1, 2, 3), row_recipe=(2, 1), regen_phases=(0, 0))"
    )
    for copied in (pickle.loads(pickle.dumps(demo)), copy.deepcopy(demo)):
        assert repr(copied) == repr(demo)
        assert copied.generators == demo.generators
        assert copied.logical_x == demo.logical_x
        assert copied.logical_z == demo.logical_z


# ---------------------------------------------------------------------------
# the int-row reduction against the numpy reduction it replaced
#
# ``_reference_standard_form`` is the numpy ``standard_form`` that the int
# rows replaced, kept as a test-only reference.  It reads the generators
# from their letter strings, multiplies with ``_reference_mul`` and
# returns plain bit arrays and letter strings in place of a StandardForm.


def _reference_standard_form(check):
    n, m = check.n, check.m
    paulis = []
    for p in check.paulis:
        letters = str(p).lstrip("-i")
        paulis.append((
            np.array([c in "XY" for c in letters], dtype=np.uint8),
            np.array([c in "ZY" for c in letters], dtype=np.uint8),
            p.phase_exp,
        ))
    mat = np.concatenate(
        [np.array([x for x, _, _ in paulis]), np.array([z for _, z, _ in paulis])],
        axis=1,
    )
    recipe = np.eye(m, dtype=np.uint8)
    perm = list(range(n))

    def swap_qubits(a: int, b: int) -> None:
        mat[:, [a, b]] = mat[:, [b, a]]
        mat[:, [n + a, n + b]] = mat[:, [n + b, n + a]]
        perm[a], perm[b] = perm[b], perm[a]

    def eliminate(col: int, pivot_row: int, rows) -> None:
        for q in rows:
            if q != pivot_row and mat[q, col]:
                mat[q] ^= mat[pivot_row]
                recipe[q] ^= recipe[pivot_row]

    # phase 1: bring the x part to [I A1 A2]
    r = 0
    for _ in range(m):
        hit = np.nonzero(mat[r:, r])[0]
        if hit.size == 0:
            found = False
            for c in range(r + 1, n):
                if mat[r:, c].any():
                    swap_qubits(r, c)
                    found = True
                    break
            if not found:
                break
            hit = np.nonzero(mat[r:, r])[0]
        p = r + int(hit[0])
        if p != r:
            mat[[r, p]] = mat[[p, r]]
            recipe[[r, p]] = recipe[[p, r]]
        eliminate(r, r, range(m))
        r += 1
        if r >= m:
            break

    # after phase 1 the remaining rows are pure-Z; bring their z part to
    # [D I E] by eliminating within the band only
    for i in range(m - r):
        row = r + i
        col = n + r + i
        hit = np.nonzero(mat[row:, col])[0]
        if hit.size == 0:
            found = False
            for c in range(r + i + 1, n):
                if mat[row:, n + c].any():
                    swap_qubits(r + i, c)
                    found = True
                    break
            if not found:  # cannot happen for a valid full-rank input
                raise ValueError("check matrix is rank deficient in its z part")
            hit = np.nonzero(mat[row:, col])[0]
        p = row + int(hit[0])
        if p != row:
            mat[[row, p]] = mat[[p, row]]
            recipe[[row, p]] = recipe[[p, row]]
        eliminate(col, row, range(r, m))

    # phases of the recipe products relative to the standard letter strings
    regen: list[int] = []
    for i in range(m):
        members = np.nonzero(recipe[i])[0]
        prod = paulis[members[0]]
        for j in members[1:]:
            prod = _reference_mul(prod, paulis[j])
        # permuting qubit labels changes neither letters nor phase
        px = prod[0][perm]
        pz = prod[1][perm]
        if not (
            np.array_equal(px, mat[i, :n]) and np.array_equal(pz, mat[i, n:])
        ):
            raise AssertionError("row recipe does not reproduce standard row")
        regen.append(prod[2])

    # canonical logical operators from the standard-form blocks
    s, k = m - r, n - m
    x_part = mat[:, :n]
    z_part = mat[:, n:]
    a2 = x_part[:r, r + s :]
    c1 = z_part[:r, r : r + s]
    c2 = z_part[:r, r + s :]
    e = z_part[r:, r + s :]
    logical_x: list[str] = []
    logical_z: list[str] = []
    v1 = (e.T.astype(np.uint32) @ c1.T.astype(np.uint32) + c2.T.astype(np.uint32)) % 2
    v1 = v1.astype(np.uint8)
    for i in range(k):
        lx = np.zeros(n, dtype=np.uint8)
        lz = np.zeros(n, dtype=np.uint8)
        lx[r : r + s] = e.T[i]
        lx[r + s + i] = 1
        lz[:r] = v1[i]
        logical_x.append("".join("IXZY"[a + 2 * b] for a, b in zip(lx, lz)))
        zz = np.zeros(n, dtype=np.uint8)
        zz[:r] = a2.T[i]
        zz[r + s + i] = 1
        logical_z.append("".join("IZ"[b] for b in zz))

    return mat, r, tuple(perm), recipe, tuple(regen), logical_x, logical_z


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    st.integers(0, 2**32 - 1),
)
def test_standard_form_matches_the_numpy_reference(nk, seed):
    n, k = nk
    rng = np.random.default_rng(seed)
    # Random signs exercise the recorded regeneration phases.
    generators = [
        ("-" if rng.integers(2) else "") + str(g)
        for g in random_code(rng, n, k).generators
    ]
    check = CheckMatrix(generators)
    sf = standard_form(check)
    mat, r, perm, recipe, regen, logical_x, logical_z = _reference_standard_form(check)
    assert sf.x == as_bits(mat[:, :n])
    assert sf.z == as_bits(mat[:, n:])
    assert sf.row_recipe == as_bits(recipe)
    assert (sf.r, sf.qubit_perm, sf.regen_phases) == (r, perm, regen)
    assert [str(p) for p in sf.logical_x] == logical_x
    assert [str(p) for p in sf.logical_z] == logical_z
