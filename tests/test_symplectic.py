"""Check-matrix reduction: frozen standard forms and structural invariants."""

import numpy as np
import pytest

from stabsynth.pauli import PauliString
from stabsynth.symplectic import CheckMatrix, css_check_matrix, standard_form


def bit_rows(mat):
    return ["".join(str(int(b)) for b in row) for row in mat]


def test_steane_standard_form_frozen(steane_sf):
    sf = steane_sf
    assert (sf.n, sf.k, sf.m, sf.r) == (7, 1, 6, 3)
    assert bit_rows(sf.x) == [
        "1001011", "0101101", "0011110", "0000000", "0000000", "0000000",
    ]
    assert bit_rows(sf.z) == [
        "0000000", "0000000", "0000000", "1111000", "1010101", "0110011",
    ]
    assert sf.qubit_perm == (0, 1, 2, 3, 4, 5, 6)
    assert bit_rows(sf.row_recipe) == [
        "111000", "101000", "110000", "000100", "000001", "000011",
    ]
    assert sf.regen_phases == (0, 0, 0, 0, 0, 0)
    assert [str(p) for p in sf.logical_x] == ["IIIIXXX"]
    assert [str(p) for p in sf.logical_z] == ["ZZIIIIZ"]


def test_thirteen_qubit_standard_form_frozen(thirteen_sf):
    sf = thirteen_sf
    assert (sf.n, sf.k, sf.m, sf.r) == (13, 7, 6, 5)
    assert sf.qubit_perm == (0, 1, 2, 4, 8, 5, 6, 7, 3, 9, 10, 11, 12)
    assert bit_rows(sf.x) == [
        "1000011011010",
        "0100010110110",
        "0010001110011",
        "0001011101111",
        "0000100000010",
        "0000000000000",
    ]
    assert bit_rows(sf.z) == [
        "0100110110001",
        "0010001111111",
        "0101101010111",
        "0011010011001",
        "0000000001100",
        "1111011110000",
    ]
    assert sf.regen_phases == (0, 0, 2, 2, 0, 0)
    assert bit_rows(sf.block("E")) == ["1110000"]
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
            members = [j for j in range(sf.m) if sf.row_recipe[i, j]]
            prod = base[members[0]]
            for j in members[1:]:
                prod = prod * base[j]
            perm = list(sf.qubit_perm)
            permuted = PauliString(
                prod.x[perm], prod.z[perm], phase_exp=prod.phase_exp
            )
            assert np.array_equal(permuted.x, sf.x[i])
            assert np.array_equal(permuted.z, sf.z[i])
            assert permuted.phase_exp == sf.regen_phases[i]


def test_standard_rows_pairwise_commute(forms):
    for sf in forms.values():
        rows = [
            PauliString(sf.x[i].copy(), sf.z[i].copy()) for i in range(sf.m)
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


def test_css_check_matrix_matches_parsed_generators(codes):
    h = [
        [1, 1, 1, 1, 0, 0, 0],
        [1, 1, 0, 0, 1, 1, 0],
        [1, 0, 1, 0, 1, 0, 1],
    ]
    check = css_check_matrix(h, h)
    assert check.paulis == list(codes["steane"].generators)


def test_unknown_block_name_raises(eight_sf):
    with pytest.raises(KeyError, match="unknown block"):
        eight_sf.block("Q")


def test_reduction_is_deterministic(codes):
    check = codes["eight_qubit"].check_matrix()
    a = standard_form(check)
    b = standard_form(check)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.qubit_perm == b.qubit_perm
    assert a.regen_phases == b.regen_phases
