"""Acceptance gate: ten end-to-end checks against frozen reference values.

Each criterion is one test so a verbose run reports one pass/fail line
per criterion.  The expected values were computed independently (dense
linear algebra over GF(2) and statevector simulation) and frozen here;
the tests assert exact equality except where a numeric tolerance is
stated.
"""

import time
from itertools import product

import numpy as np
import pytest
from importlib import resources

from stabsynth import gf2
from stabsynth.circuit import Circuit, Gate, gate_counts, to_json
from stabsynth.encoder import synthesize_encoder, synthesize_syndrome_circuit
from stabsynth.library import golden_config
from stabsynth.linear import block_to_matrix, gaussian_ops, search_ops
from stabsynth.pauli import PauliString
from stabsynth.rules import REGISTRY
from stabsynth.simulator import (
    check_stabilized,
    circuits_equivalent,
    logical_label,
    measure_syndrome,
    projector_encode,
    roundtrip_correct,
    run,
    states_close,
)
from stabsynth.symplectic import standard_form
from stabsynth.syndrome import build_syndrome_table, syndrome_of

ATOL = 1e-10


def bit_rows(rows, width):
    return [f"{row:0{width}b}" for row in rows]


# --- frozen standard form of the eight-qubit code (reduced order) ----------

EIGHT_X_ROWS = ["10001110", "01001101", "00101011", "00010111", "00000000"]
EIGHT_Z_ROWS = ["01001101", "00101011", "01011010", "00111100", "11111111"]
EIGHT_RECIPE = ["10001", "00010", "00101", "00110", "01000"]
EIGHT_REGEN = (0, 0, 2, 2, 0)
EIGHT_PERM = (0, 1, 2, 4, 3, 5, 6, 7)  # positions 4 and 5 swapped
EIGHT_GENERATORS = [
    "XZIIYYXZ",
    "IXZIYXZY",
    "IZXZYIYX",
    "IIZYZYXX",
    "ZZZZZZZZ",
]

EIGHT_LOGICAL_X = ["IZZIXXII", "ZIIZXIXI", "IIZZXIIX"]
EIGHT_LOGICAL_Z = ["ZZIZIZII", "ZIZZIIZI", "IZZZIIIZ"]

# --- frozen encoder shapes --------------------------------------------------

MIXED_COUNTS_EIGHT = {"H": 4, "S": 1, "CX": 8, "CY": 7, "CZ": 5}
CNOTCZ_COUNTS_EIGHT = {"H": 4, "Z": 1, "CX": 15, "CZ": 12}
MIXED_COUNTS_STEANE = {"H": 3, "CX": 11}
CNOTCZ_COUNTS_THIRTEEN = {"H": 5, "Z": 1, "CX": 26, "CZ": 24}
SYNDROME_COUNTS_EIGHT = {"H": 10, "CX": 8, "CY": 8, "CZ": 16}

# --- frozen encoded |000> of the eight-qubit code ---------------------------

ENCODED_ZERO_TERMS = {
    "00000000": +1, "00010111": -1, "00101011": -1, "00111100": +1,
    "01001101": -1, "01011010": +1, "01100110": +1, "01110001": -1,
    "10001110": -1, "10011001": +1, "10100101": +1, "10110010": -1,
    "11000011": +1, "11010100": -1, "11101000": -1, "11111111": +1,
}

# --- frozen syndrome table of the eight-qubit code ---------------------------
# Row order: X, Z, Y per qubit, identity last.

SYNDROME_DECIMALS = [
    1, 16, 17,    # qubit 1
    21, 8, 29,    # qubit 2
    11, 4, 15,    # qubit 3
    7, 2, 5,      # qubit 4
    31, 28, 3,    # qubit 5
    19, 26, 9,    # qubit 6
    13, 22, 27,   # qubit 7
    25, 14, 23,   # qubit 8
    0,            # identity
]

# --- frozen CNOT-synthesis instance ------------------------------------------

T_MATRIX = [
    "10000000",
    "01000000",
    "00100101",
    "00011011",
    "11001111",
    "11000100",
    "10000010",
    "01000001",
]
ELEVEN_OPS = [
    (1, 7), (6, 5), (6, 3), (1, 6), (8, 3), (7, 5),
    (2, 8), (8, 5), (2, 6), (5, 4), (6, 4),
]
TEN_OP_WITNESS = [
    (8, 5), (7, 5), (8, 3), (6, 3), (2, 6),
    (1, 6), (2, 8), (1, 7), (5, 4), (6, 5),
]

GOLDEN_COUNTS = {
    "eight_qubit": {"H": 4, "CX": 18},
    "steane": {"H": 3, "CX": 10},
    "thirteen_qubit": {"H": 5, "CX": 41},
}
GOLDEN_FRAMES = {
    "eight_qubit": (Gate("Z", (4,)),),
    "steane": (),
    "thirteen_qubit": (Gate("Z", (4,)),),
}


def test_criterion_01_standard_form(codes, eight_sf):
    sf = eight_sf
    assert sf.n == 8 and sf.k == 3 and sf.m == 5 and sf.r == 4
    assert bit_rows(sf.x, sf.n) == EIGHT_X_ROWS
    assert bit_rows(sf.z, sf.n) == EIGHT_Z_ROWS
    assert sf.qubit_perm == EIGHT_PERM
    assert bit_rows(sf.row_recipe, sf.m) == EIGHT_RECIPE
    assert tuple(sf.regen_phases) == EIGHT_REGEN
    assert [str(g) for g in sf.generators] == EIGHT_GENERATORS

    check = codes["eight_qubit"].check_matrix()
    best = min(_timed(standard_form, check) for _ in range(5))
    assert best < 1e-3, f"standard-form reduction took {best * 1e3:.3f} ms"


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_02_logical_operators(eight_sf):
    assert [str(p) for p in eight_sf.logical_x] == EIGHT_LOGICAL_X
    assert [str(p) for p in eight_sf.logical_z] == EIGHT_LOGICAL_Z
    for p in eight_sf.logical_x + eight_sf.logical_z:
        assert p.phase_exp == 0
        for g in eight_sf.generators:
            assert p.commutes_with(g)
    for i, x_op in enumerate(eight_sf.logical_x):
        for j, z_op in enumerate(eight_sf.logical_z):
            assert x_op.commutes_with(z_op) == (i != j)


def test_criterion_03_encoder_gate_counts(forms, mixed_encoders):
    assert gate_counts(mixed_encoders["eight_qubit"]) == MIXED_COUNTS_EIGHT
    cnotcz = synthesize_encoder(forms["eight_qubit"], gate_set="cnot_cz")
    assert gate_counts(cnotcz) == CNOTCZ_COUNTS_EIGHT
    assert gate_counts(mixed_encoders["steane"]) == MIXED_COUNTS_STEANE
    thirteen = synthesize_encoder(forms["thirteen_qubit"], gate_set="cnot_cz")
    assert gate_counts(thirteen) == CNOTCZ_COUNTS_THIRTEEN

    meas = synthesize_syndrome_circuit(forms["eight_qubit"])
    assert gate_counts(meas) == SYNDROME_COUNTS_EIGHT
    assert meas.n == 13
    assert meas.measurements == ((9, 0), (10, 1), (11, 2), (12, 3), (13, 4))


def test_criterion_04_encoded_zero_state(eight_sf, mixed_encoders):
    encoder = mixed_encoders["eight_qubit"]
    state = run(encoder, logical_label(encoder, "000"))
    expected = np.zeros(256, dtype=np.complex128)
    for label, sign in ENCODED_ZERO_TERMS.items():
        expected[int(label, 2)] = sign * 0.25
    assert np.max(np.abs(state.amps - expected)) < ATOL

    oracle = projector_encode(eight_sf, "000")
    assert states_close(state, oracle, up_to_global_phase=False)


def test_criterion_05_generators_stabilize_encodings(forms, mixed_encoders):
    for name, sf in forms.items():
        encoder = mixed_encoders[name]
        for i in range(2**sf.k):
            bits = format(i, f"0{sf.k}b")
            state = run(encoder, logical_label(encoder, bits))
            for g in sf.generators:
                assert check_stabilized(state, g), (name, bits, str(g))


def test_criterion_06_syndrome_table(eight_sf):
    table = build_syndrome_table(eight_sf)
    assert len(table.entries) == 25
    decimals = [bits for _, bits in table.entries]
    assert decimals == SYNDROME_DECIMALS

    # Circuit-level extraction agrees with the algebraic syndrome on
    # every nonidentity single-qubit error.
    encoded = projector_encode(eight_sf, "101")
    for error, bits in table.entries:
        if error.weight == 0:
            continue
        measured = measure_syndrome(encoded, error, eight_sf)
        assert measured == bits, str(error)


def test_criterion_07_error_correction_roundtrip(
    eight_sf, steane_sf, mixed_encoders
):
    table = build_syndrome_table(eight_sf)
    errors = [e for e, _ in table.entries if e.weight > 0]
    assert len(errors) == 24
    encoder = mixed_encoders["eight_qubit"]
    results = [
        roundtrip_correct(eight_sf, table, bits, error, encoder=encoder)
        for bits in (format(i, "03b") for i in range(8))
        for error in errors
    ]
    assert results.count(True) == 192 and len(results) == 192

    table7 = build_syndrome_table(steane_sf)
    errors7 = [e for e, _ in table7.entries if e.weight > 0]
    assert len(errors7) == 21
    results7 = [
        roundtrip_correct(steane_sf, table7, bits, error)
        for bits in ("0", "1")
        for error in errors7
    ]
    assert results7.count(True) == 42 and len(results7) == 42


def test_criterion_08_cnot_synthesis():
    t = gf2.as_bits(T_MATRIX)
    eleven = [Gate("CX", op) for op in ELEVEN_OPS]
    assert np.array_equal(block_to_matrix(eleven, 8), t)

    gaussian = gaussian_ops(t)
    assert len(gaussian) == 14
    assert np.array_equal(block_to_matrix(gaussian, 8), t)

    witness = [Gate("CX", op) for op in TEN_OP_WITNESS]
    assert np.array_equal(block_to_matrix(witness, 8), t)
    found = search_ops(t, budget=4000, witness=witness)
    assert len(found) <= 10
    assert np.array_equal(block_to_matrix(found, 8), t)

    # The shipped witness fixture must itself be the ten-gate realisation.
    config = golden_config("eight_qubit")
    (shipped,) = config["block_witnesses"]
    assert len(shipped) == 10
    shipped_gates = [Gate("CX", tuple(op)) for op in shipped]
    assert np.array_equal(block_to_matrix(shipped_gates, 8), t)


def test_criterion_09_golden_pipeline(golden_runs):
    for name, (optimized, report, encoder) in golden_runs.items():
        assert gate_counts(optimized) == GOLDEN_COUNTS[name], name
        assert report.counts_after == GOLDEN_COUNTS[name], name
        assert report.frame == GOLDEN_FRAMES[name], name

        composed = optimized.replace_gates(
            tuple(optimized.gates) + tuple(report.frame)
        )
        assert circuits_equivalent(
            composed, encoder, "ancilla_restricted", up_to_global_phase=True
        ), name

        stored = (
            resources.files("stabsynth") / "golden" / f"{name}.optimized.json"
        ).read_text()
        assert to_json(optimized) == stored, f"{name} fixture drifted"


def test_criterion_10_property_suites(eight_sf):
    # (a) every registered rewrite rule passes exact unitary re-verification
    assert len(REGISTRY) >= 16
    for r in REGISTRY.values():
        r.verify()

    # (b) Gaussian synthesis round-trips 500 random invertible matrices,
    # and the budgeted search never does worse on a sample of them
    rng = np.random.default_rng(20260818)
    matrices = []
    while len(matrices) < 500:
        n = int(rng.integers(2, 9))
        m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if gf2.invertible(gf2.as_bits(m)):
            matrices.append(m)
    for m in matrices:
        ops = gaussian_ops(m)
        assert np.array_equal(block_to_matrix(ops, m.shape[0]), gf2.as_bits(m))
    for m in [m for m in matrices if m.shape[0] <= 5][:40]:
        n = m.shape[0]
        ops = search_ops(m, budget=2000)
        assert np.array_equal(block_to_matrix(ops, n), gf2.as_bits(m))
        assert len(ops) <= len(gaussian_ops(m))

    # (c) syndromes are linear: the syndrome of a product is the XOR
    for _ in range(200):
        e1 = PauliString(
            rng.integers(0, 2, 8, dtype=np.uint8),
            rng.integers(0, 2, 8, dtype=np.uint8),
        )
        e2 = PauliString(
            rng.integers(0, 2, 8, dtype=np.uint8),
            rng.integers(0, 2, 8, dtype=np.uint8),
        )
        lhs = syndrome_of(e1 * e2, eight_sf)
        rhs = syndrome_of(e1, eight_sf) ^ syndrome_of(e2, eight_sf)
        assert np.array_equal(lhs, rhs)

    # (d) simulation is norm-preserving on random circuits
    kinds_1q = ("H", "S", "X", "Y", "Z")
    kinds_2q = ("CX", "CY", "CZ")
    for trial in range(20):
        gates = []
        for _ in range(50):
            if rng.random() < 0.4:
                gates.append(Gate(rng.choice(kinds_1q), (int(rng.integers(1, 7)),)))
            else:
                c, t = rng.choice(6, size=2, replace=False) + 1
                gates.append(Gate(rng.choice(kinds_2q), (int(c), int(t))))
        circuit = Circuit(n=6, gates=tuple(gates), roles=("logical_input",) * 6)
        start = format(int(rng.integers(0, 64)), "06b")
        out = run(circuit, start)
        assert abs(np.linalg.norm(out.amps) - 1.0) < ATOL
