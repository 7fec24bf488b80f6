"""Dense statevector semantics: gates, Pauli action, comparisons, oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabsynth.circuit import GATE_KINDS, ONE_QUBIT_KINDS, Circuit, Gate
from stabsynth.encoder import synthesize_encoder
from stabsynth.pauli import PauliString
from stabsynth.simulator import (
    StateVector,
    apply_gate,
    apply_pauli,
    check_stabilized,
    circuits_equivalent,
    logical_label,
    measure_syndrome,
    projector_encode,
    run,
    states_close,
)

SQ2 = 1 / np.sqrt(2)


def amps_of(label, n):
    state = StateVector.from_label(label)
    assert state.n == n
    return state


def test_basis_state_construction():
    state = StateVector.from_label("010")
    expected = np.zeros(8)
    expected[0b010] = 1
    assert np.array_equal(state.amps, expected)


def test_single_qubit_gates():
    plus = StateVector.from_label("0")
    apply_gate(plus, Gate("H", (1,)))
    assert np.allclose(plus.amps, [SQ2, SQ2])

    one = StateVector.from_label("1")
    apply_gate(one, Gate("S", (1,)))
    assert np.allclose(one.amps, [0, 1j])
    apply_gate(one, Gate("Z", (1,)))
    assert np.allclose(one.amps, [0, -1j])
    apply_gate(one, Gate("X", (1,)))
    assert np.allclose(one.amps, [-1j, 0])

    y = StateVector.from_label("0")
    apply_gate(y, Gate("Y", (1,)))
    assert np.allclose(y.amps, [0, 1j])


def test_two_qubit_gates():
    state = StateVector.from_label("10")
    apply_gate(state, Gate("CX", (1, 2)))
    assert np.allclose(state.amps, amps_of("11", 2).amps)

    state = StateVector.from_label("11")
    apply_gate(state, Gate("CZ", (1, 2)))
    expected = np.zeros(4, dtype=complex)
    expected[0b11] = -1
    assert np.allclose(state.amps, expected)

    state = StateVector.from_label("10")
    apply_gate(state, Gate("CY", (1, 2)))
    expected = np.zeros(4, dtype=complex)
    expected[0b11] = 1j
    assert np.allclose(state.amps, expected)


def test_run_accepts_label_state_or_nothing():
    c = Circuit(n=2, gates=(Gate("X", (2,)),), roles=("logical_input",) * 2)
    assert np.allclose(run(c).amps, amps_of("01", 2).amps)
    assert np.allclose(run(c, "10").amps, amps_of("11", 2).amps)
    seed = StateVector.from_label("10")
    assert np.allclose(run(c, seed).amps, amps_of("11", 2).amps)
    assert np.allclose(seed.amps, amps_of("10", 2).amps)  # input untouched

    with pytest.raises(ValueError, match="label length"):
        run(c, "101")
    with pytest.raises(ValueError, match="state has 3 qubits"):
        run(c, StateVector.from_label("101"))


def test_apply_pauli_phases():
    zero = StateVector.from_label("0")
    assert np.allclose(apply_pauli(zero, PauliString.parse("Y")).amps, [0, 1j])
    assert np.allclose(apply_pauli(zero, PauliString.parse("-X")).amps, [0, -1])
    two = StateVector.from_label("01")
    moved = apply_pauli(two, PauliString.parse("XZ"))
    expected = np.zeros(4, dtype=complex)
    expected[0b11] = -1
    assert np.allclose(moved.amps, expected)
    # applying the same Pauli twice restores the state
    assert np.allclose(apply_pauli(moved, PauliString.parse("XZ")).amps, two.amps)


def _reference_apply_pauli(state, p):
    """The per-call ``apply_pauli``: index and parity arrays built afresh."""
    n = state.n
    indices = np.arange(2**n, dtype=np.int64)
    parity = np.zeros(2**n, dtype=np.int64)
    for shift in range(n):
        if p.z >> shift & 1:
            parity ^= (indices >> shift) & 1
    phase = (1j) ** (p.phase_exp + (p.x & p.z).bit_count())
    out = np.empty_like(state.amps)
    out[indices ^ p.x] = state.amps * phase * np.where(parity, -1.0, 1.0)
    return out


def test_apply_pauli_is_bit_identical_to_the_per_call_tables():
    rng = np.random.default_rng(11)
    for n in (1, 3, 6):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps[rng.integers(2**n)] = -0.0
        state = StateVector(n, amps / np.linalg.norm(amps))
        for _ in range(20):
            p = PauliString(
                int(rng.integers(2**n)), int(rng.integers(2**n)),
                int(rng.integers(4)), n=n,
            )
            got = apply_pauli(state, p).amps
            want = _reference_apply_pauli(state, p)
            assert got.tobytes() == want.tobytes()


def test_known_conjugations():
    def conj(text, *gates):
        return str(PauliString.parse(text).conjugated_by(
            [Gate(kind, q) for kind, *q in gates]
        ))

    assert [conj(p, ("H", 1)) for p in "XYZ"] == ["Z", "-Y", "X"]
    assert [conj(p, ("S", 1)) for p in "XYZ"] == ["Y", "-X", "Z"]
    assert [conj(p, ("Y", 1)) for p in "XYZ"] == ["-X", "Y", "-Z"]
    assert conj("XI", ("CX", 1, 2)) == "XX"
    assert conj("IZ", ("CX", 1, 2)) == "ZZ"
    assert conj("XX", ("CZ", 1, 2)) == "YY"
    assert conj("XI", ("CY", 1, 2)) == "XY"
    assert conj("IX", ("CY", 1, 2)) == "ZX"
    # C·P·C† for C = H then S: S(HXH)S† = SZS† = Z
    assert conj("-iX", ("H", 1), ("S", 1)) == "-iZ"


@st.composite
def _circuit_and_pauli(draw):
    """A circuit over all eight gate kinds on 1-5 qubits and a phased Pauli."""
    n = draw(st.integers(1, 5))
    kinds = GATE_KINDS if n > 1 else ONE_QUBIT_KINDS
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=16)):
        if kind in ONE_QUBIT_KINDS:
            gates.append(Gate(kind, (draw(st.integers(1, n)),)))
        else:
            a = draw(st.integers(1, n))
            b = draw(st.integers(1, n).filter(lambda b: b != a))
            gates.append(Gate(kind, (a, b)))
    circuit = Circuit(n=n, gates=gates, roles=("logical_input",) * n)
    bits = st.integers(0, 2**n - 1)
    return circuit, PauliString(draw(bits), draw(bits), draw(st.integers(0, 3)), n=n)


@settings(max_examples=200, deadline=None)
@given(_circuit_and_pauli())
def test_conjugation_moves_a_pauli_through_the_circuit(case):
    # C·P|s> = (C·P·C†)·C|s> on every basis state, phase included.
    circuit, p = case
    q = p.conjugated_by(circuit.gates)
    for s in range(2**circuit.n):
        label = format(s, f"0{circuit.n}b")
        before = run(circuit, apply_pauli(StateVector.from_label(label), p))
        after = apply_pauli(run(circuit, label), q)
        assert np.max(np.abs(before.amps - after.amps)) <= 1e-12


def test_check_stabilized():
    plus = StateVector.from_label("0")
    apply_gate(plus, Gate("H", (1,)))
    assert check_stabilized(plus, PauliString.parse("X"))
    assert not check_stabilized(plus, PauliString.parse("Z"))
    assert check_stabilized(StateVector.from_label("0"), PauliString.parse("Z"))
    assert not check_stabilized(StateVector.from_label("1"), PauliString.parse("Z"))


def test_states_close_global_phase_flag():
    a = StateVector.from_label("01")
    b = StateVector(2, 1j * a.amps)
    assert not states_close(a, b)
    assert states_close(a, b, up_to_global_phase=True)
    assert not states_close(a, StateVector.from_label("0"))


def test_circuits_equivalent_scopes():
    roles = ("ancilla_zero", "logical_input")
    idle = Circuit(n=2, gates=(), roles=roles)
    kickback = Circuit(n=2, gates=(Gate("CX", (1, 2)),), roles=roles)
    # With the ancilla pinned to |0> the CX never fires...
    assert circuits_equivalent(idle, kickback, "ancilla_restricted")
    # ...but on the full space the two differ.
    assert not circuits_equivalent(idle, kickback, "full")
    with pytest.raises(ValueError, match="unknown scope"):
        circuits_equivalent(idle, kickback, "partial")


def test_circuits_equivalent_allows_one_global_phase_only(forms):
    encoder = synthesize_encoder(forms["steane"], gate_set="cnot_cz")
    (logical,) = encoder.logical_qubits()
    # Z on the logical wire flips the sign of |1_L> only: a phase per
    # input would hide it, one phase for all inputs does not.
    z_first = encoder.replace_gates((Gate("Z", (logical,)),) + encoder.gates)
    assert not circuits_equivalent(z_first, encoder)
    assert not circuits_equivalent(z_first, encoder, "full")
    # A phase shared by every input is still allowed: X Z X takes the
    # |0> ancilla to -|0> whatever the logical input.
    ancilla = encoder.roles.index("ancilla_zero") + 1
    shared = encoder.replace_gates(
        tuple(Gate(k, (ancilla,)) for k in ("X", "Z", "X")) + encoder.gates
    )
    assert circuits_equivalent(shared, encoder)
    assert not circuits_equivalent(
        shared, encoder, up_to_global_phase=False
    )


def test_circuits_equivalent_rejects_shape_mismatches():
    a = Circuit(n=2, gates=(), roles=("logical_input",) * 2)
    b = Circuit(n=3, gates=(), roles=("logical_input",) * 3)
    assert not circuits_equivalent(a, b)
    c = Circuit(n=2, gates=(), roles=("ancilla_zero", "logical_input"))
    assert not circuits_equivalent(a, c, "ancilla_restricted")


def test_logical_label_places_bits_on_logical_wires(mixed_encoders):
    encoder = mixed_encoders["eight_qubit"]
    assert logical_label(encoder, "101") == "00000101"
    with pytest.raises(ValueError, match="3 logical bits"):
        logical_label(encoder, "10")


def test_projector_oracle_matches_circuit_encoder_exactly(
    steane_sf, mixed_encoders
):
    encoder = mixed_encoders["steane"]
    for bits in ("0", "1"):
        circuit_state = run(encoder, logical_label(encoder, bits))
        oracle = projector_encode(steane_sf, bits)
        assert states_close(circuit_state, oracle)


def test_projector_encode_validates_bits(steane_sf):
    with pytest.raises(ValueError, match="1 logical bits"):
        projector_encode(steane_sf, "01")


def test_measure_syndrome_rejects_size_mismatch(steane_sf):
    with pytest.raises(ValueError, match="does not match"):
        measure_syndrome(
            StateVector.from_label("00"),
            PauliString.parse("XIIIIII"),
            steane_sf,
        )
