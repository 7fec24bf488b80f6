"""Encoder synthesis: frozen gate lists, staging, stripping, refusals."""

import numpy as np
import pytest

from conftest import random_code
from stabsynth.circuit import Circuit, Gate, gate_counts
from stabsynth.encoder import (
    GATE_SETS,
    scan_trivial_gates,
    strip_trivial_gates,
    synthesize_encoder,
    synthesize_syndrome_circuit,
)
from stabsynth.rules import REGISTRY
from stabsynth.simulator import (
    StateVector,
    apply_gate,
    circuits_equivalent,
    logical_label,
)
from stabsynth.symplectic import CheckMatrix, standard_form

MIXED_EIGHT_GATES = [
    ("CX", (6, 5)), ("CX", (7, 5)), ("CX", (8, 5)),
    ("H", (1,)), ("CY", (1, 5)), ("CY", (1, 6)), ("CX", (1, 7)), ("CZ", (1, 8)),
    ("H", (2,)), ("CY", (2, 5)), ("CX", (2, 6)), ("CZ", (2, 7)), ("CY", (2, 8)),
    ("H", (3,)), ("CZ", (3, 2)), ("CY", (3, 5)), ("CY", (3, 7)), ("CX", (3, 8)),
    ("H", (4,)), ("S", (4,)), ("CZ", (4, 3)), ("CZ", (4, 5)), ("CY", (4, 6)),
    ("CX", (4, 7)), ("CX", (4, 8)),
]


def test_mixed_eight_qubit_gate_list_frozen(mixed_encoders):
    encoder = mixed_encoders["eight_qubit"]
    assert [(g.kind, g.q) for g in encoder.gates] == MIXED_EIGHT_GATES


def test_strip_removes_only_provable_identities(forms):
    raw = synthesize_encoder(forms["eight_qubit"], gate_set="mixed", strip=False)
    stripped = strip_trivial_gates(raw)
    assert len(raw.gates) == 28 and len(stripped.gates) == 25
    removed = [g for g in raw.gates if g not in set(stripped.gates)]
    assert removed == [Gate("CZ", (1, 2)), Gate("CZ", (2, 3)), Gate("CZ", (3, 4))]
    # Each removed CZ has a leg still provably |0> at its position, so the
    # stripped circuit acts identically on every valid input.
    assert "stripped 3 trivial gates" in stripped.notes


def _reference_strip(c):
    """The encoder's strip before it shared the optimizer's scan: any kept
    gate takes its qubits out of the |0> set, and a CY with a |0> control
    is dropped like a CX."""
    zero = set(c.ancilla_qubits())
    kept = []
    for g in c.gates:
        removable = False
        if g.kind in ("Z", "S"):
            removable = g.q[0] in zero
        elif g.kind == "CZ":
            removable = g.q[0] in zero or g.q[1] in zero
        elif g.kind in ("CX", "CY"):
            removable = g.control in zero
        if removable:
            continue
        kept.append(g)
        zero.difference_update(g.q)
    if len(kept) == len(c.gates):
        return c
    return c.replace_gates(
        kept, note=f"stripped {len(c.gates) - len(kept)} trivial gates"
    )


def test_strip_matches_the_reference_on_encoders(forms):
    rng = np.random.default_rng(11)
    sfs = list(forms.values()) + [
        random_code(rng, n, int(rng.integers(1, 4))).standard_form()
        for n in (4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10)
    ]
    stripped_any = 0
    for sf in sfs:
        for gate_set in GATE_SETS:
            for strip in (True, False):
                encoder = synthesize_encoder(sf, gate_set=gate_set, strip=strip)
                assert strip_trivial_gates(encoder) == _reference_strip(encoder)
            raw = synthesize_encoder(sf, gate_set=gate_set, strip=False)
            assert synthesize_encoder(sf, gate_set=gate_set) == (
                _reference_strip(raw)
            )
            stripped_any += _reference_strip(raw) != raw
    assert stripped_any >= 10


def test_strip_keeps_a_cy_with_a_zero_control():
    # Where the shared scan and the old encoder strip differ: a CY is
    # never dropped, so it survives, and the CX after it is still
    # controlled by |0> and goes.
    gates = (Gate("CY", (2, 1)), Gate("CX", (2, 1)))
    c = Circuit(2, gates, ("logical_input", "ancilla_zero"))
    assert strip_trivial_gates(c).gates == (Gate("CY", (2, 1)),)
    assert _reference_strip(c).gates == ()
    assert scan_trivial_gates(gates, c.roles) == (
        [Gate("CY", (2, 1))], ["cnot_zero_control_elision"]
    )


def test_scan_tracks_zero_wires_through_kept_gates():
    c = Circuit(3, (
        Gate("S", (2,)), Gate("Z", (3,)), Gate("CZ", (1, 2)),
        Gate("CX", (2, 1)),
        Gate("CY", (2, 3)),  # kept, and its |0> control leaves wire 3 |0>
        Gate("CZ", (3, 1)),
        Gate("CX", (1, 2)),  # wire 2 leaves the set
        Gate("S", (2,)), Gate("CZ", (2, 3)),
        Gate("H", (3,)),  # wire 3 leaves the set
        Gate("Z", (3,)), Gate("CZ", (2, 3)),
    ), ("logical_input", "ancilla_zero", "ancilla_zero"))
    kept, dropped = scan_trivial_gates(c.gates, c.roles)
    assert kept == [c.gates[i] for i in (4, 6, 7, 9, 10, 11)]
    assert dropped == [
        "phase_zero_elision", "z_zero_elision", "cz_zero_leg_elision",
        "cnot_zero_control_elision", "cz_zero_leg_elision",
        "cz_zero_leg_elision",
    ]
    assert all(name in REGISTRY for name in dropped)
    assert circuits_equivalent(
        strip_trivial_gates(c), c, up_to_global_phase=False
    )


def test_first_stage_prefix_state(mixed_encoders):
    # After the first Hadamard and its controlled row, the all-zero input
    # sits in an equal superposition of the empty set and the first
    # standard generator's X support, with the sign the two Ys contribute.
    encoder = mixed_encoders["eight_qubit"]
    state = StateVector.from_label(logical_label(encoder, "000"))
    for g in encoder.gates[:8]:
        apply_gate(state, g)
    expected = np.zeros(256, dtype=np.complex128)
    expected[0b00000000] = 1 / np.sqrt(2)
    expected[0b10001110] = -1 / np.sqrt(2)
    assert np.max(np.abs(state.amps - expected)) < 1e-10


def test_roles_and_notes(mixed_encoders):
    encoder = mixed_encoders["eight_qubit"]
    assert encoder.roles == ("ancilla_zero",) * 5 + ("logical_input",) * 3
    assert encoder.ancilla_qubits() == [1, 2, 3, 4, 5]
    assert encoder.logical_qubits() == [6, 7, 8]
    assert "gate set: mixed" in encoder.notes
    assert any("[1, 2, 3, 5, 4, 6, 7, 8]" in note for note in encoder.notes)


def test_cnot_cz_gate_set_avoids_y_and_s(forms):
    for sf in forms.values():
        encoder = synthesize_encoder(sf, gate_set="cnot_cz")
        assert {g.kind for g in encoder.gates} <= {"H", "Z", "CX", "CZ"}


def test_unknown_gate_set_rejected(eight_sf):
    with pytest.raises(ValueError, match="unknown gate set"):
        synthesize_encoder(eight_sf, gate_set="clifford")


def test_negative_sign_generator_refused():
    sf = standard_form(CheckMatrix(["-ZZ"]))
    with pytest.raises(ValueError, match="-1 sign"):
        synthesize_encoder(sf)


def test_syndrome_circuit_shape(forms):
    meas = synthesize_syndrome_circuit(forms["steane"])
    assert meas.n == 13
    assert meas.measurements == tuple((8 + i, i) for i in range(6))
    counts = gate_counts(meas)
    assert counts["H"] == 12  # one pair per ancilla
    assert set(counts) <= {"H", "CX", "CY", "CZ"}
