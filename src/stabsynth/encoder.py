"""Encoder and syndrome-circuit synthesis from a standard-form code.

The encoder acts on n qubits of which the first n-k are ancillas prepared
in |0> and the last k carry the logical input.  It has two stages:

1. For each logical qubit i, a controlled application of logical X_i,
   controlled on qubit n-k+i.  Only the X-parts are emitted: the Z-parts
   of the canonical logical operators land exclusively on ancillas that
   are still |0> at this point, where a controlled-Z is the identity.

2. For each of the first r standard-form rows, an H on qubit i (plus an S
   when the row's own letter on qubit i is Y, i.e. the z bit on the
   diagonal is set) followed by the controlled application of the row's
   remaining letters, in ascending qubit order.

The ``mixed`` gate set realizes a controlled-Y as a CY gate; ``cnot_cz``
replaces it by CZ then CX on the same qubits and the S by a Z.  The CZ-CX
pair equals CY up to a phase of i on the control, which is why the S->Z
substitution accompanies it: the variant encoder matches the mixed one up
to a per-row sign that is recorded for downstream consumers as a Z frame
on rows with an odd number of Y letters (see the optimizer's equivalence
checks).

A final strip pass removes gates that provably act as the identity because
they touch qubits still in |0>: Z and S on such qubits, CZ with either leg
on one, and CX controlled by one.  The optimizer runs the same scan
(``scan_trivial_gates``) between its rewrite passes.
"""

from __future__ import annotations

from .circuit import Circuit, Gate
from .symplectic import StandardForm, require_unsigned

__all__ = [
    "require_unsigned",
    "synthesize_encoder",
    "scan_trivial_gates",
    "strip_trivial_gates",
    "synthesize_syndrome_circuit",
]

GATE_SETS = ("mixed", "cnot_cz")


def _perm_note(sf: StandardForm) -> str:
    order = ", ".join(str(q + 1) for q in sf.qubit_perm)
    return f"qubit positions carry original qubits [{order}]"


def synthesize_encoder(
    sf: StandardForm,
    gate_set: str = "mixed",
    *,
    strip: bool = True,
    name: str = "encoder",
) -> Circuit:
    """Synthesize the encoding circuit for a standard-form code.

    Qubit indices refer to standard-form positions; the original qubit
    order is recorded in the circuit notes.  With ``strip=False`` the raw
    synthesis output is returned, including the gates the default strip
    pass would remove.

    The ``cnot_cz`` gate set writes Z for S and CZ·CX for CY, which drops
    factors of i.  For a code whose standard form has a Y letter the
    result can prepare a state that some generator neither fixes nor
    negates, so no Z frame repairs it and ``stabsynth verify`` FAILs it
    (the [[3,2]] code ``YIZ`` is one).  This function still returns that
    circuit; ``stabsynth synth --gates cnot-cz`` refuses it.
    """
    if gate_set not in GATE_SETS:
        raise ValueError(f"unknown gate set {gate_set!r}; choose from {GATE_SETS}")
    require_unsigned(sf)
    n, k, r = sf.n, sf.k, sf.r
    gates: list[Gate] = []

    # stage 1: controlled logical-X operators
    for i in range(k):
        control = n - k + i + 1
        for j in range(1, n + 1):
            if j != control and sf.logical_x[i].x >> (n - j) & 1:
                gates.append(Gate("CX", (control, j)))

    # stage 2: one standard-form row per X pivot
    for i in range(1, r + 1):
        row = sf.generators[i - 1]
        gates.append(Gate("H", (i,)))
        if row.letter(i - 1) == "Y":
            gates.append(Gate("S" if gate_set == "mixed" else "Z", (i,)))
        for j in range(1, n + 1):
            if j == i:
                continue
            letter = row.letter(j - 1)
            if letter == "X":
                gates.append(Gate("CX", (i, j)))
            elif letter == "Z":
                gates.append(Gate("CZ", (i, j)))
            elif letter == "Y":
                if gate_set == "mixed":
                    gates.append(Gate("CY", (i, j)))
                else:
                    gates.append(Gate("CZ", (i, j)))
                    gates.append(Gate("CX", (i, j)))

    roles = ("ancilla_zero",) * (n - k) + ("logical_input",) * k
    circuit = Circuit(
        n=n,
        gates=tuple(gates),
        roles=roles,
        name=name,
        notes=(f"gate set: {gate_set}", _perm_note(sf)),
    )
    return strip_trivial_gates(circuit) if strip else circuit


def scan_trivial_gates(gates, roles) -> tuple[list[Gate], list[str]]:
    """Split ``gates`` into the kept ones and the identities on |0> qubits.

    A forward scan tracks which qubits are still exactly |0>: initially the
    ``ancilla_zero`` qubits.  Z and S on a tracked qubit, CZ with either
    qubit tracked, and CX with a tracked control are identities there and
    are dropped.  A kept H, X or Y takes its qubit out of the set, and a
    kept CX or CY takes its target out unless its control is tracked; S, Z
    and CZ fix |0> exactly.  A CY is never dropped.  Returns the kept gates
    and, for each dropped gate in order, the name of the registered rule
    (:mod:`stabsynth.rules`) that proves it trivial.
    """
    zero = {q for q, role in enumerate(roles, start=1) if role == "ancilla_zero"}
    kept: list[Gate] = []
    dropped: list[str] = []
    for g in gates:
        if g.kind in ("S", "Z") and g.q[0] in zero:
            dropped.append("phase_zero_elision" if g.kind == "S" else "z_zero_elision")
        elif g.kind == "CZ" and (g.q[0] in zero or g.q[1] in zero):
            dropped.append("cz_zero_leg_elision")
        elif g.kind == "CX" and g.control in zero:
            dropped.append("cnot_zero_control_elision")
        else:
            kept.append(g)
            if g.kind in ("H", "X", "Y"):
                zero.discard(g.q[0])
            elif g.kind in ("CX", "CY") and g.control not in zero:
                zero.discard(g.target)
    return kept, dropped


def strip_trivial_gates(c: Circuit) -> Circuit:
    """Remove gates that provably act as the identity on |0> qubits.

    The gates dropped are those of :func:`scan_trivial_gates`; a note
    records how many.
    """
    kept, dropped = scan_trivial_gates(c.gates, c.roles)
    if not dropped:
        return c
    return c.replace_gates(kept, note=f"stripped {len(dropped)} trivial gates")


def synthesize_syndrome_circuit(sf: StandardForm, *, name: str = "syndrome") -> Circuit:
    """Syndrome-measurement circuit: one ancilla per standard generator.

    The circuit acts on n data qubits followed by n-k measurement ancillas.
    Ancilla i is Hadamard-conjugated around a controlled application of
    standard generator i; measuring it yields syndrome bit i (bit 1 is the
    most significant in the decimal rendering).
    """
    n, m = sf.n, sf.m
    gates: list[Gate] = []
    measurements: list[tuple[int, int]] = []
    for i in range(1, m + 1):
        ancilla = n + i
        gates.append(Gate("H", (ancilla,)))
        for j in range(1, n + 1):
            letter = sf.generators[i - 1].letter(j - 1)
            if letter == "I":
                continue
            kind = {"X": "CX", "Z": "CZ", "Y": "CY"}[letter]
            gates.append(Gate(kind, (ancilla, j)))
        gates.append(Gate("H", (ancilla,)))
        measurements.append((ancilla, i - 1))
    roles = ("logical_input",) * n + ("ancilla_zero",) * m
    return Circuit(
        n=n + m,
        gates=tuple(gates),
        roles=roles,
        name=name,
        notes=(_perm_note(sf), "measurement bit i-1 holds syndrome bit i"),
        measurements=tuple(measurements),
    )
