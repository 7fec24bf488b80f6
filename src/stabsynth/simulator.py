"""Dense statevector simulator and verification oracle.

States are length-2^n complex128 arrays with qubit 1 as the most
significant bit of the basis index, so a printed label like |10001110>
reads left-to-right as qubits 1..n.  Gates are applied as exact sparse
updates on reshaped views; every application asserts norm preservation to
1e-10.

This module is deliberately independent of the synthesis path wherever it
serves as an oracle: ``projector_encode`` builds encoded states directly
from the standard-form generators by expanding the stabilizer projector,
with no circuit involved, so circuit-produced states can be checked
against it.

``apply_pauli`` is a signed permutation of the amplitudes: it flips each
basis index by the operator's x bits and reads each sign from one
(-1)^popcount table, which is built once per n and shared.  Every
applied phase is a power of i, so it moves amplitudes exactly.  That is
what lets ``stabsynth verify`` simulate one logical input per side and
reach every other input with one Pauli: the circuit's C|b> is
(C·X^b·C†)·C|0>, the conjugation coming from
``PauliString.conjugated_by``.
"""

from __future__ import annotations

import functools

import numpy as np

from .circuit import Circuit, Gate
from .encoder import synthesize_syndrome_circuit
from .pauli import PauliString
from .symplectic import StandardForm

__all__ = [
    "StateVector",
    "run",
    "apply_pauli",
    "projector_encode",
    "check_stabilized",
    "states_close",
    "circuits_equivalent",
    "measure_syndrome",
    "roundtrip_correct",
]

TOL = 1e-10

_SQ = 1.0 / np.sqrt(2.0)
_GATE_1Q = {
    "H": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
_CONTROLLED = {"CX": _GATE_1Q["X"], "CY": _GATE_1Q["Y"], "CZ": _GATE_1Q["Z"]}


class StateVector:
    """n-qubit state; ``amps[b]`` is the amplitude of basis label b."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray | None = None):
        self.n = int(n)
        if amps is None:
            amps = np.zeros(2**self.n, dtype=np.complex128)
            amps[0] = 1.0
        else:
            amps = np.asarray(amps, dtype=np.complex128)
            if amps.shape != (2**self.n,):
                raise ValueError(f"need {2**self.n} amplitudes for n={self.n}")
        self.amps = amps

    @classmethod
    def from_label(cls, label: str) -> "StateVector":
        if set(label) - {"0", "1"}:
            raise ValueError(f"basis label must be bits, got {label!r}")
        state = cls(len(label))
        state.amps[0] = 0.0
        state.amps[int(label, 2)] = 1.0
        return state

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def nonzero_labels(self, tol: float = TOL) -> list[tuple[str, complex]]:
        """(label, amplitude) pairs for printing, most significant first."""
        out = []
        for idx in np.nonzero(np.abs(self.amps) > tol)[0]:
            out.append((format(idx, f"0{self.n}b"), complex(self.amps[idx])))
        return out

    def __repr__(self) -> str:
        return f"StateVector(n={self.n})"


def _apply_1q(amps: np.ndarray, n: int, qubit: int, u: np.ndarray) -> None:
    axis = qubit - 1
    view = amps.reshape((2,) * n)
    idx0 = (slice(None),) * axis + (0,)
    idx1 = (slice(None),) * axis + (1,)
    a0 = view[idx0].copy()
    a1 = view[idx1].copy()
    view[idx0] = u[0, 0] * a0 + u[0, 1] * a1
    view[idx1] = u[1, 0] * a0 + u[1, 1] * a1


def _apply_controlled(amps: np.ndarray, n: int, control: int, target: int, u: np.ndarray) -> None:
    view = amps.reshape((2,) * n)
    sub = view[(slice(None),) * (control - 1) + (1,)]
    t_axis = target - 1 - (1 if target > control else 0)
    idx0 = (slice(None),) * t_axis + (0,)
    idx1 = (slice(None),) * t_axis + (1,)
    a0 = sub[idx0].copy()
    a1 = sub[idx1].copy()
    sub[idx0] = u[0, 0] * a0 + u[0, 1] * a1
    sub[idx1] = u[1, 0] * a0 + u[1, 1] * a1


def apply_gate(state: StateVector, gate: Gate) -> None:
    """Apply one gate in place, asserting norm preservation."""
    if gate.kind in _GATE_1Q:
        _apply_1q(state.amps, state.n, gate.q[0], _GATE_1Q[gate.kind])
    else:
        _apply_controlled(
            state.amps, state.n, gate.control, gate.target, _CONTROLLED[gate.kind]
        )
    if abs(state.norm() - 1.0) > TOL:
        raise AssertionError(f"norm drifted to {state.norm()} after {gate}")


def run(c: Circuit, start: StateVector | str | None = None) -> StateVector:
    """Apply the circuit's gates in order.

    ``start`` may be a StateVector, a basis label string of length n, or
    None for |0...0>.
    """
    if start is None:
        state = StateVector(c.n)
    elif isinstance(start, str):
        if len(start) != c.n:
            raise ValueError(f"label length {len(start)} != n={c.n}")
        state = StateVector.from_label(start)
    else:
        if start.n != c.n:
            raise ValueError(f"state has {start.n} qubits, circuit has {c.n}")
        state = start.copy()
    for gate in c.gates:
        apply_gate(state, gate)
    return state


def logical_label(c: Circuit, bits: str) -> str:
    """Full basis label with ancillas |0> and ``bits`` on the logical qubits."""
    logical = c.logical_qubits()
    if len(bits) != len(logical):
        raise ValueError(f"need {len(logical)} logical bits, got {len(bits)!r}")
    label = ["0"] * c.n
    for bit, qubit in zip(bits, logical):
        label[qubit - 1] = bit
    return "".join(label)


@functools.cache
def _index_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices 0..2^n-1 and (-1)^popcount(i) for each index i.

    Z^z multiplies amplitude i by ``signs[i & z]``.  Both arrays are read
    only and shared by every ``apply_pauli`` call on n qubits.
    """
    signs = np.ones(1)
    for _ in range(n):  # the upper half has one more set bit
        signs = np.concatenate([signs, -signs])
    indices = np.arange(2**n, dtype=np.int64)
    indices.flags.writeable = signs.flags.writeable = False
    return indices, signs


def apply_pauli(state: StateVector, p: PauliString) -> StateVector:
    """Return p applied to the state (not in place).

    ``p.x`` and ``p.z`` share the basis index's layout (qubit 1 the most
    significant bit), so ``p.x`` flips an index by one XOR.
    """
    if p.n != state.n:
        raise ValueError(f"operator has {p.n} qubits, state has {state.n}")
    n = state.n
    indices, signs = _index_tables(n)
    phase = (1j) ** (p.phase_exp + (p.x & p.z).bit_count())
    out = np.empty_like(state.amps)
    out[indices ^ p.x] = state.amps * phase * signs[indices & p.z]
    return StateVector(n, out)


def projector_encode(sf: StandardForm, bits: str) -> StateVector:
    """Encoded basis state built by stabilizer-projector expansion.

    Expands prod_{i<=r} (I + M_i)|0...0> as a sum over the 2^r products of
    the X-pivot standard generators (the pure-Z rows fix |0...0> already and
    contribute only normalization), then applies logical-X operators for
    the set logical bits.  Built entirely from operators — no circuit — so
    it independently checks the synthesized encoders.
    """
    n, r, k = sf.n, sf.r, sf.k
    if len(bits) != k or set(bits) - {"0", "1"}:
        raise ValueError(f"need {k} logical bits, got {bits!r}")
    amps = np.zeros(2**n, dtype=np.complex128)
    for subset in range(2**r):
        members = [i for i in range(r) if (subset >> i) & 1]
        if members:
            prod = sf.generators[members[0]]
            for i in members[1:]:
                prod = prod * sf.generators[i]
        else:
            prod = PauliString.identity(n)
        # P|0...0> puts amplitude i^(phase + #Y) on the label given by P's x bits
        amps[prod.x] += (1j) ** (prod.phase_exp + (prod.x & prod.z).bit_count())
    state = StateVector(n, amps)
    nrm = state.norm()
    if nrm < TOL:
        raise ValueError(
            "projector annihilated |0...0>: generator signs are inconsistent "
            "with a nonempty codespace containing that state"
        )
    state.amps /= nrm
    for i, bit in enumerate(bits):
        if bit == "1":
            state = apply_pauli(state, sf.logical_x[i])
    return state


def check_stabilized(state: StateVector, g: PauliString) -> bool:
    """True iff g fixes the state elementwise (a +1 eigenstate)."""
    moved = apply_pauli(state, g)
    return bool(np.max(np.abs(moved.amps - state.amps)) <= TOL)


def _relative_phase(av: np.ndarray, bv: np.ndarray):
    """Unit phase p with ``bv ≈ p * av`` at ``av``'s leading amplitude.

    Returns 1 when ``av`` is zero and ``None`` when ``bv`` vanishes where
    ``av`` does not, since then no phase can align them.
    """
    lead = np.nonzero(np.abs(av) > TOL)[0]
    if lead.size == 0:
        return 1
    i = lead[0]
    if abs(bv[i]) <= TOL:
        return None
    phase = bv[i] / av[i]
    return phase / abs(phase)


def states_close(
    a: StateVector, b: StateVector, *, up_to_global_phase: bool = False
) -> bool:
    if a.n != b.n:
        return False
    av, bv = a.amps, b.amps
    if up_to_global_phase:
        phase = _relative_phase(av, bv)
        if phase is None:
            return False
        av = av * phase
    return bool(np.max(np.abs(av - bv)) <= TOL)


def circuits_equivalent(
    c1: Circuit,
    c2: Circuit,
    scope: str = "ancilla_restricted",
    *,
    up_to_global_phase: bool = True,
) -> bool:
    """Compare two circuits by exhaustive simulation.

    ``full`` scope runs every basis state; ``ancilla_restricted`` fixes
    ancilla_zero qubits to |0> and sweeps only the logical inputs, which is
    the equivalence the optimizer must preserve.  With the global-phase
    flag the circuits may differ by one phase shared by every input: it
    is read off the first input and every later input must match under
    it.  A phase per input would hide a relative phase between inputs,
    such as a Z on a logical wire.
    """
    if scope not in ("full", "ancilla_restricted"):
        raise ValueError(f"unknown scope {scope!r}")
    if c1.n != c2.n:
        return False
    if scope == "full":
        labels = [format(i, f"0{c1.n}b") for i in range(2**c1.n)]
    else:
        if c1.roles != c2.roles:
            return False
        logical = c1.logical_qubits()
        labels = []
        for i in range(2 ** len(logical)):
            bits = format(i, f"0{len(logical)}b") if logical else ""
            labels.append(logical_label(c1, bits))
    phase = None
    for label in labels:
        a = run(c1, label).amps
        b = run(c2, label).amps
        if up_to_global_phase:
            if phase is None:
                phase = _relative_phase(a, b)
                if phase is None:
                    return False
            a = a * phase
        if np.max(np.abs(a - b)) > TOL:
            return False
    return True


def _read_deterministic_bit(state: StateVector, qubit: int) -> int:
    """Marginal of one qubit, asserting it is deterministic."""
    view = state.amps.reshape((2,) * state.n)
    p1 = float(np.sum(np.abs(view[(slice(None),) * (qubit - 1) + (1,)]) ** 2))
    if p1 > 1.0 - TOL:
        return 1
    if p1 < TOL:
        return 0
    raise ValueError(
        f"measurement of qubit {qubit} is not deterministic (p1={p1:.6f}); "
        "the input state is not a codeword with a Pauli error"
    )


def measure_syndrome(
    encoded: StateVector, error: PauliString, sf: StandardForm
) -> int:
    """Circuit-level syndrome readout, as an int of width m.

    Applies the error to the encoded state, adjoins |0> ancillas, runs the
    syndrome-measurement circuit, and reads the ancillas: measurement bit
    ``b`` holds syndrome bit ``b + 1``, so it lands on bit ``m - 1 - b``.
    Outcomes are asserted deterministic — codewords with Pauli errors
    always are.
    """
    if encoded.n != sf.n:
        raise ValueError("state size does not match code")
    circuit = synthesize_syndrome_circuit(sf)
    faulty = apply_pauli(encoded, error)
    extended = np.zeros(2 ** circuit.n, dtype=np.complex128)
    extended.reshape(2**sf.n, -1)[:, 0] = faulty.amps
    state = StateVector(circuit.n, extended)
    for gate in circuit.gates:
        apply_gate(state, gate)
    bits = 0
    for qubit, bit_index in circuit.measurements:
        bits |= _read_deterministic_bit(state, qubit) << (sf.m - 1 - bit_index)
    return bits


def roundtrip_correct(
    sf: StandardForm,
    table,
    bits: str,
    error: PauliString,
    *,
    encoder: Circuit | None = None,
) -> bool:
    """Encode, corrupt, measure, decode, correct — true iff restored.

    ``table`` is a SyndromeTable; ``encoder`` selects circuit-level
    encoding (projector expansion when omitted).  Comparison is up to
    global phase.
    """
    if encoder is not None:
        clean = run(encoder, logical_label(encoder, bits))
    else:
        clean = projector_encode(sf, bits)
    syndrome = measure_syndrome(clean, error, sf)
    correction = table.decode(syndrome)
    if correction is None:
        return False
    repaired = apply_pauli(apply_pauli(clean, error), correction)
    return states_close(repaired, clean, up_to_global_phase=True)
