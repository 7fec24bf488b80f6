"""Independent statevector oracle for the benchmark's correctness checks.

Shares no code with ``stabsynth.simulator``: gates act on flat basis
indices through bit arithmetic (every Clifford gate but H is a permutation
times a phase), and a whole batch of input states is carried as the
columns of one array.  Qubit 1 is the most significant bit of an index.

Circuits are described by plain data, ``(n, roles, gates)`` with gates as
``(kind, qubits)`` pairs, so that nothing here depends on how the program
represents them.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9
_R2 = 1.0 / np.sqrt(2.0)


def restricted_inputs(n: int, roles) -> np.ndarray:
    """Every basis input with ancillas |0>, as columns of a (2^n, 2^k) array.

    Logical qubits, in qubit order, take the bits of the column index,
    most significant first.
    """
    logical = [q for q in range(1, n + 1) if roles[q - 1] == "logical_input"]
    k = len(logical)
    states = np.zeros((1 << n, 1 << k), dtype=np.complex128)
    for col in range(1 << k):
        idx = 0
        for pos, q in enumerate(logical):
            if (col >> (k - 1 - pos)) & 1:
                idx |= 1 << (n - q)
        states[idx, col] = 1.0
    return states


def apply(states: np.ndarray, n: int, gates) -> np.ndarray:
    """Apply ``gates`` in order to every column of ``states``."""
    idx = np.arange(1 << n)
    out = states
    for kind, qs in gates:
        b = 1 << (n - qs[0])
        on = (idx & b) != 0
        if kind == "X":
            out = out[idx ^ b]
        elif kind == "Z":
            out = out * np.where(on, -1.0, 1.0)[:, None]
        elif kind == "S":
            out = out * np.where(on, 1j, 1.0)[:, None]
        elif kind == "Y":
            out = out[idx ^ b] * np.where(on, 1j, -1j)[:, None]
        elif kind == "H":
            out = (out[idx & ~b] + np.where(on, -1.0, 1.0)[:, None] * out[idx | b]) * _R2
        else:
            t = 1 << (n - qs[1])
            ctrl = on
            hit = (idx & t) != 0
            if kind == "CX":
                out = out[np.where(ctrl, idx ^ t, idx)]
            elif kind == "CZ":
                out = out * np.where(ctrl & hit, -1.0, 1.0)[:, None]
            elif kind == "CY":
                phase = np.where(ctrl, np.where(hit, 1j, -1j), 1.0)
                out = out[np.where(ctrl, idx ^ t, idx)] * phase[:, None]
            else:
                raise ValueError(f"oracle does not know gate {kind!r}")
    return out


def outputs(n: int, roles, gates, column: int | None = None) -> np.ndarray:
    """Outputs of the circuit on every ancilla-restricted basis input.

    With ``column`` set, only on that one input, as a 1-D state.
    """
    inputs = restricted_inputs(n, roles)
    if column is not None:
        return apply(inputs[:, column:column + 1], n, gates)[:, 0]
    return apply(inputs, n, gates)


def same_up_to_one_phase(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff a = e^{i phi} b for one phase shared by every column."""
    i = int(np.argmax(np.abs(b).ravel()))
    bi = b.ravel()[i]
    ai = a.ravel()[i]
    if abs(bi) < TOL or abs(abs(ai) - abs(bi)) > TOL:
        return False
    phase = ai / bi
    return bool(np.max(np.abs(a - phase * b)) <= TOL)


def exactly_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.max(np.abs(a - b)) <= TOL)


def apply_pauli_letters(state: np.ndarray, n: int, letters: str) -> np.ndarray:
    """Apply an unsigned Pauli string (e.g. ``"IXZY"``) to a state vector."""
    gates = [(ch, (q,)) for q, ch in enumerate(letters, start=1) if ch != "I"]
    return apply(state.reshape(-1, 1), n, gates)[:, 0]


def anticommutes(a: str, b: str) -> bool:
    """Symplectic product of two unsigned Pauli letter strings."""
    odd = 0
    for x, y in zip(a, b):
        if x != "I" and y != "I" and x != y:
            odd ^= 1
    return bool(odd)
