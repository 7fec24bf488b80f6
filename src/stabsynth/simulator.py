"""Dense statevector simulator and verification oracle.

States are length-2^n complex128 arrays with qubit 1 as the most
significant bit of the basis index, so a printed label like |10001110>
reads left-to-right as qubits 1..n.  Each gate kind has its own in-place
update on the two reshaped halves it mixes: a swap for X and CX, a
negation for Z and CZ, a factor i for S, ±i with a swap for Y and CY, and
a butterfly for H.  Gates run through a ``GatePlan``, which looks up each
gate's update and views once per gate list and buffer.  A plan's buffer
may hold several states, one per row of shape (B, 2^n): the views are
sized from the trailing end, so the row axis folds into them and every
update runs on all B rows at once, each row going through exactly the
elementwise arithmetic it would alone.  After every gate each row's norm
is asserted to stay within 1e-10 of 1.  ``circuits_equivalent`` proves
up to ``BATCH_AMPS`` (2^13) amplitudes of basis inputs per execution.
No state is allocated on more than ``MAX_QUBITS`` (26) qubits: past it,
``dense_size`` raises ``DenseLimitError`` before any memory is taken.
All three live in the numpy-free ``limits`` and are re-exported here.

This module is deliberately independent of the synthesis path wherever it
serves as an oracle: ``projector_encode`` builds encoded states directly
from the standard-form generators by expanding the stabilizer projector,
with no circuit involved, so circuit-produced states can be checked
against it.

A Pauli is a signed permutation of the amplitudes: ``apply_pauli`` flips
each basis index by the operator's x bits and reads each sign from one
(-1)^popcount table, which is built once per n and shared.  Every
applied phase is a power of i, so it moves amplitudes exactly.

``stabsynth simulate`` and the optimizer's final proof run here;
``stabsynth verify`` does not, since ``stabilizer`` decides it exactly
without amplitude arrays, and the tests keep this module as its dense
reference.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .circuit import Circuit, Gate
from .encoder import synthesize_syndrome_circuit
from .limits import MAX_QUBITS, DenseLimitError, dense_size
from .pauli import PauliString
from .symplectic import StandardForm

__all__ = [
    "MAX_QUBITS",
    "DenseLimitError",
    "dense_size",
    "StateVector",
    "GatePlan",
    "apply_gate",
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

# At most this many amplitudes per side in one ``circuits_equivalent``
# execution: B = max(1, BATCH_AMPS >> n) basis inputs per plan run.
BATCH_AMPS = 1 << 13

_SQ = 1.0 / np.sqrt(2.0)


class StateVector:
    """n-qubit state; ``amps[b]`` is the amplitude of basis label b."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray | None = None):
        self.n = int(n)
        dim = dense_size(self.n)
        if amps is None:
            amps = np.zeros(dim, dtype=np.complex128)
            amps[0] = 1.0
        else:
            amps = np.ascontiguousarray(amps, dtype=np.complex128)
            if amps.shape != (dim,):
                raise ValueError(f"need {dim} amplitudes for n={self.n}")
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


def _halves(amps: np.ndarray, q: tuple[int, ...], n: int):
    """Views of the amplitudes whose target bit is 0 and whose target bit is 1.

    ``q`` is (qubit,) or (control, target); for a controlled gate both
    views hold only the amplitudes whose control bit is 1.  The axes are
    sized from the trailing end, so a leading row axis folds into the first.
    """
    if len(q) == 1:
        view = amps.reshape(-1, 2, 1 << (n - q[0]))
        a0, a1 = view[:, 0], view[:, 1]
    else:
        c, t = q
        lo, hi = min(c, t), max(c, t)
        view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << (n - hi))
        if c < t:
            a0, a1 = view[:, 1, :, 0], view[:, 1, :, 1]
        else:
            a0, a1 = view[:, 0, :, 1], view[:, 1, :, 1]
    return a0.squeeze(), a1.squeeze()  # fewer axes, cheaper ufunc loops


def _swap(a0: np.ndarray, a1: np.ndarray) -> None:  # X
    kept = a0.copy()
    a0[...] = a1
    a1[...] = kept


def _swap_y(a0: np.ndarray, a1: np.ndarray) -> None:  # Y = [[0, -i], [i, 0]]
    kept = a0 * 1j
    np.multiply(a1, -1j, out=a0)
    a1[...] = kept


def _negate(a0: np.ndarray, a1: np.ndarray) -> None:  # Z
    np.negative(a1, out=a1)


def _phase(a0: np.ndarray, a1: np.ndarray) -> None:  # S
    a1 *= 1j


def _butterfly(a0: np.ndarray, a1: np.ndarray, kept, amps) -> None:  # H
    np.copyto(kept, a0)
    np.add(a0, a1, out=a0)
    np.subtract(kept, a1, out=a1)
    np.multiply(amps, _SQ, out=amps)  # the two halves are the whole state


# One in-place update per gate kind; a controlled gate applies its
# target's update to the control-1 half.  Every update but H's moves
# amplitudes exactly (multiplying by ±1 or ±i).  H's also takes a scratch
# copy of its 0-half and the whole buffer, which ``GatePlan`` supplies.
_KERNELS = {
    "X": _swap, "CX": _swap,
    "Y": _swap_y, "CY": _swap_y,
    "Z": _negate, "CZ": _negate,
    "S": _phase,
    "H": _butterfly,
}


# Each row's squared norm must stay within (1 ± TOL)².  np.vecdot (numpy
# 2) sums each row's squares in one call; einsum does the same on numpy 1.
_ROW_DOTS = getattr(np, "vecdot", None) or functools.partial(np.einsum, "ij,ij->i")
_NORM2_LO, _NORM2_HI = (1.0 - TOL) ** 2, (1.0 + TOL) ** 2


class GatePlan:
    """A gate list compiled against one state buffer.

    The buffer is C-contiguous with 2^n amplitudes on its last axis and
    holds one state per row: shape (2^n,) or (B, 2^n).  Building the plan
    resolves each gate's kernel and the two half-views it mixes once;
    gates on the same qubit tuple share their views, and every H shares
    one scratch buffer.  ``execute`` applies the gates in order to every
    row at once and asserts after every gate that each row's norm stays
    within ``TOL`` of 1; a NaN or infinite norm fails too.  A caller that
    runs the same gates on many inputs refills the rows (``run_basis``)
    and executes the plan again; the views stay valid as long as the
    buffer lives.
    """

    __slots__ = ("amps", "_rows", "_steps")

    def __init__(self, gates, amps: np.ndarray):
        if not amps.flags.c_contiguous:
            raise ValueError("a gate plan needs a C-contiguous buffer")
        self.amps = amps
        dim = amps.shape[-1]
        self._rows = amps.reshape(-1, dim)
        n = dim.bit_length() - 1
        views: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        kept = None
        steps = []
        for gate in gates:
            halves = views.get(gate.q)
            if halves is None:
                halves = views[gate.q] = _halves(amps, gate.q, n)
            if gate.kind == "H":
                if kept is None:
                    kept = np.empty(amps.size // 2, dtype=amps.dtype)
                halves += (kept.reshape(halves[0].shape), amps)
            steps.append((functools.partial(_KERNELS[gate.kind], *halves), gate))
        self._steps = steps

    def execute(self) -> None:
        """Apply the gates in order to every row of the buffer, in place."""
        pairs = self._rows.view(np.float64)  # each row's re, im interleaved
        for step, gate in self._steps:
            step()
            norms2 = _ROW_DOTS(pairs, pairs).tolist()
            # min and max pass over a NaN that is not first; sum does not.
            if (min(norms2) < _NORM2_LO or max(norms2) > _NORM2_HI
                    or not math.isfinite(sum(norms2))):
                worst = max(norms2, key=lambda x: abs(x - 1.0)
                            if math.isfinite(x) else math.inf)
                raise AssertionError(
                    f"norm drifted to {math.sqrt(worst)} after {gate}"
                )

    def run_basis(self, indices) -> np.ndarray:
        """Reset row r to basis state ``indices[r]``, execute, return those rows.

        Rows past the last index repeat it, so a short last chunk of
        inputs runs on the same plan.
        """
        rows = self._rows
        count = len(indices)
        if not 0 < count <= len(rows):
            raise ValueError(f"need 1 to {len(rows)} indices, got {count}")
        indices = list(indices)
        rows.fill(0.0)
        rows[range(len(rows)), indices + indices[-1:] * (len(rows) - count)] = 1.0
        self.execute()
        return rows[:count]


def apply_gate(state: StateVector, gate: Gate) -> None:
    """Apply one gate in place, asserting norm preservation."""
    GatePlan((gate,), state.amps).execute()


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
    GatePlan(c.gates, state.amps).execute()
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
    dim = dense_size(n)
    signs = np.ones(1)
    for _ in range(n):  # the upper half has one more set bit
        signs = np.concatenate([signs, -signs])
    indices = np.arange(dim, dtype=np.int64)
    indices.flags.writeable = signs.flags.writeable = False
    return indices, signs


def apply_pauli(state: StateVector, p: PauliString) -> StateVector:
    """Return p applied to the state (not in place).

    ``p.x`` and ``p.z`` share the basis index's layout (qubit 1 the most
    significant bit), so ``p.x`` flips an index by one XOR: index i of
    p·state reads index i ^ p.x of the state.
    """
    if p.n != state.n:
        raise ValueError(f"operator has {p.n} qubits, state has {state.n}")
    indices, signs = _index_tables(state.n)
    phase = (1j) ** (p.phase_exp + (p.x & p.z).bit_count())
    source = indices ^ p.x
    return StateVector(state.n, state.amps[source] * phase * signs[source & p.z])


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
    amps = np.zeros(dense_size(n), dtype=np.complex128)
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
    the equivalence the optimizer must preserve.  Each side compiles one
    ``GatePlan`` over a buffer of B = max(1, ``BATCH_AMPS`` >> n) rows
    (never more rows than inputs); each chunk of B inputs resets the rows
    to its basis states, executes the plan once and is compared row by
    row, so no buffer exceeds 2^13 amplitudes unless one state does.
    With the global-phase flag the circuits may differ by one phase shared
    by every input: it is read off the first input and every later input
    must match under it.  A phase per input would hide a relative phase between inputs,
    such as a Z on a logical wire.
    """
    if scope not in ("full", "ancilla_restricted"):
        raise ValueError(f"unknown scope {scope!r}")
    if c1.n != c2.n:
        return False
    dim = dense_size(c1.n)
    if scope == "full":
        inputs = range(dim)
    else:
        if c1.roles != c2.roles:
            return False
        k = len(c1.logical_qubits())
        inputs = [
            int(logical_label(c1, format(i, f"0{k}b") if k else ""), 2)
            for i in range(2**k)
        ]
    rows = min(len(inputs), max(1, BATCH_AMPS >> c1.n))
    plan1 = GatePlan(c1.gates, np.empty((rows, dim), dtype=np.complex128))
    plan2 = GatePlan(c2.gates, np.empty((rows, dim), dtype=np.complex128))
    phase = None
    for start in range(0, len(inputs), rows):
        chunk = inputs[start:start + rows]
        a = plan1.run_basis(chunk)
        b = plan2.run_basis(chunk)
        if up_to_global_phase:
            if phase is None:
                phase = _relative_phase(a[0], b[0])
                if phase is None:
                    return False
            a = a * phase
        if (np.abs(a - b).max(axis=1) > TOL).any():  # row by row
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
    extended = np.zeros(dense_size(circuit.n), dtype=np.complex128)
    extended.reshape(2**sf.n, -1)[:, 0] = faulty.amps
    state = StateVector(circuit.n, extended)
    GatePlan(circuit.gates, state.amps).execute()
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
