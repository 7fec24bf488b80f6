"""Dense statevector semantics: gates, Pauli action, comparisons, oracle."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabsynth import simulator
from stabsynth.circuit import GATE_KINDS, ONE_QUBIT_KINDS, Circuit, Gate
from stabsynth.encoder import synthesize_encoder
from stabsynth.library import loads_stab
from stabsynth.pauli import PauliString
from stabsynth.simulator import (
    GatePlan,
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


def test_basis_state_construction_rejects_bad_input():
    with pytest.raises(ValueError, match="^need 4 amplitudes for n=2$"):
        StateVector(2, np.zeros(3))
    with pytest.raises(ValueError, match="basis label must be bits, got '012'"):
        StateVector.from_label("012")


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


_REFERENCE_1Q = {
    "H": np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _reference_apply_gate(amps, n, gate):
    """The generic 2x2 update on an n-dimensional view, one copy per half."""
    view = amps.reshape((2,) * n)
    if len(gate.q) == 1:
        u, sub, axis = _REFERENCE_1Q[gate.kind], view, gate.q[0] - 1
    else:
        c, t = gate.q
        u = _REFERENCE_1Q[gate.kind[1]]
        sub = view[(slice(None),) * (c - 1) + (1,)]
        axis = t - 1 - (1 if t > c else 0)
    idx0 = (slice(None),) * axis + (0,)
    idx1 = (slice(None),) * axis + (1,)
    a0 = sub[idx0].copy()
    a1 = sub[idx1].copy()
    sub[idx0] = u[0, 0] * a0 + u[0, 1] * a1
    sub[idx1] = u[1, 0] * a0 + u[1, 1] * a1


def test_gate_kernels_match_the_generic_update():
    # Every kind and both control/target orders on random states, some
    # with zero amplitudes.  Only H rounds: the others move amplitudes by
    # ±1 or ±i, so they match exactly (== ignores the sign of a zero).
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        gates = [Gate(k, (q,)) for k in ONE_QUBIT_KINDS for q in range(1, n + 1)]
        gates += [
            Gate(k, (c, t)) for k in ("CX", "CY", "CZ")
            for c in range(1, n + 1) for t in range(1, n + 1) if c != t
        ]
        for gate in gates:
            for sparse in (False, True):
                amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                if sparse:
                    amps[rng.random(2**n) < 0.5] = 0
                    amps[0] = 1
                state = StateVector(n, amps / np.linalg.norm(amps))
                want = state.amps.copy()
                _reference_apply_gate(want, n, gate)
                apply_gate(state, gate)
                if gate.kind == "H":
                    assert np.max(np.abs(state.amps - want)) <= 1e-14, gate
                else:
                    assert np.array_equal(state.amps, want), gate


def test_apply_gate_rejects_a_kernel_that_changes_the_norm(monkeypatch):
    def stretch(a0, a1):
        a1 *= 1 + 1e-9

    monkeypatch.setitem(simulator._KERNELS, "S", stretch)
    state = StateVector(2, np.full(4, 0.5, dtype=np.complex128))
    with pytest.raises(AssertionError, match="norm drifted"):
        apply_gate(state, Gate("S", (2,)))
    apply_gate(StateVector.from_label("00"), Gate("S", (2,)))  # |1> part is 0


# The per-gate loop the gate plan replaced: views and kernel looked up at
# every gate, and the H butterfly on its two halves alone.


def _per_gate_halves(amps, q):
    if len(q) == 1:
        view = amps.reshape(1 << (q[0] - 1), 2, -1)
        return view[:, 0], view[:, 1]
    c, t = q
    lo, hi = min(c, t), max(c, t)
    view = amps.reshape(1 << (lo - 1), 2, 1 << (hi - lo - 1), 2, -1)
    if c < t:
        return view[:, 1, :, 0], view[:, 1, :, 1]
    return view[:, 0, :, 1], view[:, 1, :, 1]


def _per_gate_swap(a0, a1):
    kept = a0.copy()
    a0[...] = a1
    a1[...] = kept


def _per_gate_swap_y(a0, a1):
    kept = a0 * 1j
    np.multiply(a1, -1j, out=a0)
    a1[...] = kept


def _per_gate_butterfly(a0, a1):
    total = a0 + a1
    np.subtract(a0, a1, out=a1)
    np.multiply(total, 1.0 / np.sqrt(2.0), out=a0)
    a1 *= 1.0 / np.sqrt(2.0)


def _per_gate_negate(a0, a1):
    np.negative(a1, out=a1)


def _per_gate_phase(a0, a1):
    a1 *= 1j


_PER_GATE_KERNELS = {
    "X": _per_gate_swap, "CX": _per_gate_swap,
    "Y": _per_gate_swap_y, "CY": _per_gate_swap_y,
    "Z": _per_gate_negate, "CZ": _per_gate_negate,
    "S": _per_gate_phase, "H": _per_gate_butterfly,
}


def _same_bits(a, b):
    """Equal as bit patterns, so a -0.0 against a 0.0 also fails."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _per_gate_run(amps, gates):
    for gate in gates:
        _PER_GATE_KERNELS[gate.kind](*_per_gate_halves(amps, gate.q))
        assert abs(np.linalg.norm(amps) - 1.0) <= 1e-10


def _draw_gates(draw, n):
    """Gates of every kind on a few qubit tuples used again and again."""
    qubit = st.integers(1, n)
    singles = draw(st.lists(qubit.map(lambda q: (q,)), min_size=1, max_size=3))
    pairs = []
    if n > 1:
        pair = st.tuples(qubit, qubit).filter(lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, min_size=1, max_size=3))
    kinds = GATE_KINDS if n > 1 else ONE_QUBIT_KINDS
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=30)):
        pool = singles if kind in ONE_QUBIT_KINDS else pairs
        gates.append(Gate(kind, draw(st.sampled_from(pool))))
    return gates


def _draw_start(draw, n):
    """A basis state or a random unit state on n qubits."""
    if draw(st.booleans()):
        start = np.zeros(2**n, dtype=np.complex128)
        start[draw(st.integers(0, 2**n - 1))] = 1.0
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        start = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        start /= np.linalg.norm(start)
    return start


@st.composite
def _gates_and_start(draw):
    """1-10 qubits, gates of every kind on a few qubit tuples used again
    and again, and a basis or a random start state."""
    n = draw(st.integers(1, 10))
    return n, _draw_gates(draw, n), _draw_start(draw, n)


@st.composite
def _gates_and_rows(draw):
    """As ``_gates_and_start``, with 1-8 start states, one per row."""
    n = draw(st.integers(1, 10))
    gates = _draw_gates(draw, n)
    rows = [_draw_start(draw, n) for _ in range(draw(st.integers(1, 8)))]
    return n, gates, np.array(rows)


@settings(max_examples=300, deadline=None)
@given(_gates_and_start())
def test_gate_plan_is_bit_identical_to_the_per_gate_loop(case):
    n, gates, start = case
    want = start.copy()
    _per_gate_run(want, gates)
    plan = GatePlan(gates, start.copy())
    plan.execute()
    assert _same_bits(plan.amps, want)
    circuit = Circuit(n=n, gates=gates, roles=("logical_input",) * n)
    assert _same_bits(run(circuit, StateVector(n, start)).amps, want)
    one_at_a_time = StateVector(n, start.copy())
    for gate in gates:
        apply_gate(one_at_a_time, gate)
    assert _same_bits(one_at_a_time.amps, want)


def test_gate_plan_runs_again_from_any_basis_state():
    gates = [Gate("H", (1,)), Gate("CX", (1, 3)), Gate("S", (3,)), Gate("H", (1,))]

    def want(index):
        amps = np.zeros(8, dtype=np.complex128)
        amps[index] = 1.0
        _per_gate_run(amps, gates)
        return amps

    plan = GatePlan(gates, np.empty(8, dtype=np.complex128))  # one row
    for index in (5, 0, 5, 3):
        assert _same_bits(plan.run_basis([index])[0], want(index))
    batched = GatePlan(gates, np.empty((3, 8), dtype=np.complex128))
    for chunk in ([5, 0, 5], [3, 6], [7]):  # short chunks pad with their last
        got = batched.run_basis(chunk)
        assert len(got) == len(chunk)
        for row, index in zip(got, chunk):
            assert _same_bits(row, want(index))
    for bad in ([], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="need 1 to 3 indices"):
            batched.run_basis(bad)
    with pytest.raises(ValueError, match="C-contiguous"):
        GatePlan(gates, np.empty((8, 2), dtype=np.complex128).T)


def test_norm_drift_is_caught_by_run_and_circuits_equivalent(monkeypatch):
    def stretch(a0, a1):
        a1 *= 1 + 1e-9

    monkeypatch.setitem(simulator._KERNELS, "S", stretch)
    # H puts weight on the |1> half, which the stretched S then scales; the
    # X after it keeps the drift, so only a check after every gate names S.
    c = Circuit(
        n=2, gates=(Gate("H", (2,)), Gate("S", (2,)), Gate("X", (1,))),
        roles=("ancilla_zero", "logical_input"),
    )
    with pytest.raises(AssertionError, match=r"norm drifted .* after S\(2\)$"):
        run(c)
    for scope in ("full", "ancilla_restricted"):
        with pytest.raises(AssertionError, match=r"after S\(2\)$"):
            circuits_equivalent(c, c, scope)


# Both forms of the norm check's row dots: np.vecdot on numpy 2 and the
# einsum that stands in for it on numpy 1.
_ROW_DOT_FORMS = (
    simulator._ROW_DOTS, functools.partial(np.einsum, "ij,ij->i"),
)


@settings(max_examples=200, deadline=None)
@given(_gates_and_rows())
def test_batched_plan_rows_are_bit_identical_to_the_per_gate_loop(case):
    n, gates, starts = case
    for row_dots in _ROW_DOT_FORMS:
        plan = GatePlan(gates, starts.copy())
        with mock.patch.object(simulator, "_ROW_DOTS", row_dots):
            plan.execute()
        for row, start in zip(plan.amps, starts):
            want = start.copy()
            _per_gate_run(want, gates)
            assert _same_bits(row, want)


def _stretch(a0, a1):
    a1 *= 1 + 1e-9


def _tilt(a0, a1):
    # Shrinks the 0-half as much as it stretches the 1-half: a |0> row and
    # a |1> row drift apart while their summed squared norm stays 2.
    a0 *= 1 - 1e-9
    a1 *= 1 + 1e-9


@pytest.mark.parametrize("kernel", [_stretch, _tilt])
def test_norm_drift_in_a_later_row_only_is_caught(monkeypatch, kernel):
    monkeypatch.setitem(simulator._KERNELS, "S", kernel)
    # Qubit 2 is the one logical wire, so its bit is 1 only in the last of
    # the two inputs; the stretched S moves that row's norm and no other.
    c = Circuit(
        n=2, gates=(Gate("S", (2,)), Gate("X", (1,))),
        roles=("ancilla_zero", "logical_input"),
    )
    plan = GatePlan(c.gates, np.empty((2, 4), dtype=np.complex128))
    drifted = r"norm drifted .* after S\(2\)$"
    for row_dots in _ROW_DOT_FORMS:
        monkeypatch.setattr(simulator, "_ROW_DOTS", row_dots)
        with pytest.raises(AssertionError, match=drifted):
            plan.run_basis([0, 1])
        with pytest.raises(AssertionError, match=drifted):
            circuits_equivalent(c, c)
        if kernel is _stretch:
            plan.run_basis([0, 0])  # no weight where qubit 2 is 1


@pytest.mark.parametrize("rows", [
    pytest.param([[np.nan, 0, 0, 0]], id="nan"),
    pytest.param([[1, 0, 0, 0], [np.nan, 0, 0, 0]], id="nan-in-row-1-only"),
    pytest.param([[np.inf, 0, 0, 0]], id="inf-made-nan-by-h"),
])
def test_non_finite_rows_fail_the_norm_check(rows):
    # Every comparison with NaN is false, so bounds on the least and the
    # greatest norm alone let NaN through.  H turns inf into inf + nan·i.
    c = Circuit(
        n=2, gates=(Gate("H", (1,)), Gate("X", (2,))),
        roles=("logical_input",) * 2,
    )
    starts = np.array(rows, dtype=np.complex128)
    drifted = r"norm drifted to nan after H\(1\)$"
    with np.errstate(invalid="ignore"):
        with pytest.raises(AssertionError, match=drifted):
            GatePlan(c.gates, starts).execute()
        if len(starts) == 1:
            with pytest.raises(AssertionError, match=drifted):
                run(c, StateVector(2, starts[0]))


def test_circuits_equivalent_runs_inputs_in_chunks_of_the_cap(monkeypatch):
    shapes = []
    run_basis = GatePlan.run_basis

    def recording(self, indices):
        shapes.append((len(indices), self.amps.shape))
        return run_basis(self, indices)

    monkeypatch.setattr(GatePlan, "run_basis", recording)
    c = Circuit(
        n=3, gates=(Gate("H", (1,)), Gate("CX", (1, 2))),
        roles=("logical_input",) * 3,
    )
    assert circuits_equivalent(c, c, "full")
    assert shapes == [(8, (8, 8))] * 2  # never more rows than inputs
    for n, k, rows in ((12, 2, 2), (13, 1, 1)):  # at most 2^13 amplitudes
        shapes.clear()
        wide = Circuit(
            n=n, gates=(Gate("H", (1,)),),
            roles=("ancilla_zero",) * (n - k) + ("logical_input",) * k,
        )
        assert circuits_equivalent(wide, wide)
        assert shapes == [(rows, (rows, 2**n))] * (2 * 2**k // rows)
    shapes.clear()
    monkeypatch.setattr(simulator, "BATCH_AMPS", 3 << 3)
    assert circuits_equivalent(c, c, "full")
    assert shapes == [(3, (3, 8))] * 4 + [(2, (3, 8))] * 2  # a short last chunk


def test_a_state_built_from_a_strided_array_runs_gates():
    # Gate plans need a C-contiguous buffer; StateVector provides one.
    big = np.zeros(8, dtype=np.complex128)
    big[0] = 1.0
    state = StateVector(2, big[::2])
    apply_gate(state, Gate("X", (1,)))
    assert np.array_equal(state.amps, amps_of("10", 2).amps)


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


def test_apply_pauli_rejects_an_operator_of_another_size():
    with pytest.raises(ValueError, match="^operator has 3 qubits, state has 2$"):
        apply_pauli(StateVector.from_label("01"), PauliString.parse("XYZ"))


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


def _per_label_circuits_equivalent(c1, c2, scope, up_to_global_phase):
    """The loop ``circuits_equivalent`` ran before the gate plan: both
    circuits simulated afresh, gate by gate, for every input label."""
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
        a = StateVector.from_label(label).amps
        _per_gate_run(a, c1.gates)
        b = StateVector.from_label(label).amps
        _per_gate_run(b, c2.gates)
        if up_to_global_phase:
            if phase is None:
                phase = simulator._relative_phase(a, b)
                if phase is None:
                    return False
            a = a * phase
        if np.max(np.abs(a - b)) > 1e-10:
            return False
    return True


@st.composite
def _circuit_pairs(draw):
    """A random circuit and a variant: equal, a global phase i (Y·Z·X), a
    phase -1 on an ancilla (X·Z·X), a Z on a logical wire, or a circuit
    one gate away (replaced, deleted or inserted)."""
    n = draw(st.integers(1, 5))
    roles = tuple(draw(st.lists(
        st.sampled_from(("ancilla_zero", "logical_input")),
        min_size=n, max_size=n,
    )))
    kinds = GATE_KINDS if n > 1 else ONE_QUBIT_KINDS

    def gate():
        kind = draw(st.sampled_from(kinds))
        if kind in ONE_QUBIT_KINDS:
            return Gate(kind, (draw(st.integers(1, n)),))
        a = draw(st.integers(1, n))
        return Gate(kind, (a, draw(st.integers(1, n).filter(lambda b: b != a))))

    gates = [gate() for _ in range(draw(st.integers(0, 14)))]
    variant = draw(st.sampled_from(
        ("equal", "global", "ancilla", "logical_z", "mutant")
    ))
    other = list(gates)
    ancillas = [q for q, r in enumerate(roles, 1) if r == "ancilla_zero"]
    logical = [q for q, r in enumerate(roles, 1) if r == "logical_input"]
    if variant == "global":
        q = draw(st.integers(1, n))
        other[:0] = [Gate(k, (q,)) for k in ("X", "Z", "Y")]
    elif variant == "ancilla" and ancillas:
        q = draw(st.sampled_from(ancillas))
        other[:0] = [Gate(k, (q,)) for k in ("X", "Z", "X")]
    elif variant == "logical_z" and logical:
        other.insert(0, Gate("Z", (draw(st.sampled_from(logical)),)))
    elif variant == "mutant":
        at = draw(st.integers(0, len(other)))
        edit = draw(st.sampled_from(("replace", "delete", "insert")))
        if edit == "insert" or at == len(other):
            other.insert(at, gate())
        elif edit == "delete":
            del other[at]
        else:
            other[at] = gate()
    return (
        Circuit(n=n, gates=gates, roles=roles),
        Circuit(n=n, gates=other, roles=roles),
    )


def _assert_matches_the_per_label_loop(c1, c2):
    for scope in ("full", "ancilla_restricted"):
        for flag in (True, False):
            want = _per_label_circuits_equivalent(c1, c2, scope, flag)
            got = circuits_equivalent(c1, c2, scope, up_to_global_phase=flag)
            assert got == want, (scope, flag)


@settings(max_examples=300, deadline=None)
@given(_circuit_pairs())
def test_circuits_equivalent_matches_the_per_label_loop(pair):
    _assert_matches_the_per_label_loop(*pair)


@settings(max_examples=200, deadline=None)
@given(_circuit_pairs(), st.sampled_from((1, 3, 5)))
def test_circuits_equivalent_matches_the_per_label_loop_in_short_chunks(
    pair, rows
):
    # B = rows inputs per execution: several chunks, the last one short.
    c1, c2 = pair
    with mock.patch.object(simulator, "BATCH_AMPS", rows << c1.n):
        _assert_matches_the_per_label_loop(c1, c2)


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


def test_dense_allocations_stop_at_the_qubit_limit():
    # Each allocation site asks dense_size first, so n = 40 fails at once
    # with DenseLimitError (a ValueError) and takes no memory.
    rep = loads_stab("name: rep40\nn: 40\nk: 1\n" + "\n".join(
        "I" * i + "ZZ" + "I" * (38 - i) for i in range(39)
    )).standard_form()
    wide = Circuit(n=40, gates=(Gate("CX", (1, 2)),),
                   roles=("logical_input",) + ("ancilla_zero",) * 39)
    message = f"^40 qubits exceed the dense simulator's limit of {simulator.MAX_QUBITS}$"
    for call in (
        lambda: StateVector(40),
        lambda: run(wide),
        lambda: projector_encode(rep, "0"),
        lambda: simulator._index_tables(40),
        lambda: circuits_equivalent(wide, wide),
        lambda: circuits_equivalent(wide, wide, scope="full"),
    ):
        with pytest.raises(simulator.DenseLimitError, match=message):
            call()
    assert issubclass(simulator.DenseLimitError, ValueError)
    assert simulator.dense_size(simulator.MAX_QUBITS) == 1 << simulator.MAX_QUBITS


def test_syndrome_readout_checks_the_limit_on_data_and_ancillas():
    # A [[14, 1]] state is small, but with its 13 ancillas the readout
    # would need 27 qubits.
    rep = loads_stab("name: rep14\nn: 14\nk: 1\n" + "\n".join(
        "I" * i + "ZZ" + "I" * (12 - i) for i in range(13)
    )).standard_form()
    encoded = projector_encode(rep, "0")
    with pytest.raises(simulator.DenseLimitError, match="^27 qubits"):
        measure_syndrome(encoded, PauliString.identity(14), rep)
