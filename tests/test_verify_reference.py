"""`stabsynth verify` against the dense loops it replaced.

``_reference_verify`` is the earlier `verify`: it runs the circuit and
expands the projector afresh for every logical input, and keeps every
state.  The CLI decides every input from stabilizer signs and one exact
amplitude (``stabilizer``), with no state at all, so its stdout and exit
code must match the reference byte for byte: on the shipped codes, on
seeded random codes, on seeded single-gate mutants and on random Clifford
circuits, with and without ``--allow-frame``.

The decision's parts also have their own dense references.
``_reference_compare`` compares each input on all 2^n amplitudes of
P_b·C|0…0> and L_b·|0_L>; ``check_stabilized`` applies each generator to
the state, where the CLI conjugates it through the circuit; the tracked
amplitude of C|0…0> and the oracle's pivot products are read against
``run`` and ``projector_encode``.
"""

import io
import re
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stabsynth.cli
import stabsynth.simulator
from conftest import random_code
from stabsynth.circuit import GATE_KINDS, Circuit, Gate, to_json
from stabsynth.cli import _load_circuit, _load_code, main
from stabsynth.encoder import synthesize_encoder
from stabsynth.gf2 import solve as gf2_solve
from stabsynth.library import SHIPPED_CODES, golden_circuit
from stabsynth.pauli import PauliString
from stabsynth.stabilizer import (
    _pivot_product,
    fixing_signs,
    verify_counts,
    zero_amplitude,
)
from stabsynth.simulator import (
    TOL,
    apply_pauli,
    check_stabilized,
    logical_label,
    projector_encode,
    run,
    states_close,
)


def _reference_verify(code_spec, circuit_path):
    """The dense `verify` loop: one run and one projector per input.

    Returns ``{allow_frame: (exit code, stdout)}`` for both settings of
    ``--allow-frame``, which share the dense loop.
    """
    sf = _load_code(code_spec).standard_form()
    circuit = _load_circuit(circuit_path)
    indices: list[int] = []
    signs: list[bool] = []
    outputs = []
    all_consistent = True
    for i in range(2**sf.k):
        bits = format(i, f"0{sf.k}b") if sf.k else ""
        out = run(circuit, logical_label(circuit, bits))
        oracle = projector_encode(sf, bits)
        outputs.append((bits, out, oracle))
        a, b = out.amps, oracle.amps
        live = ~((np.abs(a) < 1e-10) & (np.abs(b) < 1e-10))
        same = live & (np.abs(a - b) < 1e-10)
        flip = live & ~same & (np.abs(a + b) < 1e-10)
        signed = same | flip
        if (live & ~signed).any():
            all_consistent = False
        indices += np.flatnonzero(signed).tolist()
        signs += flip[signed].tolist()

    results = {}
    for allow_frame in (False, True):
        consistent = all_consistent
        frame = 0
        if allow_frame and consistent:
            solved = gf2_solve(indices, signs)
            consistent = solved is not None
            frame = solved or 0
        frame_wires = [q for q in range(1, sf.n + 1) if frame >> (sf.n - q) & 1]

        stabilized = 0
        matched = 0
        total = 2**sf.k
        for bits, out, oracle in outputs:
            checked = (
                apply_pauli(out, PauliString(0, frame, n=sf.n)) if frame else out
            )
            if all(check_stabilized(checked, g) for g in sf.generators):
                stabilized += 1
            if consistent and states_close(checked, oracle):
                matched += 1

        frame_note = (
            " after frame " + " ".join(f"Z({q})" for q in frame_wires)
            if frame_wires
            else ""
        )
        ok = stabilized == total and matched == total
        results[allow_frame] = (0 if ok else 1), (
            f"stabilized basis states: {stabilized}/{total}{frame_note}\n"
            f"projector-oracle matches: {matched}/{total}{frame_note}\n"
            + ("PASS\n" if ok else "FAIL\n")
        )
    return results


def _cli_verify(code_spec, circuit_path, allow_frame):
    argv = ["verify", str(code_spec), str(circuit_path)]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        rc = main(argv + ["--allow-frame"] if allow_frame else argv)
    return rc, buffer.getvalue()


def _mutant(rng, circuit):
    """One seeded edit over all eight gate kinds: delete, insert or replace."""
    gates = list(circuit.gates)
    action = int(rng.integers(3)) if gates else 1
    pos = int(rng.integers(len(gates) + (action == 1)))
    if action == 0:
        del gates[pos]
        return circuit.replace_gates(gates)
    kind = GATE_KINDS[int(rng.integers(len(GATE_KINDS)))]
    if kind.startswith("C"):
        q = tuple(int(v) + 1 for v in rng.choice(circuit.n, 2, replace=False))
    else:
        q = (int(rng.integers(circuit.n)) + 1,)
    if action == 1:
        gates.insert(pos, Gate(kind, q))
    else:
        gates[pos] = Gate(kind, q)
    return circuit.replace_gates(gates)


def _stab_text(code):
    rows = "\n".join(str(g) for g in code.generators)
    return f"name: {code.name}\nn: {code.n}\nk: {code.k}\n{rows}\n"


def _cases(tmp_path):
    """(code spec, circuit file) pairs covering every outcome class."""
    rng = np.random.default_rng(2024)
    cases = []

    def add(spec, circuit, tag):
        path = tmp_path / f"{tag}.json"
        path.write_text(to_json(circuit))
        cases.append((spec, path))

    codes = []
    for name in SHIPPED_CODES:
        sf = _load_code(name).standard_form()
        add(name, golden_circuit(name), f"{name}_golden")
        codes.append((name, sf, 1 if name == "thirteen_qubit" else 6))
    for i in range(32):
        n = 3 + i % 7
        code = random_code(rng, n, int(rng.integers(1, min(n - 1, 4) + 1)))
        spec = tmp_path / f"random{i}.stab"
        spec.write_text(_stab_text(code))
        codes.append((spec, code.standard_form(), 1))
    for spec, sf, mutants in codes:
        for gate_set in ("mixed", "cnot_cz"):
            encoder = synthesize_encoder(sf, gate_set=gate_set)
            tag = f"{getattr(spec, 'stem', spec)}_{gate_set}"
            add(spec, encoder, tag)
            for j in range(mutants):
                add(spec, _mutant(rng, encoder), f"{tag}_mutant{j}")
    return cases


def test_verify_matches_the_dense_reference(tmp_path):
    outcomes = set()
    for spec, path in _cases(tmp_path):
        reference = _reference_verify(str(spec), str(path))
        for allow_frame, want in reference.items():
            got = _cli_verify(spec, path, allow_frame)
            assert got == want, (spec, path.name, allow_frame)
            counts = re.findall(r"(\d+)/(\d+)", want[1])
            outcomes.add((
                want[1].splitlines()[-1],
                "after frame" in want[1],
                any(0 < int(a) < int(b) for a, b in counts),
            ))
    # PASS with and without a frame, FAIL, and a partial count all occur.
    assert {("PASS", False), ("PASS", True), ("FAIL", False)} <= {
        (verdict, framed) for verdict, framed, _ in outcomes
    }
    assert any(partial for *_, partial in outcomes)


def test_verify_memory_does_not_grow_with_the_inputs(tmp_path):
    # thirteen_qubit has 2^7 inputs of 2^13 amplitudes.  The dense loop
    # kept a state pair per input and peaked at 33 MB; holding one state
    # at a time peaks under 2 MB.
    path = tmp_path / "golden.json"
    path.write_text(to_json(golden_circuit("thirteen_qubit")))
    _cli_verify("thirteen_qubit", path, True)  # warm caches and imports
    tracemalloc.start()
    try:
        rc, out = _cli_verify("thirteen_qubit", path, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out.splitlines()[-1]) == (0, "PASS")
    assert peak < 4 * 2**20


def _logical_inputs(circuit, sf):
    """(P_b, L_b) for every logical input b, in label order.

    Input b is one Pauli away from input 0 on both sides: C|b> = P_b·C|0>
    with P_b the product of the conjugated logical X's C·X_q·C†, and the
    oracle's encoded |b> is L_b·|0_L> with L_b the product of
    ``sf.logical_x``.
    """
    n = sf.n
    conj_x = [
        PauliString(1 << n - q, 0, n=n).conjugated_by(circuit.gates)
        for q in circuit.logical_qubits()
    ]
    one = PauliString.identity(n)
    inputs = [(one, one)]
    for b in range(1, 2**sf.k):
        low = b & -b  # b sets one more logical bit than b - low
        p, ell = inputs[b - low]
        j = sf.k - low.bit_length()
        inputs.append((p * conj_x[j], ell * sf.logical_x[j]))
    return inputs


def _reference_compare(psi, phi, inputs, allow_frame):
    """Each input's output P_b·psi against L_b·phi on all 2^n amplitudes.

    Returns ``(consistent, matched, equations, quiet_signs)``: whether
    every live index (either side at least 1e-10) agrees up to a sign, how
    many inputs agree within TOL everywhere, the signs seen at live indices
    as ``equations[flip, label]``, and per input (with ``allow_frame``)
    whether a quiet index fits neither sign and the labels of the quiet
    indices that fit only + and only -.
    """
    indices = np.arange(psi.size)
    equations = np.zeros((2, psi.size), dtype=bool)
    psi_small = np.abs(psi) < 1e-10
    consistent = True
    matched = 0
    quiet_signs = []
    for p, ell in inputs:
        moved = apply_pauli(phi, p * ell).amps
        diff = np.abs(psi - moved)
        total = np.abs(psi + moved)
        live = ~(psi_small & (np.abs(moved) < 1e-10))
        same = live & (diff < 1e-10)
        flip = live & ~same & (total < 1e-10)
        if (live & ~(same | flip)).any():
            consistent = False
            break
        if allow_frame:
            shifted = indices ^ p.x
            equations[0] |= same[shifted]
            equations[1] |= flip[shifted]
            plus, minus = ~live & (diff <= TOL), ~live & (total <= TOL)
            quiet_signs.append((
                (~live & ~(plus | minus)).any(),
                (np.flatnonzero(plus & ~minus) ^ p.x).tolist(),
                (np.flatnonzero(minus & ~plus) ^ p.x).tolist(),
            ))
        matched += bool(diff.max() <= TOL)
    return consistent, matched, equations, quiet_signs


def _reference_decision(psi, phi, inputs, allow_frame):
    """(consistent, matched, frame) from ``_reference_compare``.

    The frame solves one equation per live index and input, and an input
    matches under it when no quiet index fits only the sign it does not
    get.
    """
    consistent, matched, equations, quiet_signs = _reference_compare(
        psi, phi, inputs, allow_frame
    )
    frame = 0
    if allow_frame and consistent:
        flips, labels = equations.nonzero()
        solved = gf2_solve(labels.tolist(), flips.tolist())
        consistent = solved is not None
        frame = solved or 0
    if not consistent:
        return False, 0, 0
    if frame:
        matched = sum(
            not neither
            and not any((label & frame).bit_count() % 2 for label in plus)
            and all((label & frame).bit_count() % 2 for label in minus)
            for neither, plus, minus in quiet_signs
        )
    return True, matched, frame


def _random_edits(rng, circuit, count):
    """``count`` seeded single-gate edits over all eight gate kinds."""
    for _ in range(count):
        circuit = _mutant(rng, circuit)
    return circuit


def test_compare_inputs_matches_the_full_comparison():
    # Real encoders of random codes, with random Clifford sandwiches and
    # edits of any gate kind: the exact decision must give the dense
    # comparison's match count and frame on every one.
    rng = np.random.default_rng(12)
    seen = set()
    for case in range(150):
        n = 3 + case % 4
        code = random_code(rng, n, int(rng.integers(1, min(n - 1, 3) + 1)))
        sf = code.standard_form()
        circuit = synthesize_encoder(sf, gate_set=("mixed", "cnot_cz")[case % 2])
        circuit = _clifford_circuit(rng, circuit, case % 3 // 2)
        psi = run(circuit, logical_label(circuit, "0" * sf.k)).amps
        phi = projector_encode(sf, "0" * sf.k)
        inputs = _logical_inputs(circuit, sf)
        for allow_frame in (False, True):
            want = _reference_decision(psi, phi, inputs, allow_frame)
            got = verify_counts(circuit, sf, allow_frame)[1:]
            assert got == want[1:], case
            consistent, matched, frame = want
            seen.add(("consistent", consistent))
            seen.add(("partial", 0 < matched < len(inputs)))
            seen.add(("frame", bool(frame)))
    # every outcome occurs at least once
    assert {(tag, True) for tag, _ in seen} <= seen
    assert {(tag, False) for tag, _ in seen} <= seen


def _inverse(gates):
    """C† as gates: C's in reverse, each its own inverse but S (S·Z)."""
    out = []
    for gate in reversed(gates):
        out.append(gate)
        if gate.kind == "S":
            out.append(Gate("Z", gate.q))
    return out


def _random_gates(rng, n, count):
    return list(_random_edits(
        rng, Circuit(n=n, gates=(), roles=("ancilla_zero",) * n), count
    ).gates)


def _sandwich(rng, circuit):
    """U·M·U† inserted at a random point of ``circuit``.

    U is up to five random gates of any kind, so the state inside is
    nothing like the encoder's and H often meets a partner.  M is nothing,
    a random Pauli gate, X·Z·X·Z (a global -1) or (H·S)^3 (a global
    e^(iπ/4)).
    """
    n = circuit.n
    u = _random_gates(rng, n, int(rng.integers(1, 6)))
    q = (int(rng.integers(n)) + 1,)
    middle = [
        [],
        [],
        [Gate(str(rng.choice(["X", "Y", "Z"])), q)],
        [Gate("X", q), Gate("Z", q)] * 2,
        [Gate("H", q), Gate("S", q)] * 3,
    ][int(rng.integers(5))]
    pos = int(rng.integers(len(circuit.gates) + 1))
    gates = list(circuit.gates)
    gates[pos:pos] = u + middle + _inverse(u)
    return circuit.replace_gates(gates)


def _clifford_circuit(rng, encoder, edits):
    """A random Clifford circuit that is often close to ``encoder``.

    One time in eight it is ``3 * edits`` random gates with the encoder's
    roles.  Otherwise the encoder may get a diagonal gate on its inputs
    first (Z, S or CZ, a logical gate that leaves input 0 alone) and Z
    gates last (a frame), then up to three sandwiches and ``edits``
    single-gate edits.
    """
    if rng.integers(8) == 0:
        return encoder.replace_gates(_random_gates(rng, encoder.n, 3 * edits))
    gates = list(encoder.gates)
    logical = encoder.logical_qubits()
    kinds = ["Z", "S"] + ["CZ"] * (len(logical) > 1)
    if rng.integers(2):
        kind = str(rng.choice(kinds))
        wires = rng.choice(logical, 1 + (kind == "CZ"), replace=False)
        gates.insert(0, Gate(kind, tuple(int(w) for w in wires)))
    if rng.integers(2):
        count = int(rng.integers(1, min(3, encoder.n) + 1))
        for q in rng.choice(encoder.n, count, replace=False):
            gates.append(Gate("Z", (int(q) + 1,)))
    circuit = encoder.replace_gates(gates)
    for _ in range(int(rng.integers(4))):
        circuit = _sandwich(rng, circuit)
    return _random_edits(rng, circuit, edits)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(["eight_qubit", "steane", 3, 4, 5, 6, 7, 8]),
    st.sampled_from(["mixed", "cnot_cz"]),
    st.sampled_from([0, 0, 0, 0, 1, 3]),
)
def test_verify_matches_the_reference_on_random_clifford_circuits(
    tmp_path_factory, seed, code, gate_set, edits
):
    # Sandwiches and edits put H mid-circuit on states whose tracked index
    # must move, and Pauli gates and global phases between them.
    rng = np.random.default_rng(seed)
    work = tmp_path_factory.mktemp("clifford")
    if isinstance(code, str):
        spec, sf = code, _load_code(code).standard_form()
    else:
        random = random_code(rng, code, int(rng.integers(1, min(code - 1, 3) + 1)))
        spec, sf = work / "code.stab", random.standard_form()
        spec.write_text(_stab_text(random))
    circuit = _clifford_circuit(rng, synthesize_encoder(sf, gate_set=gate_set), edits)
    path = work / "circuit.json"
    path.write_text(to_json(circuit))
    reference = _reference_verify(str(spec), str(path))
    for allow_frame, want in reference.items():
        assert _cli_verify(spec, path, allow_frame) == want, allow_frame


def test_logical_cz_on_an_encoder_matches_three_of_four(tmp_path):
    # CZ on the two input wires before a correct [[4, 2, 2]] encoder is a
    # logical CZ: input 11 comes out negated.  That is one sign for the
    # whole state, so every input agrees up to signs and three match; the
    # signs are b1·b2, which no Z frame produces, so the frame finds none.
    spec = tmp_path / "c422.stab"
    spec.write_text("name: c422\nn: 4\nk: 2\nXXXX\nZZZZ\n")
    sf = _load_code(str(spec)).standard_form()
    encoder = synthesize_encoder(sf, gate_set="mixed")
    a, b = encoder.logical_qubits()
    path = tmp_path / "cz.json"
    path.write_text(to_json(encoder.replace_gates((Gate("CZ", (a, b)),) + encoder.gates)))
    reference = _reference_verify(str(spec), str(path))
    assert reference == {
        False: (1, "stabilized basis states: 4/4\n"
                   "projector-oracle matches: 3/4\nFAIL\n"),
        True: (1, "stabilized basis states: 4/4\n"
                  "projector-oracle matches: 0/4\nFAIL\n"),
    }
    for allow_frame, want in reference.items():
        assert _cli_verify(spec, path, allow_frame) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(0, 30))
def test_zero_amplitude_is_the_dense_amplitude(seed, n, count):
    # Random gates of all eight kinds: the tracked amplitude of C|0…0> is
    # exactly the dense one, and the index moves whenever an H empties it.
    rng = np.random.default_rng(seed)
    circuit = _random_edits(
        rng, Circuit(n=n, gates=(), roles=("ancilla_zero",) * n), count
    )
    index, m, d = zero_amplitude(circuit.gates, n)
    amps = run(circuit).amps
    want = np.exp(1j * np.pi * m / 4) / np.sqrt(2.0) ** d
    assert abs(amps[index] - want) < 1e-12
    # a stabilizer state's amplitudes all share the size of this one
    assert np.allclose(np.abs(amps[np.abs(amps) > 1e-9]), abs(want))


def test_zero_amplitude_moves_the_index_when_h_empties_it():
    # X then H makes |->, whose amplitude at 1 is -1/√2; a second H makes
    # |1>, which has no amplitude at 0 and the partner is read through the
    # row -X.  H·S·H on |0>: S|+> has a partner that differs by i, so
    # both halves stay nonzero, at (1 ± i)/2.
    gates = (Gate("X", (1,)), Gate("H", (1,)))
    assert zero_amplitude(gates, 1) == (1, 4, 1)
    assert zero_amplitude(gates + (Gate("H", (1,)),), 1) == (1, 0, 0)
    gates = (Gate("H", (1,)), Gate("S", (1,)), Gate("H", (1,)))
    index, m, d = zero_amplitude(gates, 1)
    amps = run(Circuit(n=1, gates=gates, roles=("ancilla_zero",))).amps
    assert (index, m, d) == (0, 1, 1)
    assert abs(amps[0] - (1 + 1j) / 2) < 1e-12


@pytest.mark.parametrize("seed", range(40))
def test_pivot_products_read_the_projector_state(seed):
    # The oracle |0_L> holds i^c/√2^r at the X part of each product of
    # X-pivot generators and nothing elsewhere; index 0…0 holds 1/√2^r.
    rng = np.random.default_rng(seed)
    n = 3 + seed % 6
    sf = random_code(rng, n, int(rng.integers(1, n))).standard_form()
    amps = projector_encode(sf, "0" * sf.k).amps
    want = np.zeros(2**n, dtype=complex)
    for y in range(2**n):
        x, _, c = _pivot_product(sf, y)
        want[x] = 1j**c / np.sqrt(2.0) ** sf.r
    assert np.allclose(amps, want, atol=1e-12)
    assert abs(amps[0] - 2.0 ** (-sf.r / 2)) < 1e-12


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 8),
    st.booleans(),
    st.integers(0, 6),
)
def test_fixing_signs_match_dense_check_stabilized(seed, n, encode, extra):
    # An encoder of a random code (or no gates) with up to six random gates
    # of any kind inserted: g or -g fixes its output, or neither does.
    rng = np.random.default_rng(seed)
    sf = random_code(rng, n, int(rng.integers(1, n))).standard_form()
    circuit = synthesize_encoder(sf, gate_set="mixed") if encode else Circuit(
        n=n, gates=(), roles=("ancilla_zero",) * n
    )
    for _ in range(extra):
        circuit = _mutant(rng, circuit)
    state = run(circuit, "0" * n)
    got = fixing_signs(circuit.gates, sf.generators)
    for g, sign in zip(sf.generators, got):
        minus_g = PauliString(g.x, g.z, g.phase_exp + 2, n=n)
        assert (sign == 0, sign == 1) == (
            check_stabilized(state, g), check_stabilized(state, minus_g)
        )


@pytest.mark.parametrize("allow_frame", [False, True])
def test_verify_simulates_only_input_zero(tmp_path, monkeypatch, allow_frame):
    # thirteen_qubit has 2^7 inputs; verify decides them all without
    # simulating either side: no run, no projector expansion, no Pauli
    # image and no dense stabilizer check.
    path = tmp_path / "golden.json"
    path.write_text(to_json(golden_circuit("thirteen_qubit")))
    calls = {}
    for name in ("run", "projector_encode", "apply_pauli", "check_stabilized"):
        real = getattr(stabsynth.simulator, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(stabsynth.simulator, name, counted)
    rc, out = _cli_verify("thirteen_qubit", path, allow_frame)
    # the golden passes only after its frame
    assert rc == (0 if allow_frame else 1)
    assert calls == {}
