"""`stabsynth verify` against the dense loops it replaced.

``_reference_verify`` is the earlier `verify`: it runs the circuit and
expands the projector afresh for every logical input, and keeps every
state.  The CLI simulates input 0 on each side and reaches the other
inputs with one Pauli each, so its stdout and exit code must match the
reference byte for byte: on the shipped codes, on seeded random codes and
on seeded single-gate mutants, with and without ``--allow-frame``.

Two of the CLI's steps also have their own dense reference.
``_reference_compare`` compares each input on all 2^n amplitudes, where
the CLI reads only the live support; ``check_stabilized`` applies each
generator to the state, where the CLI conjugates it through the circuit.
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
from stabsynth.cli import (
    _compare_inputs,
    _fixing_signs,
    _load_circuit,
    _load_code,
    _logical_inputs,
    main,
)
from stabsynth.encoder import synthesize_encoder
from stabsynth.gf2 import solve as gf2_solve
from stabsynth.library import SHIPPED_CODES, golden_circuit
from stabsynth.pauli import PauliString
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


def _reference_compare(psi, phi, inputs, allow_frame):
    """``_compare_inputs`` on all 2^n amplitudes of each input's image."""
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


def _sorted_signs(quiet_signs):
    return [(bool(neither), sorted(plus), sorted(minus))
            for neither, plus, minus in quiet_signs]


def test_compare_inputs_matches_the_full_comparison():
    # Real encoders and mutants of random codes, with quiet amplitudes
    # added at 0.4, 0.45, 0.6, 0.9 and 1.5 TOL: below TOL/2 an index is
    # left out unless the other side reaches TOL/2, between TOL/2 and 1e-10
    # it is read but quiet, and above 1e-10 it is live.  Each side of an
    # index gets its own level or none, so input 0 sees it fit +, -, both
    # or neither sign.
    rng, noise = np.random.default_rng(12), np.random.default_rng(13)
    levels = (0, 0.4, 0.45, 0.6, 0.9, 1.5)
    seen = set()
    for case in range(120):
        n = 3 + case % 4
        code = random_code(rng, n, int(rng.integers(1, min(n - 1, 3) + 1)))
        sf = code.standard_form()
        circuit = synthesize_encoder(sf, gate_set=("mixed", "cnot_cz")[case % 2])
        if case % 3 == 2:
            circuit = _mutant(rng, circuit)
        psi = run(circuit, logical_label(circuit, "0" * sf.k)).amps
        phi = projector_encode(sf, "0" * sf.k)
        quiet = np.flatnonzero((np.abs(psi) < TOL) & (np.abs(phi.amps) < TOL))
        # live noise on every fifth case only, so most cases stay consistent
        top = len(levels) - (case % 5 > 0)
        for i in noise.choice(quiet, min(4, quiet.size), replace=False):
            for amps in (psi, phi.amps):
                level = levels[int(noise.integers(top))]
                amps[i] = level * TOL * 1j ** int(noise.integers(4))
        inputs = _logical_inputs(circuit, sf)
        for allow_frame in (False, True):
            want = _reference_compare(psi, phi, inputs, allow_frame)
            got = _compare_inputs(psi, phi, inputs, allow_frame)
            assert got[:2] == want[:2], case
            assert np.array_equal(got[2], want[2]), case
            assert _sorted_signs(got[3]) == _sorted_signs(want[3]), case
            consistent, matched, equations, signs = want
            seen.add(("consistent", consistent))
            seen.add(("partial", 0 < matched < len(inputs)))
            seen.add(("flip", bool(equations[1].any())))
            for neither, plus, minus in signs:
                seen |= {("neither", neither), ("plus", bool(plus)),
                         ("minus", bool(minus))}
    # every outcome the reference can report occurs at least once
    assert {(tag, True) for tag, _ in seen} <= seen


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
    got = _fixing_signs(circuit.gates, sf.generators)
    for g, sign in zip(sf.generators, got):
        minus_g = PauliString(g.x, g.z, g.phase_exp + 2, n=n)
        assert (sign == 0, sign == 1) == (
            check_stabilized(state, g), check_stabilized(state, minus_g)
        )


@pytest.mark.parametrize("allow_frame", [False, True])
def test_verify_simulates_only_input_zero(tmp_path, monkeypatch, allow_frame):
    # thirteen_qubit has 2^7 inputs; each side is simulated once, and no
    # 2^n-amplitude Pauli image or dense stabilizer check is made.
    path = tmp_path / "golden.json"
    path.write_text(to_json(golden_circuit("thirteen_qubit")))
    calls = {}
    for name in ("run", "projector_encode", "apply_pauli", "check_stabilized"):
        real = getattr(stabsynth.simulator, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        for module in (stabsynth.simulator, stabsynth.cli):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    rc, out = _cli_verify("thirteen_qubit", path, allow_frame)
    # the golden passes only after its frame
    assert rc == (0 if allow_frame else 1)
    assert calls == {"run": 1, "projector_encode": 1}
