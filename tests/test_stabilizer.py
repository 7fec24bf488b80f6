"""Batched conjugation and exact `simulate` against the code they replaced.

``_reference_conjugate`` is the per-Pauli conjugation that
``stabilizer.conjugate_rows`` replaced: one pass over the gates per Pauli.
The batched kernel packs every row by column and must agree with it
exactly, phase included.

``_reference_simulate`` is the dense `simulate`: run the encoder on the
logical input, apply the error, print every amplitude above the dense
tolerance.  The CLI now lists the amplitudes of the stabilizer state
exactly (``stabilizer.amplitudes``), and its stdout must match the dense
one byte for byte.
"""

import io
import tracemalloc
from contextlib import redirect_stdout
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_code
from stabsynth.circuit import GATE_KINDS, ONE_QUBIT_KINDS, Circuit, Gate
from stabsynth.cli import _load_code, main
from stabsynth.encoder import synthesize_encoder
from stabsynth.gf2 import transpose
from stabsynth.library import SHIPPED_CODES, golden_circuit, load_code, loads_stab
from stabsynth.pauli import PauliString
from stabsynth.simulator import apply_pauli, logical_label, run
from stabsynth.stabilizer import (
    Tableau,
    _inverse,
    _sign_sum,
    amplitudes,
    conjugate_rows,
    fixing_signs,
    same_on,
    verify_counts,
)
from stabsynth.syndrome import syndrome_of
from test_verify_reference import _stab_text


def _reference_conjugate(x, z, c, gates, n):
    """C·P·C† for P = i^c·X^x·Z^z, one gate at a time on this one Pauli."""
    for gate in gates:
        kind, q = gate.kind, gate.q
        a = 1 << n - q[0]
        if kind == "H":
            if x & a and z & a:
                c += 2
            elif x & a or z & a:
                x ^= a
                z ^= a
        elif kind == "S":
            if x & a:
                c += 1
                z ^= a
        elif kind == "X":
            c += 2 * bool(z & a)
        elif kind == "Y":
            c += 2 * (bool(x & a) ^ bool(z & a))
        elif kind == "Z":
            c += 2 * bool(x & a)
        else:
            b = 1 << n - q[1]
            if kind == "CZ":
                if x & a and x & b:
                    c += 2
                z ^= (b if x & a else 0) ^ (a if x & b else 0)
                continue
            if kind == "CY" and x & b:
                c -= 1
                z ^= b
            if x & a:
                x ^= b
            if z & b:
                z ^= a
            if kind == "CY" and x & b:
                c += 1
                z ^= b
    return x, z, c & 3


@st.composite
def _gates(draw, n, max_size=40):
    """Up to ``max_size`` gates of every kind on qubits 1..n."""
    kinds = GATE_KINDS if n > 1 else ONE_QUBIT_KINDS
    gates = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = draw(st.sampled_from(kinds))
        if kind in ONE_QUBIT_KINDS:
            q = (draw(st.integers(1, n)),)
        else:
            q = tuple(draw(st.permutations(range(1, n + 1)))[:2])
        gates.append(Gate(kind, q))
    return gates


@st.composite
def _batch(draw):
    n = draw(st.integers(1, 10))
    bits = st.integers(0, (1 << n) - 1)
    rows = draw(st.lists(
        st.tuples(bits, bits, st.integers(-8, 8)), min_size=1, max_size=30
    ))
    return n, draw(_gates(n)), rows


@settings(max_examples=300, deadline=None)
@given(_batch())
def test_conjugate_rows_matches_the_per_row_reference(batch):
    n, gates, rows = batch
    want = [_reference_conjugate(*row, gates, n) for row in rows]
    assert conjugate_rows(rows, gates, n) == want
    # any run of rows, read alone
    tableau = Tableau(rows, n)
    tableau.conjugate(gates)
    for start in range(len(rows) + 1):
        assert tableau.rows(start) == want[start:]
        assert tableau.rows(0, start) == want[:start]
    # one row through PauliString, whose phase is relative to its letters
    x, z, c = rows[0]
    p = PauliString.from_xzc(x, z, c, n)
    assert p.conjugated_by(gates) == PauliString.from_xzc(*want[0], n)


def test_conjugate_rows_named_cases():
    cy = [Gate("CY", (1, 2))]
    # CY conjugates X_1 to X_1·Y_2 = i·X^11·Z^01 and X_2 to Z_1·X_2
    assert conjugate_rows([(0b10, 0, 0), (0b01, 0, 0)], cy, 2) == [
        (0b11, 0b01, 1), (0b01, 0b10, 0),
    ]
    assert conjugate_rows([], cy, 2) == []
    assert conjugate_rows([(0b1, 0b1, 7)], [], 1) == [(0b1, 0b1, 3)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**9 - 1), max_size=12), st.integers(1, 9))
def test_transpose_swaps_rows_and_columns(rows, width):
    rows = [row & (1 << width) - 1 for row in rows]
    cols = transpose(rows, width)
    assert len(cols) == width
    for i, row in enumerate(rows):
        for j in range(width):
            assert row >> width - 1 - j & 1 == cols[j] >> len(rows) - 1 - i & 1
    assert transpose(cols, len(rows)) == rows


# ---------------------------------------------------------------------------
# exact `simulate` against the dense statevector


def _reference_simulate(spec, bits, errors):
    """The stdout of the dense `simulate` for each of ``errors``: run the
    encoder once, then apply_pauli and nonzero_labels per error."""
    code = _load_code(spec)
    sf = code.standard_form()
    encoder = synthesize_encoder(sf, gate_set="mixed", name=f"{code.name}_encoder")
    encoded = run(encoder, logical_label(encoder, bits))
    for error in errors:
        out = io.StringIO()
        print(f"code: {code.name}  logical: |{bits}>", end="", file=out)
        print(f"  error: {error}" if error else "", file=out)
        state = encoded
        if error:
            letter, qubit = error[0], int(error[2:])
            pauli = PauliString.parse(
                "".join(letter if x == qubit else "I" for x in range(1, sf.n + 1))
            )
            state = apply_pauli(state, pauli)
        for label, amp in state.nonzero_labels():
            real, imag = (round(v, 4) or 0.0 for v in (amp.real, amp.imag))
            print(f"  {real:+.4f}{imag:+.4f}i |{label}>", file=out)
        if error:
            syndrome = syndrome_of(pauli, sf)
            print(f"syndrome: {syndrome:0{sf.m}b} (decimal {syndrome})", file=out)
        yield error, out.getvalue()


def _cli_simulate(spec, bits, error):
    argv = ["simulate", str(spec), "--logical", bits]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv + (["--error", error] if error else [])) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", SHIPPED_CODES)
def test_simulate_matches_dense_on_the_shipped_codes(name):
    # up to 16 logical inputs, each with no error and every single-qubit one
    sf = _load_code(name).standard_form()
    rng = np.random.default_rng(7)
    inputs = range(1 << sf.k) if sf.k <= 4 else rng.choice(1 << sf.k, 16, False)
    errors = [None] + [f"{p}@{q}" for q in range(1, sf.n + 1) for p in "XYZ"]
    for b in sorted(int(b) for b in inputs):
        bits = format(b, f"0{sf.k}b")
        for error, want in _reference_simulate(name, bits, errors):
            assert _cli_simulate(name, bits, error) == want, (bits, error)


def test_simulate_matches_dense_on_random_codes(tmp_path):
    rng = np.random.default_rng(2026)
    for i in range(40):
        n = 4 + i % 7
        code = random_code(rng, n, int(rng.integers(1, min(n - 1, 3) + 1)))
        spec = tmp_path / f"random{i}.stab"
        spec.write_text(_stab_text(code))
        for b in sorted({0, int(rng.integers(1 << code.k))}):
            bits = format(b, f"0{code.k}b")
            errors = [None] + [
                f"{'XYZ'[int(rng.integers(3))]}@{int(rng.integers(n)) + 1}"
                for _ in range(3)
            ]
            for error, want in _reference_simulate(spec, bits, errors):
                assert _cli_simulate(spec, bits, error) == want, (i, bits, error)


@st.composite
def _prepared(draw):
    """A random Clifford circuit, a basis input and a random Pauli."""
    n = draw(st.integers(1, 8))
    bits = draw(st.text("01", min_size=n, max_size=n))
    letters = draw(st.text("IXYZ", min_size=n, max_size=n))
    error = PauliString.parse(draw(st.sampled_from(["", "i", "-", "-i"])) + letters)
    return n, draw(_gates(n)), bits, error


@settings(max_examples=200, deadline=None)
@given(_prepared())
def test_amplitudes_are_the_dense_state(prepared):
    n, gates, bits, error = prepared
    circuit = Circuit(n=n, gates=tuple(gates), roles=("logical_input",) * n)
    d, amps = amplitudes(circuit, bits, error)
    amps = list(amps)
    dense = apply_pauli(run(circuit, bits), error).amps
    support = np.flatnonzero(np.abs(dense) > 1e-9)
    assert [index for index, _ in amps] == list(support)
    got = np.array([np.exp(1j * np.pi * m / 4) for _, m in amps]) / 2 ** (d / 2)
    assert np.max(np.abs(got - dense[support])) < 1e-12


def test_amplitudes_and_verify_counts_refuse_mismatched_inputs(forms):
    # One 0/1 character per logical qubit, an error and a circuit of the
    # right size: each input they would misread silently is refused.
    steane = synthesize_encoder(forms["steane"], gate_set="mixed")
    for bits in ("0101", "2", "", "01"):
        with pytest.raises(ValueError, match=f"^bits {bits!r} are not 1 "):
            amplitudes(steane, bits)
    with pytest.raises(ValueError, match="^error acts on 3 qubits, circuit on 7$"):
        amplitudes(steane, "0", PauliString.parse("XII"))
    eight = synthesize_encoder(forms["eight_qubit"], gate_set="mixed")
    with pytest.raises(ValueError, match="^circuit acts on 8 qubits, code on 7$"):
        verify_counts(eight, forms["steane"], False)


def test_fixing_signs_of_no_paulis_is_empty():
    assert fixing_signs([Gate("H", (1,))], []) == []


def test_amplitudes_are_listed_as_they_are_made():
    # The [[21, 1]] code with the 20 checks X_i X_(i+1) has d = 20: its
    # first amplitudes come, in index order, with nothing kept per index.
    rows = ["I" * i + "XX" + "I" * (19 - i) for i in range(20)]
    sf = loads_stab("name: wide21\nn: 21\nk: 1\n" + "\n".join(rows)).standard_form()
    encoder = synthesize_encoder(sf, gate_set="mixed")
    tracemalloc.start()
    try:
        d, amps = amplitudes(encoder, "0")
        first = list(islice(amps, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 20
    indices = [index for index, _ in first]
    assert indices == sorted(set(indices)) and len(indices) == 1000
    assert peak < 1 << 20  # all 2^20 (index, m) pairs would take ~100 MB


def _count_conjugated_gates(monkeypatch) -> list[int]:
    """Record how many gates each ``Tableau.conjugate`` call applies."""
    applied = []
    conjugate = Tableau.conjugate

    def counting(self, gates):
        gates = list(gates)
        applied.append(len(gates))
        conjugate(self, gates)

    monkeypatch.setattr(Tableau, "conjugate", counting)
    return applied


def test_verify_counts_makes_one_pass_each_way(monkeypatch):
    # One backward pass pulls the generators and logical Z's back; one
    # forward pass tracks C|0…0> and carries the logical X's.
    sf = load_code("thirteen_qubit").standard_form()
    golden = golden_circuit("thirteen_qubit")
    applied = _count_conjugated_gates(monkeypatch)
    assert verify_counts(golden, sf, True) == (128, 128, 1 << 12)  # Z(1)
    assert sum(applied) == len(_inverse(golden.gates)) + len(golden.gates)


def test_same_on_makes_one_pass(monkeypatch):
    # S on a CX's control commutes with it; S on its target does not.
    lhs = [Gate("H", (2,)), Gate("S", (1,)), Gate("CX", (1, 2)), Gate("H", (1,))]
    rhs = [Gate("H", (2,)), Gate("CX", (1, 2)), Gate("S", (1,)), Gate("H", (1,))]
    other = [Gate("H", (2,)), Gate("CX", (1, 2)), Gate("S", (2,)), Gate("H", (1,))]
    applied = _count_conjugated_gates(monkeypatch)
    assert same_on(lhs, rhs, 2)
    assert sum(applied) == len(lhs) + len(_inverse(rhs))
    assert not same_on(lhs, other, 2)
    assert sum(applied) == 2 * (len(lhs) + len(_inverse(rhs)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9), st.data())
def test_sign_sum_is_the_sum_over_every_input(v, data):
    # Dickson's reduction against the 2^v terms of the sum itself.
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adj = [0] * v
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    lam = data.draw(st.integers(0, (1 << v) - 1))
    c = data.draw(st.integers(0, 1))
    want = sum(
        (-1) ** (c + (lam & t).bit_count() + sum(t >> i & t >> j & 1 for i, j in edges))
        for t in range(1 << v)
    )
    assert _sign_sum(c, lam, adj) == want
