"""Seeded inputs and the fixed op list of each benchmark workload.

``build(name, seed, src, work)`` returns the ops of one workload.  Each op
calls the program's public API through module attributes, looked up at
call time, so that the trace layer's rebinding reaches the calls.  The
op's ``check`` runs outside the timed region and judges the output with
the independent oracle in ``oracle.py`` or against a shipped golden file
read as bytes; it returns ``None`` when the output is right and a reason
otherwise.  Sizes of the inputs are chosen in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle

WORKLOADS = ("ports", "search", "verify", "rewrite")

SHIPPED = ("eight_qubit", "steane", "thirteen_qubit")
SEARCH_BUDGET = 4000

# Random inputs of ports and rewrite come from a fixed pool of POOL_SIZE
# inputs per stratum, made from POOL_SEED.  On ports the run's seed picks
# PORT_PICKS[n] of the codes with n qubits.  Rewrite uses the first
# REWRITE_INPUTS of every stratum, and the seed relabels the qubits of
# every circuit.  See NOTES.md.
POOL_SEED = 20261017
POOL_SIZE = 10
REWRITE_INPUTS = 6
# ports strata: n of the random codes; k cycles through K_CYCLE in a pool.
PORT_PICKS = {8: 10, 9: 10, 10: 3}
K_CYCLE = (1, 2, 3)
# rewrite strata: (alphabet, n); gate counts cycle through the sizes.
FULL_ALPHABET = ("H", "S", "X", "Y", "Z", "CX", "CY", "CZ")
ENCODER_ALPHABET = ("H", "S", "Z", "CX", "CY", "CZ")
REWRITE_QUBITS = (6, 7, 8, 9)
REWRITE_GATES = {"full": (80, 120, 160), "encoder": (80, 100, 120)}
ALPHABETS = {"full": FULL_ALPHABET, "encoder": ENCODER_ALPHABET}
# verify: seeded single-gate mutants and simulate calls per shipped code.
# The many cheap eight_qubit mutants put the median and tail op inside one
# group of similar ops instead of on a boundary between groups (NOTES.md).
MUTANTS_PER_CODE = {"eight_qubit": 14, "steane": 2, "thirteen_qubit": 2}
SIMULATES_PER_CODE = 1


@dataclass
class Op:
    """One unit of work: a timed call into the program and its check."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    size: Callable[[Any], tuple[int, int]]
    fingerprint: Callable[[Any], Any]


def _plain(gates):
    return [(g.kind, tuple(g.q)) for g in gates]


def _cx_gates(gates) -> tuple[int, int]:
    gates = list(gates)
    return sum(1 for g in gates if g.kind == "CX"), len(gates)


# ---------------------------------------------------------------------------
# random inputs


_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


def random_code(rng, n: int, k: int) -> list[str]:
    """Unsigned generators of a random [[n, k]] stabilizer code.

    Starts from Z on the first n-k qubits and scrambles the symplectic
    vectors with random H, S and CX gates, then mixes the rows, so the
    generators stay independent and pairwise commuting.
    """
    m = n - k
    x = np.zeros((m, n), dtype=np.uint8)
    z = np.zeros((m, n), dtype=np.uint8)
    for i in range(m):
        z[i, i] = 1
    for _ in range(12 * n):
        kind = rng.integers(3)
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        if kind == 0:
            x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()
        elif kind == 1:
            z[:, a] ^= x[:, a]
        else:
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]
    for _ in range(2 * m):
        a, b = (int(v) for v in rng.choice(m, size=2, replace=False))
        x[b] ^= x[a]
        z[b] ^= z[a]
    return [
        "".join(_LETTER[(int(x[i, j]), int(z[i, j]))] for j in range(n))
        for i in range(m)
    ]


def presentation(rng, generators: list[str]) -> list[str]:
    """The same code's generators multiplied together in seeded pairs.

    Signs of the products are dropped: the code stays unsigned.  Qubits
    are not permuted, so the standard form, and with it the amount of
    search, stays that of the original code (NOTES.md).
    """
    rows = [list(g) for g in generators]
    table = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
    for _ in range(2 * len(rows)):
        a, b = (int(v) for v in rng.choice(len(rows), size=2, replace=False))
        rows[b] = [
            _LETTER[(table[p][0] ^ table[q][0], table[p][1] ^ table[q][1])]
            for p, q in zip(rows[a], rows[b])
        ]
    return ["".join(r) for r in rows]


def _stab_text(name: str, k: int, generators: list[str]) -> str:
    lines = [f"name: {name}", f"n: {len(generators[0])}", f"k: {k}"]
    return "\n".join(lines + generators) + "\n"


def random_clifford(rng, n: int, n_gates: int, alphabet):
    """A random circuit over ``alphabet`` with 2 or 3 logical qubits.

    Few logical qubits keep the optimizer's final dense proof (2^k runs of
    2^n amplitudes) from outweighing the rewrite passes.
    """
    n_logical = int(rng.integers(2, 4))
    logical = set(int(q) for q in rng.choice(n, size=n_logical, replace=False))
    roles = tuple(
        "logical_input" if q in logical else "ancilla_zero" for q in range(n)
    )
    gates = []
    for _ in range(n_gates):
        kind = str(alphabet[int(rng.integers(len(alphabet)))])
        if kind.startswith("C"):
            c, t = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
            gates.append((kind, (c, t)))
        else:
            gates.append((kind, (int(rng.integers(n)) + 1,)))
    return roles, gates


def relabel(perm, roles, gates):
    """The same circuit with qubit q (from 0) renamed to ``perm[q]``."""
    new_roles = [None] * len(roles)
    for q, role in enumerate(roles):
        new_roles[int(perm[q])] = role
    new_gates = [
        (kind, tuple(int(perm[q - 1]) + 1 for q in qubits))
        for kind, qubits in gates
    ]
    return tuple(new_roles), new_gates


# ---------------------------------------------------------------------------
# ops


def _golden_text(src: Path, name: str) -> str:
    return (src / "stabsynth" / "golden" / f"{name}.optimized.json").read_text()


def _optimize_op(label, spec, level, budget, witnesses, golden):
    """load_code -> standard_form -> synthesize_encoder -> optimize."""
    from stabsynth import circuit, encoder, library, optimizer

    def call():
        code = library.load_code(spec)
        enc = encoder.synthesize_encoder(code.standard_form(), gate_set="cnot_cz")
        kwargs = {"level": level}
        if budget is not None:
            kwargs["search_budget"] = budget
        if witnesses is not None:
            kwargs["block_witnesses"] = witnesses
        optimized, report = optimizer.optimize(enc, **kwargs)
        return enc, optimized, report

    def check(result):
        enc, optimized, report = result
        if golden is not None:
            if circuit.to_json(optimized) != golden:
                return "output differs from the golden fixture"
            return None
        return _equivalence_reason(enc, optimized, report)

    return Op(
        label, call, check,
        size=lambda r: _cx_gates(tuple(r[1].gates) + tuple(r[2].frame)),
        fingerprint=lambda r: circuit.to_json(r[1]),
    )


def _equivalence_reason(original, optimized, report):
    want = oracle.outputs(original.n, original.roles, _plain(original.gates))
    got = oracle.outputs(
        optimized.n, optimized.roles,
        _plain(tuple(optimized.gates) + tuple(report.frame)),
    )
    if not oracle.same_up_to_one_phase(got, want):
        return "optimized circuit plus frame is not equivalent to the input"
    return None


def pool(workload: str, strata, make) -> dict:
    """Every input of the fixed pool, ``POOL_SIZE`` per stratum.

    The pool depends on ``POOL_SEED`` only.  ``make(pool_rng, stratum,
    i)`` builds pool input ``i``.  Maps each stratum to its inputs.
    """
    pool_rng = np.random.default_rng([POOL_SEED, WORKLOADS.index(workload)])
    return {
        stratum: [make(pool_rng, stratum, i) for i in range(POOL_SIZE)]
        for stratum in strata
    }


def seeded_pool(workload: str, rng, picks, make):
    """``picks[stratum]`` of the ``POOL_SIZE`` pool inputs of every
    stratum, picked by ``rng`` (from the run's seed).  Yields (stratum, i,
    input).
    """
    for stratum, inputs in pool(workload, picks, make).items():
        picked = rng.choice(POOL_SIZE, picks[stratum], replace=False)
        for i in sorted(int(v) for v in picked):
            yield stratum, i, inputs[i]


def _ports(rng, src, work):
    ops = [
        _optimize_op(f"ports/{name}", name, "rules", None, None,
                     _golden_text(src, name))
        for name in ("steane", "thirteen_qubit")
    ]

    def make(pool_rng, n, i):
        k = K_CYCLE[i % len(K_CYCLE)]
        return k, random_code(pool_rng, n, k)

    for n, i, (k, generators) in seeded_pool("ports", rng, PORT_PICKS, make):
        label = f"random_n{n}_k{k}_{i}"
        path = work / f"{label}.stab"
        path.write_text(_stab_text(label, k, generators))
        ops.append(_optimize_op(f"ports/{label}", str(path), "rules", None, None, None))
    return ops


def _search(rng, src, work):
    from stabsynth import library

    witnesses = library.golden_config("eight_qubit")["block_witnesses"]
    code = library.load_code("eight_qubit")
    gens = presentation(rng, [str(g).lstrip("+-") for g in code.generators])
    path = work / "eight_qubit_presentation.stab"
    path.write_text(_stab_text("eight_qubit_presentation", code.k, gens))
    return [
        _optimize_op("search/eight_qubit_witness", "eight_qubit", "full",
                     SEARCH_BUDGET, witnesses, _golden_text(src, "eight_qubit")),
        _optimize_op("search/eight_qubit_no_witness", "eight_qubit", "full",
                     SEARCH_BUDGET, None, None),
        _optimize_op("search/eight_qubit_presentation", str(path), "full",
                     SEARCH_BUDGET, witnesses, None),
    ]


def _cli_op(label, argv, check, size):
    from stabsynth import cli

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        return rc, buf.getvalue()

    return Op(label, call, check, size=lambda _r: size,
              fingerprint=lambda r: r)


def _verdict_check(expected_rc):
    def check(result):
        rc, text = result
        if rc != expected_rc or text.strip().splitlines()[-1] != (
            "PASS" if expected_rc == 0 else "FAIL"
        ):
            return f"verdict exit {rc}, expected {expected_rc}"
        return None
    return check


def _mutant(rng, n, gates):
    """One seeded single-gate edit: delete, insert or replace a gate."""
    gates = list(gates)
    action = int(rng.integers(3))
    pos = int(rng.integers(len(gates) + (1 if action == 1 else 0)))
    if action == 0:
        del gates[pos]
        return gates, f"delete@{pos}"
    kind = str(FULL_ALPHABET[int(rng.integers(len(FULL_ALPHABET)))])
    if kind.startswith("C"):
        q = tuple(int(v) + 1 for v in rng.choice(n, size=2, replace=False))
    else:
        q = (int(rng.integers(n)) + 1,)
    if action == 1:
        gates.insert(pos, (kind, q))
        return gates, f"insert@{pos}"
    gates[pos] = (kind, q)
    return gates, f"replace@{pos}"


def _mutant_check(enc, gates):
    """The encoder verifies strictly, so a mutant passes strict mode exactly
    when its outputs equal the encoder's with no phase slack."""

    def check(result):
        base = oracle.outputs(enc.n, enc.roles, _plain(enc.gates))
        same = oracle.exactly_equal(oracle.outputs(enc.n, enc.roles, gates), base)
        return _verdict_check(0 if same else 1)(result)

    return check


_AMP_LINE = re.compile(r"^\s+([+-][0-9.]+)([+-][0-9.]+)i \|([01]+)>$")


def _simulate_check(enc, sf_letters, bits, error):
    """Expected amplitudes and syndrome of ``stabsynth simulate``."""
    n = enc.n
    letter, qubit = error[0], int(error[2:])
    pauli = "".join(letter if q == qubit else "I" for q in range(1, n + 1))
    syndrome = "".join(
        "1" if oracle.anticommutes(pauli, g) else "0" for g in sf_letters
    )

    def check(result):
        rc, text = result
        if rc != 0:
            return f"simulate exited {rc}"
        col = int(bits, 2) if bits else 0
        state = oracle.outputs(n, enc.roles, _plain(enc.gates), column=col)
        state = oracle.apply_pauli_letters(state, n, pauli)
        got = {}
        for line in text.splitlines():
            m = _AMP_LINE.match(line)
            if m:
                got[m.group(3)] = complex(float(m.group(1)), float(m.group(2)))
        want = {
            format(i, f"0{n}b"): state[i]
            for i in np.nonzero(np.abs(state) > 1e-10)[0]
        }
        if got.keys() != want.keys() or any(
            abs(got[key] - want[key]) > 1e-4 for key in want
        ):
            return "simulated amplitudes differ from the oracle's"
        if f"syndrome: {syndrome} " not in text:
            return "syndrome differs from the oracle's"
        return None

    return check


def _verify(rng, src, work):
    from stabsynth import circuit, encoder, library

    ops = []
    for name in SHIPPED:
        sf = library.load_code(name).standard_form()
        enc = encoder.synthesize_encoder(sf, gate_set="mixed", name=f"{name}_encoder")
        golden_path = src / "stabsynth" / "golden" / f"{name}.optimized.json"
        golden = circuit.from_json(golden_path.read_text())
        ops.append(_cli_op(
            f"verify/{name}_golden",
            ["verify", name, str(golden_path), "--allow-frame"],
            _verdict_check(0), _cx_gates(golden.gates),
        ))
        enc_path = work / f"{name}_encoder.json"
        enc_path.write_text(circuit.to_json(enc))
        ops.append(_cli_op(
            f"verify/{name}_encoder", ["verify", name, str(enc_path)],
            _verdict_check(0), _cx_gates(enc.gates),
        ))
        for i in range(MUTANTS_PER_CODE[name]):
            gates, how = _mutant(rng, enc.n, _plain(enc.gates))
            mutant = enc.replace_gates([circuit.Gate(k, q) for k, q in gates])
            path = work / f"{name}_mutant{i}.json"
            path.write_text(circuit.to_json(mutant))
            ops.append(_cli_op(
                f"verify/{name}_mutant{i}_{how}", ["verify", name, str(path)],
                _mutant_check(enc, gates), _cx_gates(mutant.gates),
            ))
        letters = [str(g).lstrip("+-") for g in sf.generators]
        for i in range(SIMULATES_PER_CODE):
            bits = "".join(str(int(b)) for b in rng.integers(2, size=sf.k))
            error = f"{'XYZ'[int(rng.integers(3))]}@{int(rng.integers(sf.n)) + 1}"
            ops.append(_cli_op(
                f"verify/{name}_simulate{i}",
                ["simulate", name, "--logical", bits, "--error", error],
                _simulate_check(enc, letters, bits, error), _cx_gates(enc.gates),
            ))
    return ops


def _rewrite(rng, src, work):
    from stabsynth import circuit

    def make(pool_rng, stratum, i):
        tag, n = stratum
        sizes = REWRITE_GATES[tag]
        n_gates = sizes[i % len(sizes)]
        return n_gates, random_clifford(pool_rng, n, n_gates, ALPHABETS[tag])

    ops = []
    strata = [(tag, n) for tag in ALPHABETS for n in REWRITE_QUBITS]
    for (tag, n), inputs in pool("rewrite", strata, make).items():
        for i, (n_gates, (roles, gates)) in enumerate(inputs[:REWRITE_INPUTS]):
            roles, gates = relabel(rng.permutation(n), roles, gates)
            label = f"{tag}_n{n}_g{n_gates}_{i}"
            ops.append(_rewrite_op(label, circuit.Circuit(
                n=n, gates=tuple(circuit.Gate(k, q) for k, q in gates),
                roles=roles, name=label,
            )))
    return ops


def _rewrite_op(label, c):
    from stabsynth import circuit, optimizer

    def call():
        return c, *optimizer.optimize(c, level="rules")

    def check(result):
        return _equivalence_reason(*result)

    return Op(
        f"rewrite/{label}", call, check,
        size=lambda r: _cx_gates(tuple(r[1].gates) + tuple(r[2].frame)),
        fingerprint=lambda r: circuit.to_json(r[1]),
    )


_BY_NAME = {"ports": _ports, "search": _search, "verify": _verify, "rewrite": _rewrite}


def build(name: str, seed: int, src: Path, work: Path) -> list[Op]:
    """The op list of workload ``name`` for ``seed``; files go under ``work``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _BY_NAME[name](rng, src, work)
