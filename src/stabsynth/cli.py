"""Command-line interface for the stabilizer-code toolchain.

Subcommands
-----------
synth        synthesize an encoder circuit for a code
optimize     run the optimization pipeline on a circuit JSON file
syndromes    print a code's single-qubit-error syndrome table
verify       check a circuit against the code's encoding oracle
simulate     encode a logical basis state, optionally with an error
export-qasm  render a circuit JSON file as OpenQASM 2.0

Codes are named either by a ``.stab`` file path or by a shipped name
(``eight_qubit``, ``steane``, ``thirteen_qubit``).  Exit codes: 0 on
success, 1 when a verification fails, 2 on input errors (including
unknown flags).  All commands are deterministic: identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import library
from .circuit import Circuit, from_json, to_json, to_qasm
from .gf2 import solve as gf2_solve
from .linear import DEFAULT_SEARCH_BUDGET
from .encoder import require_unsigned, synthesize_encoder
from .optimizer import OptimizationError, optimize
from .pauli import PauliString
from .simulator import (
    TOL,
    StateVector,
    apply_pauli,
    check_stabilized,
    logical_label,
    projector_encode,
    run,
)
from .syndrome import build_syndrome_table, format_table, syndrome_of

__all__ = ["main"]

_ERROR_SPEC = re.compile(r"^([XYZ])@([0-9]+)$")


class _InputError(Exception):
    """User input the CLI cannot act on (exit code 2)."""


def _load_code(spec: str) -> library.CodeDefinition:
    try:
        return library.load_code(spec)
    except (FileNotFoundError, library.StabParseError, ValueError) as exc:
        raise _InputError(str(exc)) from exc


def _load_circuit(path: str) -> Circuit:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _InputError(f"cannot read circuit file {path!r}: {exc}") from exc
    try:
        return from_json(text)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_synth(args) -> int:
    code = _load_code(args.code)
    sf = code.standard_form()
    gate_set = args.gates.replace("-", "_")
    try:
        circuit = synthesize_encoder(
            sf, gate_set=gate_set, strip=not args.no_strip,
            name=f"{code.name}_encoder",
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    _write_output(to_json(circuit), args.output)
    return 0


def _cmd_optimize(args) -> int:
    circuit = _load_circuit(args.circuit)
    witnesses = []
    for path in args.witness or []:
        try:
            payload = json.loads(Path(path).read_text())
            ops = []
            for pair in payload["ops"]:
                c, t = pair
                ops.append((int(c), int(t)))
            witnesses.append(ops)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise _InputError(f"bad witness file {path!r}: {exc}") from exc
    try:
        optimized, report = optimize(
            circuit,
            level=args.level,
            search_budget=args.search_budget,
            block_witnesses=witnesses or None,
        )
    except (ValueError, OptimizationError) as exc:
        raise _InputError(str(exc)) from exc
    _write_output(to_json(optimized), args.output)
    if args.report:
        Path(args.report).write_text(report.to_json())
    return 0


def _cmd_syndromes(args) -> int:
    code = _load_code(args.code)
    try:
        table = build_syndrome_table(code.standard_form())
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    sys.stdout.write(format_table(table, args.format))
    return 0


def _cmd_verify(args) -> int:
    code = _load_code(args.code)
    sf = code.standard_form()
    try:
        require_unsigned(sf)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    circuit = _load_circuit(args.circuit)
    if circuit.n != sf.n:
        raise _InputError(
            f"circuit acts on {circuit.n} qubits but {code.name} has {sf.n}"
        )
    logical = circuit.logical_qubits()
    if len(logical) != sf.k:
        raise _InputError(
            f"circuit marks {len(logical)} logical inputs "
            f"but {code.name} has k={sf.k}"
        )

    # Input b is one Pauli away from input 0 on both sides: the circuit
    # gives C|b> = P_b·psi with P_b the product of the conjugated logical
    # X's C·X_q·C†, and the oracle gives L_b·phi with L_b the product of
    # ``sf.logical_x``.  P_b is Hermitian, so comparing P_b·psi with
    # L_b·phi amplitude by amplitude is comparing psi with the one Pauli
    # image Q_b·phi, Q_b = P_b·L_b, at index j for label j ^ P_b.x.
    n, k = sf.n, sf.k
    base = run(circuit, logical_label(circuit, "0" * k))
    psi = base.amps
    phi = projector_encode(sf, "0" * k)
    conj_x = [
        PauliString(1 << n - q, 0, n=n).conjugated_by(circuit.gates)
        for q in logical
    ]
    one = PauliString.identity(n)
    inputs = [(one, one)]  # (P_b, L_b) in label order
    for b in range(1, 2**k):
        # b sets one more logical bit than b - low: its lowest set bit
        low = b & -b
        p, ell = inputs[b - low]
        j = k - low.bit_length()
        inputs.append((p * conj_x[j], ell * sf.logical_x[j]))

    # Sign equations for --allow-frame: a terminal Z frame on wire set F
    # flips the sign of each amplitude by the XOR of its label bits on F.
    # Labels are ``gf2`` rows (qubit 1 the most significant bit), so F as
    # an int row solves ``parity(label & F) == flip`` for every label that
    # matches up to sign; ``equations[flip, label]`` marks each once.
    indices = np.arange(2**n)
    equations = np.zeros((2, 2**n), dtype=bool)
    psi_small = np.abs(psi) < 1e-10
    consistent = True
    matched = 0
    for p, ell in inputs:
        moved = apply_pauli(phi, p * ell).amps
        diff = np.abs(psi - moved)
        live = ~(psi_small & (np.abs(moved) < 1e-10))
        same = live & (diff < 1e-10)
        flip = live & ~same & (np.abs(psi + moved) < 1e-10)
        if (live & ~(same | flip)).any():
            consistent = False  # no frame is sought and nothing matches
            break
        if args.allow_frame:
            # label i holds input b's amplitude at psi's index i ^ P_b.x
            shifted = indices ^ p.x
            equations[0] |= same[shifted]
            equations[1] |= flip[shifted]
        matched += bool(diff.max() <= TOL)

    frame = 0
    if args.allow_frame and consistent:
        rows = np.flatnonzero(equations[0]).tolist()
        flipped = np.flatnonzero(equations[1]).tolist()
        solved = gf2_solve(rows + flipped, [0] * len(rows) + [1] * len(flipped))
        consistent = solved is not None
        frame = solved or 0
    frame_wires = [q for q in range(1, n + 1) if frame >> (n - q) & 1]
    z_frame = PauliString(0, frame, n=n)

    # g·Z_F·P_b·psi = ±Z_F·P_b·(g·psi), with + when g commutes with
    # Z_F·P_b, so whether g and whether -g fix psi decide every input.
    fixed = [
        (
            check_stabilized(base, g),
            check_stabilized(base, PauliString(g.x, g.z, g.phase_exp + 2, n=n)),
        )
        for g in sf.generators
    ]
    stabilized = sum(
        all(
            fixed_g[not g.commutes_with(z_frame * p)]
            for g, fixed_g in zip(sf.generators, fixed)
        )
        for p, _ in inputs
    )
    # Z_F·P_b·psi - L_b·phi = P_b·(±Z_F·psi - Q_b·phi), with + when Z_F
    # commutes with P_b.  With no frame the first pass counted this.
    if not consistent:
        matched = 0
    elif frame:
        framed = apply_pauli(base, z_frame).amps
        matched = 0
        for p, ell in inputs:
            sign = 1 if z_frame.commutes_with(p) else -1
            moved = apply_pauli(phi, p * ell).amps
            matched += bool(np.max(np.abs(sign * framed - moved)) <= TOL)

    frame_note = (
        " after frame " + " ".join(f"Z({q})" for q in frame_wires)
        if frame_wires
        else ""
    )
    total = 2**k
    print(f"stabilized basis states: {stabilized}/{total}{frame_note}")
    print(f"projector-oracle matches: {matched}/{total}{frame_note}")
    ok = stabilized == total and matched == total
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_simulate(args) -> int:
    code = _load_code(args.code)
    sf = code.standard_form()
    bits = args.logical if args.logical is not None else "0" * sf.k
    if len(bits) != sf.k or any(b not in "01" for b in bits):
        raise _InputError(
            f"--logical wants {sf.k} bits of 0/1, got {args.logical!r}"
        )
    try:
        encoder = synthesize_encoder(
            sf, gate_set="mixed", name=f"{code.name}_encoder"
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    state = run(encoder, logical_label(encoder, bits))
    error = None
    if args.error:
        m = _ERROR_SPEC.match(args.error)
        if not m:
            raise _InputError(
                f"--error wants the form P@q with P in X,Y,Z (e.g. X@3), "
                f"got {args.error!r}"
            )
        letter, qubit = m.group(1), int(m.group(2))
        if not 1 <= qubit <= sf.n:
            raise _InputError(f"--error qubit {qubit} outside 1..{sf.n}")
        error = PauliString.parse(
            "".join(letter if x == qubit else "I" for x in range(1, sf.n + 1))
        )
        state = apply_pauli(state, error)

    print(f"code: {code.name}  logical: |{bits}>", end="")
    print(f"  error: {args.error}" if error is not None else "")
    for label, amp in state.nonzero_labels():
        print(f"  {amp.real:+.4f}{amp.imag:+.4f}i |{label}>")
    if error is not None:
        syndrome = syndrome_of(error, sf)
        print(f"syndrome: {syndrome:0{sf.m}b} (decimal {syndrome})")
    return 0


def _cmd_export_qasm(args) -> int:
    circuit = _load_circuit(args.circuit)
    _write_output(to_qasm(circuit), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabsynth",
        description="Synthesize, optimize, and verify stabilizer-code circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize an encoder circuit")
    p.add_argument("code", help=".stab file or shipped code name")
    p.add_argument("--gates", choices=("mixed", "cnot-cz"), default="mixed")
    p.add_argument(
        "--no-strip", action="store_true",
        help="keep gates that provably act on |0> wires",
    )
    p.add_argument("-o", "--output", metavar="OUT.json")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("optimize", help="optimize a circuit JSON file")
    p.add_argument("circuit", metavar="circuit.json")
    p.add_argument("--level", choices=("rules", "full"), default="rules")
    p.add_argument(
        "--search-budget", type=int, default=DEFAULT_SEARCH_BUDGET, metavar="N"
    )
    p.add_argument(
        "--witness", action="append", metavar="W.json",
        help='JSON file {"ops": [[control, target], ...]} with a known '
        "short realisation usable for matching CNOT regions (repeatable)",
    )
    p.add_argument("-o", "--output", metavar="OUT.json")
    p.add_argument("--report", metavar="REPORT.json")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("syndromes", help="print the syndrome table")
    p.add_argument("code")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_syndromes)

    p = sub.add_parser("verify", help="check a circuit encodes the code")
    p.add_argument("code")
    p.add_argument("circuit", metavar="circuit.json")
    p.add_argument(
        "--allow-frame", action="store_true",
        help="accept (and report) a terminal Pauli-Z frame",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="encode a basis state, show the state")
    p.add_argument("code")
    p.add_argument("--error", metavar="P@q")
    p.add_argument("--logical", metavar="BITS")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("export-qasm", help="render circuit JSON as OpenQASM 2.0")
    p.add_argument("circuit", metavar="circuit.json")
    p.add_argument("-o", "--output", metavar="OUT.qasm")
    p.set_defaults(func=_cmd_export_qasm)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
