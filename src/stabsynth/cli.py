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
unknown flags, and circuits or codes past the dense simulator's qubit
limit).  All commands are deterministic: identical inputs produce
byte-identical outputs.

Importing this module loads neither numpy, the dense simulator nor the
optimizer stack (``optimizer``, whose ``rules`` import runs the exact
template proofs, and ``linear``): ``optimize`` imports the optimizer where
it first needs it, and the optimizer loads the simulator for its final
proof; ``simulate`` imports numpy and the simulator where it first needs
amplitudes.  ``verify`` loads neither: it imports ``stabilizer``, which
decides every logical input exactly from stabilizer signs and one
amplitude.  So ``synth``, ``syndromes``, ``export-qasm``, ``verify``,
``--help`` and input errors start without any of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from . import library
from .circuit import Circuit, Gate, from_json, to_json, to_qasm
from .encoder import require_unsigned, synthesize_encoder
from .pauli import PauliString
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
    from .stabilizer import fixing_signs

    # Some generator neither fixes nor negates C|0...0>: no Z frame can
    # repair that, so verify would FAIL the encoder whatever the frame.
    if gate_set == "cnot_cz" and None in fixing_signs(
        circuit.gates, sf.generators
    ):
        # A Hermitian Pauli with an odd number of Y letters is a purely
        # imaginary matrix, so it fixes no real state, and {H, CX, CZ}
        # with a Z frame prepares only real ones.
        odd_y = next(
            (g for g in sf.generators if (g.x & g.z).bit_count() & 1), None
        )
        cause = (
            f"its standard-form generator {odd_y} has an odd number of Y "
            "letters, so it fixes no real state" if odd_y is not None
            else "its state is not stabilized up to a Z frame"
        )
        raise _InputError(
            f"the {args.gates} encoder cannot encode {code.name}: "
            f"{cause}; use --gates mixed"
        )
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
    from .optimizer import OptimizationError, optimize

    # No --search-budget leaves optimize its own default budget.
    budget = {} if args.search_budget is None else {
        "search_budget": args.search_budget
    }
    try:
        optimized, report = optimize(
            circuit,
            level=args.level,
            block_witnesses=witnesses or None,
            **budget,
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
    if circuit.measurements:
        measured = sorted({q for q, _ in circuit.measurements})
        raise _InputError(
            f"circuit measures {'qubit' if len(measured) == 1 else 'qubits'} "
            f"{', '.join(map(str, measured))}; verify checks encoders "
            "without measurements"
        )

    from .limits import DenseLimitError, dense_size
    from .stabilizer import verify_counts

    n, k = sf.n, sf.k
    try:
        dense_size(n)
    except DenseLimitError as exc:
        raise _InputError(str(exc)) from exc
    stabilized, matched, frame = verify_counts(circuit, sf, args.allow_frame)
    frame_wires = [q for q in range(1, n + 1) if frame >> (n - q) & 1]

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
    from .simulator import DenseLimitError, apply_pauli, logical_label, run

    try:
        state = run(encoder, logical_label(encoder, bits))
    except DenseLimitError as exc:
        raise _InputError(str(exc)) from exc
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
        # a part that rounds to zero prints as +0.0000, whatever its sign
        real, imag = (round(v, 4) or 0.0 for v in (amp.real, amp.imag))
        print(f"  {real:+.4f}{imag:+.4f}i |{label}>")
    if error is not None:
        syndrome = syndrome_of(error, sf)
        print(f"syndrome: {syndrome:0{sf.m}b} (decimal {syndrome})")
    return 0


def _cmd_export_qasm(args) -> int:
    circuit = _load_circuit(args.circuit)
    _write_output(to_qasm(circuit), args.output)
    return 0


@functools.cache  # built on the first call, not at import
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
    p.add_argument("--search-budget", type=int, metavar="N")
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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
