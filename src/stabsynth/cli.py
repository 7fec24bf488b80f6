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
success, 1 when a verification fails or stdout's reader goes away, 2 on
input errors: unknown flags, every ``ValueError`` a command raises (an
``optimize`` circuit past ``simulator.MAX_QUBITS`` and a ``simulate``
state with more amplitudes than it lists among them), and every file it
cannot read or write.  ``main`` alone turns those into one
``error: <message>`` line on stderr; a command only re-raises, as a
``ValueError``, an error that is not one or that needs a file name.
All commands are deterministic: identical inputs give byte-identical
outputs.

Importing this module loads neither numpy, the dense simulator nor the
optimizer stack (``optimizer``, whose ``rules`` import runs the exact
template proofs, and ``linear``); only ``optimize`` loads them, for its
rewrites and its dense final proof, which bounds it to 26 qubits.
``verify`` and ``simulate`` import ``stabilizer``, which decides every
logical input in closed form and lists each amplitude exactly from
stabilizer rows, with no statevector, so they run at any n.  ``encoder``
and ``syndrome`` load only in the commands that run them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

from . import library
from .circuit import Circuit, from_json, to_json, to_qasm
from .pauli import PauliString
from .symplectic import require_unsigned

__all__ = ["main", "run"]

_ERROR_SPEC = re.compile(r"^([XYZ])@([0-9]+)$")
_UNIT = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def _load_code(spec: str) -> library.CodeDefinition:
    try:
        return library.load_code(spec)
    except FileNotFoundError as exc:
        raise ValueError(str(exc)) from exc
    except OSError as exc:
        raise ValueError(f"cannot read code file {spec!r}: {exc}") from exc


def _load_circuit(path: str) -> Circuit:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read circuit file {path!r}: {exc}") from exc
    try:
        return from_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out!r}: {exc}") from exc


def _cmd_synth(args) -> int:
    from .encoder import synthesize_encoder
    from .stabilizer import fixing_signs

    code = _load_code(args.code)
    sf = code.standard_form()
    gate_set = args.gates.replace("-", "_")
    circuit = synthesize_encoder(
        sf, gate_set=gate_set, strip=not args.no_strip,
        name=f"{code.name}_encoder",
    )

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
        raise ValueError(
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
        except (
            OSError, ValueError, KeyError, TypeError, RecursionError
        ) as exc:
            raise ValueError(f"bad witness file {path!r}: {exc}") from exc
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
    except OptimizationError as exc:
        raise ValueError(str(exc)) from exc
    # The report first: a failed write then leaves no output it created.
    report_new = args.report and not os.path.exists(args.report)
    if args.report:
        _write_output(report.to_json(), args.report)
    try:
        _write_output(to_json(optimized), args.output)
    except ValueError:
        if report_new:
            os.remove(args.report)
        raise
    return 0


def _cmd_syndromes(args) -> int:
    from .syndrome import build_syndrome_table, format_table

    code = _load_code(args.code)
    table = build_syndrome_table(code.standard_form())
    sys.stdout.write(format_table(table, args.format))
    return 0


def _cmd_verify(args) -> int:
    code = _load_code(args.code)
    sf = code.standard_form()
    require_unsigned(sf)
    circuit = _load_circuit(args.circuit)
    if circuit.n != sf.n:
        raise ValueError(
            f"circuit acts on {circuit.n} qubits but {code.name} has {sf.n}"
        )
    logical = circuit.logical_qubits()
    if len(logical) != sf.k:
        raise ValueError(
            f"circuit marks {len(logical)} logical inputs "
            f"but {code.name} has k={sf.k}"
        )
    if circuit.measurements:
        measured = sorted({q for q, _ in circuit.measurements})
        raise ValueError(
            f"circuit measures {'qubit' if len(measured) == 1 else 'qubits'} "
            f"{', '.join(map(str, measured))}; verify checks encoders "
            "without measurements"
        )

    from .stabilizer import verify_counts

    n, k = sf.n, sf.k
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
    from .encoder import synthesize_encoder
    from .stabilizer import amplitudes
    from .syndrome import syndrome_of

    code = _load_code(args.code)
    sf = code.standard_form()
    bits = args.logical if args.logical is not None else "0" * sf.k
    if len(bits) != sf.k or any(b not in "01" for b in bits):
        raise ValueError(
            f"--logical wants {sf.k} bits of 0/1, got {args.logical!r}"
        )
    encoder = synthesize_encoder(
        sf, gate_set="mixed", name=f"{code.name}_encoder"
    )
    error = None
    if args.error:
        m = _ERROR_SPEC.match(args.error)
        if not m:
            raise ValueError(
                f"--error wants the form P@q with P in X,Y,Z (e.g. X@3), "
                f"got {args.error!r}"
            )
        letter, qubit = m.group(1), int(m.group(2))
        if not 1 <= qubit <= sf.n:
            raise ValueError(f"--error qubit {qubit} outside 1..{sf.n}")
        error = PauliString.parse(
            "".join(letter if x == qubit else "I" for x in range(1, sf.n + 1))
        )
    d, amps = amplitudes(encoder, bits, error)

    print(f"code: {code.name}  logical: |{bits}>", end="")
    print(f"  error: {args.error}" if error is not None else "")
    for index, m in amps:
        # e^(iπ·m/4)/√2^d is _UNIT[m]/√2^(d + m % 2); a part that rounds
        # to zero prints as +0.0000, whatever its sign
        size = 2 ** -((d + m % 2) / 2)
        real, imag = (round(v * size, 4) or 0.0 for v in _UNIT[m])
        print(f"  {real:+.4f}{imag:+.4f}i |{index:0{sf.n}b}>")
    if error is not None:
        syndrome = syndrome_of(error, sf)
        print(f"syndrome: {syndrome:0{sf.m}b} (decimal {syndrome})")
    return 0


def _cmd_export_qasm(args) -> int:
    circuit = _load_circuit(args.circuit)
    _write_output(to_qasm(circuit), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, built once per process."""
    return _parsers()[0]


@functools.cache  # built on the first call, not at import
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """(the top-level parser, {command name: that command's parser})."""
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

    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, parsing argv once.

    The top-level parser hands everything after a command name to that
    command's parser, so when argv starts with one, its parser parses the
    rest directly into a namespace that names the command, and what it
    leaves goes to the top-level ``error``, as the top level would report
    it.  Any other argv (no command, ``-h``, an unknown command) goes
    through the top-level parser.
    """
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0])
    )
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return status
    except ValueError as exc:  # every input error, read or write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader of stdout went away, as in `| head`
        return 1


def run() -> int:
    """The ``stabsynth`` console script: ``main`` on ``sys.argv``.

    A reader that closed stdout early leaves unwritten output behind.  As
    the Python docs on SIGPIPE advise, stdout is then pointed at devnull,
    so the interpreter's last flush cannot raise again at exit.
    """
    status = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(run())
