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

Importing this module loads neither numpy nor the dense simulator:
``verify`` and ``simulate`` import them where they first need amplitudes,
and ``optimize`` for its final proof, so ``synth``, ``syndromes``,
``export-qasm``, ``--help`` and input errors start without them.
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
from .gf2 import solve as gf2_solve
from .linear import DEFAULT_SEARCH_BUDGET
from .encoder import require_unsigned, synthesize_encoder
from .optimizer import OptimizationError, optimize
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
    # Some generator neither fixes nor negates C|0...0>: no Z frame can
    # repair that, so verify would FAIL the encoder whatever the frame.
    if gate_set == "cnot_cz" and None in _fixing_signs(
        circuit.gates, sf.generators
    ):
        raise _InputError(
            f"the {args.gates} encoder cannot encode {code.name}: its "
            "state is not stabilized up to a Z frame; use --gates mixed"
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


def _logical_inputs(circuit, sf):
    """(P_b, L_b) for every logical input b, in label order.

    Input b is one Pauli away from input 0 on both sides: the circuit
    gives C|b> = P_b·psi with P_b the product of the conjugated logical
    X's C·X_q·C†, and the oracle gives L_b·phi with L_b the product of
    ``sf.logical_x``.  P_b is Hermitian, so comparing P_b·psi with
    L_b·phi amplitude by amplitude is comparing psi with the one Pauli
    image Q_b·phi, Q_b = P_b·L_b, at index j for label j ^ P_b.x.
    """
    n = sf.n
    conj_x = [
        PauliString(1 << n - q, 0, n=n).conjugated_by(circuit.gates)
        for q in circuit.logical_qubits()
    ]
    one = PauliString.identity(n)
    inputs = [(one, one)]
    for b in range(1, 2**sf.k):
        # b sets one more logical bit than b - low: its lowest set bit
        low = b & -b
        p, ell = inputs[b - low]
        j = sf.k - low.bit_length()
        inputs.append((p * conj_x[j], ell * sf.logical_x[j]))
    return inputs


def _compare_inputs(psi, phi, inputs, allow_frame):
    """Compare every logical input's output with the oracle's.

    ``psi`` is the circuit's amplitude array for input 0, ``phi`` the
    oracle's state for it, and ``inputs`` lists (P_b, L_b) per input b, as
    ``_logical_inputs`` returns them.  Returns ``(consistent, matched,
    equations, quiet_signs)``:

    - ``consistent`` is False when some input has an index where the two
      amplitudes agree up to neither sign; the inputs after it are skipped.
    - ``matched`` counts the inputs that agree within TOL everywhere.
    - ``equations[flip, label]`` marks each label of a live index (either
      amplitude at least 1e-10) whose amplitudes agree up to the sign
      (-1)^flip.  A terminal Z frame on wire set F flips the sign of each
      amplitude by the XOR of its label bits on F, so F solves
      ``parity(label & F) == flip`` for every marked label.  Labels are
      ``gf2`` rows (qubit 1 the most significant bit).
    - ``quiet_signs`` (with ``allow_frame`` only) keeps per input whether a
      quiet index fits neither sign within TOL, and the labels of the quiet
      indices that fit only + and only -.  A solved F gives every live
      index its sign, so only these can still fail under it.

    Both sides are compared only where either is at least TOL/2.  Off that
    set both amplitudes are below TOL/2, so the index is quiet, fits both
    signs within TOL and cannot fail a match: the answer is the full
    comparison's, at about 2·2^r amplitudes per input instead of 2^n.
    """
    import numpy as np

    from .simulator import TOL, pauli_amplitudes

    psi_read = np.abs(psi) >= TOL / 2
    psi_at = np.flatnonzero(psi_read)
    phi_at = np.flatnonzero(np.abs(phi.amps) >= TOL / 2)
    equations = np.zeros((2, psi.size), dtype=bool)
    quiet_signs = []
    consistent = True
    matched = 0
    for p, ell in inputs:
        q = p * ell
        extra = phi_at ^ q.x
        at = np.concatenate([psi_at, extra[~psi_read[extra]]])
        ours = psi[at]
        theirs = pauli_amplitudes(phi, q, at)
        diff = np.abs(ours - theirs)
        total = np.abs(ours + theirs)
        live = (np.abs(ours) >= 1e-10) | (np.abs(theirs) >= 1e-10)
        same = live & (diff < 1e-10)
        flip = live & ~same & (total < 1e-10)
        if (live & ~(same | flip)).any():
            consistent = False  # no frame is sought and nothing matches
            break
        if allow_frame:
            # input b's label for psi's index i is i ^ P_b.x
            labels = at ^ p.x
            equations[0, labels[same]] = True
            equations[1, labels[flip]] = True
            plus, minus = ~live & (diff <= TOL), ~live & (total <= TOL)
            quiet_signs.append((
                (~live & ~(plus | minus)).any(),
                labels[plus & ~minus].tolist(),
                labels[minus & ~plus].tolist(),
            ))
        matched += bool(diff.max() <= TOL)
    return consistent, matched, equations, quiet_signs


def _fixing_signs(gates, generators) -> list[int | None]:
    """Per generator g: 0 when g fixes psi, 1 when -g does, None when neither.

    psi = C|0...0> for the circuit C that applies ``gates`` in order.  g
    fixes psi exactly when C†·g·C fixes |0...0>, that is when C†·g·C is
    +Z^z, and -g fixes psi when it is -Z^z.  C† applies the gates in
    reverse, each its own inverse but S, whose inverse is S·Z.
    """
    inverse = []
    for gate in reversed(gates):
        inverse.append(gate)
        if gate.kind == "S":
            inverse.append(Gate("Z", gate.q))
    signs = []
    for g in generators:
        pulled = g.conjugated_by(inverse)
        signs.append(None if pulled.x else {0: 0, 2: 1}.get(pulled.phase_exp))
    return signs


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

    from .simulator import DenseLimitError, logical_label, projector_encode, run

    n, k = sf.n, sf.k
    try:
        psi = run(circuit, logical_label(circuit, "0" * k)).amps
        phi = projector_encode(sf, "0" * k)
    except DenseLimitError as exc:
        raise _InputError(str(exc)) from exc
    inputs = _logical_inputs(circuit, sf)
    consistent, matched, equations, quiet_signs = _compare_inputs(
        psi, phi, inputs, args.allow_frame
    )
    frame = 0
    if args.allow_frame and consistent:
        rows = equations[0].nonzero()[0].tolist()
        flipped = equations[1].nonzero()[0].tolist()
        solved = gf2_solve(rows + flipped, [0] * len(rows) + [1] * len(flipped))
        consistent = solved is not None
        frame = solved or 0
    frame_wires = [q for q in range(1, n + 1) if frame >> (n - q) & 1]

    # g·Z_F·P_b·psi = ±Z_F·P_b·(g·psi), with - when g anticommutes with
    # Z_F·P_b, so g fixes input b when that sign cancels the one on g
    # that fixes psi.
    signs = _fixing_signs(circuit.gates, sf.generators)
    stabilized = 0
    if None not in signs:
        for p, _ in inputs:
            x, z = p.x, p.z ^ frame
            stabilized += all(
                ((g.x & z) ^ (g.z & x)).bit_count() & 1 == sign
                for g, sign in zip(sf.generators, signs)
            )
    # With no frame the first pass counted the matches.
    if not consistent:
        matched = 0
    elif frame:
        matched = sum(
            not neither
            and not any((label & frame).bit_count() % 2 for label in plus)
            and all((label & frame).bit_count() % 2 for label in minus)
            for neither, plus, minus in quiet_signs
        )

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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
