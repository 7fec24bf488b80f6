"""Command-line interface: subcommands, exit codes, output formats."""

import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import stabsynth.cli
from stabsynth import linear, optimizer
from stabsynth.circuit import Circuit, Gate, from_json, gate_counts, to_json
from stabsynth.cli import _build_parser, main
from stabsynth.library import golden_circuit
from stabsynth.simulator import MAX_QUBITS

from conftest import random_code, surface_stab


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def mixed_eight(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    code, _, _ = run_cli(capsys, "synth", "eight_qubit", "-o", str(path))
    assert code == 0
    return path


@pytest.fixture()
def cnotcz_eight(tmp_path, capsys):
    path = tmp_path / "cnotcz.json"
    code, _, _ = run_cli(
        capsys, "synth", "eight_qubit", "--gates", "cnot-cz", "-o", str(path)
    )
    assert code == 0
    return path


def test_synth_writes_parseable_circuit(mixed_eight):
    circuit = from_json(mixed_eight.read_text())
    assert gate_counts(circuit) == {"H": 4, "S": 1, "CX": 8, "CY": 7, "CZ": 5}
    assert circuit.name == "eight_qubit_encoder"


def test_synth_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "synth", "steane")
    assert code == 0
    assert gate_counts(from_json(out)) == {"H": 3, "CX": 11}


def test_synth_unknown_code_exits_2(capsys):
    code, _, err = run_cli(capsys, "synth", "no_such_code")
    assert code == 2
    assert err.startswith("error:")


def test_a_directory_named_like_a_code_is_not_read(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    for name in ("steane", "steane.stab", "mine"):
        (tmp_path / name).mkdir()
    code, out, _ = run_cli(capsys, "synth", "steane", "-o", "steane.json")
    assert code == 0
    for spec in ("steane", "steane.stab"):
        code, out, _ = run_cli(capsys, "verify", spec, "steane.json")
        assert (code, out.splitlines()[-1]) == (0, "PASS")
    code, out, err = run_cli(capsys, "synth", "mine")
    assert (code, out) == (2, "")
    assert err.startswith("error: no such code or file: 'mine'")
    assert err.count("\n") == 1


def test_unreadable_code_file_exits_2(capsys, tmp_path, monkeypatch):
    stab = tmp_path / "locked.stab"
    stab.write_text("name: locked\nn: 3\nk: 1\nZZI\nIZZ\n")

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    for argv in (("synth", str(stab)), ("verify", str(stab), "c.json")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: cannot read code file {str(stab)!r}: "
            f"[Errno 13] Permission denied: {str(stab)!r}\n"
        )


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["synth", "eight_qubit", "--fast"])
    assert err.value.code == 2


# Each command's positionals, and a choice option it refuses "bad" for.
_COMMANDS = {
    "synth": (["steane"], "--gates"),
    "optimize": (["c.json"], "--level"),
    "syndromes": (["steane"], "--format"),
    "verify": (["steane", "c.json"], None),
    "simulate": (["steane"], None),
    "export-qasm": (["c.json"], None),
}


def _argv_rows():
    rows = [[], ["-h"], ["--help"], ["frobnicate"], ["frobnicate", "-h"],
            ["--", "verify", "steane", "c.json"], ["-h", "verify"]]
    for command, (positionals, choice) in _COMMANDS.items():
        rows += [
            [command, *positionals],
            [command, "-h"],
            [command, "--help"],
            [command],
            [command, *positionals, "extra"],
            [command, *positionals, "extra", "more"],
            [command, *positionals, "--fast"],
            [command, "--fast", *positionals],
            [command, "--", *positionals],
            [command, *positionals, "--", "extra"],
            [command, *positionals, "-h", "extra"],
        ]
        if choice:
            rows.append([command, *positionals, choice, "bad"])
            rows.append([command, *positionals, choice])
    rows += [
        ["verify", "steane", "c.json", "--allow-frame=1"],
        ["verify", "steane", "c.json", "--allow"],
        ["verify", "steane", "c.json", "--allow-frame", "--allow-frame"],
        ["verify", "steane"],
        ["optimize", "c.json", "--search-budget", "many"],
        ["optimize", "c.json", "--witness", "a.json", "--witness", "b.json"],
        ["optimize", "c.json", "--level", "full", "--report", "r.json"],
        ["synth", "steane", "--gates", "cnot-cz", "--no-strip", "-o", "o.json"],
        ["simulate", "steane", "--logical", "1", "--error", "X@2"],
        ["simulate", "steane", "--error"],
    ]
    return rows


def _parse_outcome(capsys, parse, argv):
    """(stdout, stderr, exit code, namespace) of ``parse(argv)``."""
    code = args = None
    try:
        args = vars(parse(list(argv)))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code, args


@pytest.mark.parametrize("argv", _argv_rows(), ids=" ".join)
def test_one_parse_answers_as_the_full_parser(capsys, argv):
    # The reference is the top-level parser, whose subparser action hands
    # the rest of argv to the command's parser: help, usage errors, their
    # exit codes and the parsed values must all be the same.
    want = _parse_outcome(capsys, _build_parser().parse_args, argv)
    assert _parse_outcome(capsys, stabsynth.cli._parse, argv) == want
    # help goes to stdout with exit 0, a usage error to stderr with exit 2
    out, err, code, args = want
    assert (code is None) == (args is not None)
    if code == 0:
        assert out.startswith("usage: stabsynth") and not err
    elif code is not None:
        assert code == 2 and not out and err.startswith("usage: stabsynth")


def test_verify_passes_strict_mixed(capsys, mixed_eight):
    code, out, _ = run_cli(capsys, "verify", "eight_qubit", str(mixed_eight))
    assert code == 0
    assert "stabilized basis states: 8/8" in out
    assert "projector-oracle matches: 8/8" in out
    assert out.rstrip().endswith("PASS")


def test_verify_strict_rejects_twisted_encoder(capsys, cnotcz_eight):
    # The CX/CZ lowering leaves a diagonal Pauli twist, so strict
    # verification fails but frame-tolerant verification discovers it.
    code, out, _ = run_cli(capsys, "verify", "eight_qubit", str(cnotcz_eight))
    assert code == 1
    assert out.rstrip().endswith("FAIL")

    code, out, _ = run_cli(
        capsys, "verify", "eight_qubit", str(cnotcz_eight), "--allow-frame"
    )
    assert code == 0
    assert "after frame Z(1) Z(2) Z(3)" in out
    assert out.rstrip().endswith("PASS")


def test_one_parser_serves_every_call_without_leaking_flags(
    capsys, tmp_path, cnotcz_eight
):
    # The parser is built once per process; each call must still see only
    # its own flags and the defaults.
    code, out, _ = run_cli(
        capsys, "verify", "eight_qubit", str(cnotcz_eight), "--allow-frame"
    )
    assert (code, out.splitlines()[-1]) == (0, "PASS")
    assert "after frame Z(1) Z(2) Z(3)" in out
    code, out, _ = run_cli(capsys, "verify", "eight_qubit", str(cnotcz_eight))
    assert (code, out.splitlines()[-1]) == (1, "FAIL")
    assert "after frame" not in out
    with pytest.raises(SystemExit) as err:
        main(["verify", "eight_qubit", str(cnotcz_eight), "--fast"])
    assert err.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "synth", "steane")
    assert code == 0
    assert gate_counts(from_json(out)) == {"H": 3, "CX": 11}

    assert _build_parser() is _build_parser()
    parse = _build_parser().parse_args
    assert parse(["optimize", "c.json", "--witness", "w.json"]).witness == ["w.json"]
    assert parse(["optimize", "c.json"]).witness is None
    assert parse(["verify", "steane", "c.json"]).allow_frame is False


def test_verify_catches_tampering(capsys, tmp_path, mixed_eight):
    circuit = from_json(mixed_eight.read_text())
    broken = circuit.replace_gates(circuit.gates[:-1])
    path = tmp_path / "broken.json"
    path.write_text(to_json(broken))
    code, out, _ = run_cli(
        capsys, "verify", "eight_qubit", str(path), "--allow-frame"
    )
    assert code == 1
    assert out.rstrip().endswith("FAIL")


def test_verify_allow_frame_rejects_a_phase_on_a_logical_wire(
    capsys, tmp_path, mixed_eight
):
    # S on a logical wire multiplies some amplitudes by i, which no Z frame
    # and no sign flip explains.
    circuit = from_json(mixed_eight.read_text())
    twisted = circuit.replace_gates(
        circuit.gates + (Gate("S", (circuit.logical_qubits()[0],)),)
    )
    path = tmp_path / "twisted.json"
    path.write_text(to_json(twisted))
    code, out, _ = run_cli(
        capsys, "verify", "eight_qubit", str(path), "--allow-frame"
    )
    assert code == 1
    assert out.rstrip().endswith("FAIL")


@pytest.mark.parametrize("measured, named", [
    ([1], "qubit 1"),
    ([5, 2, 5], "qubits 2, 5"),
])
def test_verify_refuses_a_circuit_that_measures(
    capsys, tmp_path, measured, named
):
    # The steane encoder with measurements added would otherwise verify
    # 2/2 and PASS, since verify checks the gates alone.
    code, _, _ = run_cli(capsys, "synth", "steane", "-o", str(tmp_path / "e.json"))
    assert code == 0
    doc = json.loads((tmp_path / "e.json").read_text())
    doc["measurements"] = [{"q": q, "bit": i} for i, q in enumerate(measured)]
    path = tmp_path / "measured.json"
    path.write_text(json.dumps(doc))
    for flags in ([], ["--allow-frame"]):
        code, out, err = run_cli(capsys, "verify", "steane", str(path), *flags)
        assert (code, out) == (2, "")
        assert err == (
            f"error: circuit measures {named}; verify checks encoders "
            "without measurements\n"
        )


def test_verify_rejects_wrong_code(capsys, mixed_eight):
    code, _, err = run_cli(capsys, "verify", "steane", str(mixed_eight))
    assert code == 2
    assert "8 qubits" in err


def test_verify_rejects_a_circuit_with_the_wrong_logical_inputs(
    capsys, tmp_path, mixed_eight
):
    # The eight_qubit encoder with one of its three inputs marked an
    # ancilla acts on the code's 8 qubits but marks 2 inputs.
    doc = json.loads(mixed_eight.read_text())
    doc["roles"][doc["roles"].index("logical_input")] = "ancilla_zero"
    path = tmp_path / "two_inputs.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "eight_qubit", str(path))
    assert (code, out) == (2, "")
    assert err == "error: circuit marks 2 logical inputs but eight_qubit has k=3\n"


def test_optimize_rules_and_full(capsys, tmp_path, cnotcz_eight):
    out_path = tmp_path / "rules.json"
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "optimize", str(cnotcz_eight),
        "-o", str(out_path), "--report", str(report_path),
    )
    assert code == 0
    assert gate_counts(from_json(out_path.read_text())) == {"CX": 19, "H": 4}
    report = json.loads(report_path.read_text())
    assert report["counts_after"] == {"CX": 19, "H": 4}
    assert report["frame"] == ["Z(4)"]

    witness_path = tmp_path / "w10.json"
    witness_path.write_text(json.dumps({"ops": [
        [8, 5], [7, 5], [8, 3], [6, 3], [2, 6],
        [1, 6], [2, 8], [1, 7], [5, 4], [6, 5],
    ]}))
    full_path = tmp_path / "full.json"
    code, _, _ = run_cli(
        capsys, "optimize", str(cnotcz_eight), "--level", "full",
        "--search-budget", "4000", "--witness", str(witness_path),
        "-o", str(full_path),
    )
    assert code == 0
    optimized = from_json(full_path.read_text())
    assert gate_counts(optimized) == {"CX": 18, "H": 4}

    code, out, _ = run_cli(
        capsys, "verify", "eight_qubit", str(full_path), "--allow-frame"
    )
    assert code == 0
    assert out.rstrip().endswith("PASS")


def test_optimized_random_encoders_verify_with_their_frame(capsys, tmp_path):
    # optimize keeps the S gates it collects in the circuit, so its frame
    # is Z's only, which verify --allow-frame can supply.
    rng = np.random.default_rng(60)
    stab, enc, opt = (tmp_path / f for f in ("c.stab", "enc.json", "opt.json"))
    verified = 0
    for _ in range(60):
        n = int(rng.integers(5, 11))
        k = int(rng.integers(1, 4))
        letters = "\n".join(str(g) for g in random_code(rng, n, k).generators)
        stab.write_text(f"name: random\nn: {n}\nk: {k}\n{letters}\n")
        for gates in ("mixed", "cnot-cz"):
            code, _, _ = run_cli(
                capsys, "synth", str(stab), "--gates", gates, "-o", str(enc)
            )
            if code:  # an odd-Y generator, refused by cnot-cz only
                assert (code, gates) == (2, "cnot-cz")
                continue
            assert run_cli(capsys, "optimize", str(enc), "-o", str(opt))[0] == 0
            code, out, _ = run_cli(
                capsys, "verify", str(stab), str(opt), "--allow-frame"
            )
            assert (code, out.splitlines()[-1]) == (0, "PASS"), (letters, gates)
            verified += 1
    assert verified > 60


def test_optimize_bad_witness_file_exits_2(capsys, tmp_path, cnotcz_eight):
    bad = tmp_path / "w.json"
    bad.write_text("{\"ops\": [[1, 2, 3]]}")
    code, _, err = run_cli(
        capsys, "optimize", str(cnotcz_eight), "--level", "full",
        "--witness", str(bad),
    )
    assert code == 2
    assert "witness" in err


def test_optimize_witness_outside_the_register_exits_2(
    capsys, tmp_path, cnotcz_eight
):
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"ops": [[1, 99]]}))
    code, out, err = run_cli(
        capsys, "optimize", str(cnotcz_eight), "--level", "full",
        "--witness", str(witness),
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: block witness 1: CX(1,99) acts outside qubits 1..8\n"
    )


def test_optimize_unreadable_circuit_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "optimize", str(tmp_path / "nope.json"))
    assert code == 2
    assert err.startswith("error:")


_UNREADABLE = {
    "nested": "[" * 200000 + "]" * 200000,
    "not_utf8": b"\xff\xfe",
}


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return path


@pytest.mark.parametrize("kind", sorted(_UNREADABLE))
@pytest.mark.parametrize("command", [
    ["export-qasm"], ["verify", "steane"], ["optimize"],
])
def test_unreadable_circuit_file_exits_2_with_one_line(
    capsys, tmp_path, command, kind
):
    path = _write(tmp_path / "c.json", _UNREADABLE[kind])
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("nested too deeply" if kind == "nested" else "utf-8") in err


@pytest.mark.parametrize("kind", sorted(_UNREADABLE))
def test_unreadable_witness_file_exits_2_with_one_line(
    capsys, tmp_path, cnotcz_eight, kind
):
    content = _UNREADABLE[kind]
    if kind == "nested":
        content = '{"ops": ' + content + "}"
    witness = _write(tmp_path / "w.json", content)
    code, out, err = run_cli(
        capsys, "optimize", str(cnotcz_eight), "--level", "full",
        "--witness", str(witness),
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad witness file {str(witness)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["synth", "steane", "-o"],
    ["optimize", "{circuit}", "-o"],
    ["optimize", "{circuit}", "-o", "{circuit}.opt", "--report"],
    ["export-qasm", "{circuit}", "-o"],
    ["optimize", "{circuit}", "--report", "{circuit}.rep", "-o"],
])
@pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
def test_unwritable_output_file_exits_2_with_one_line(
    capsys, tmp_path, command, where
):
    circuit = tmp_path / "steane.json"
    assert run_cli(capsys, "synth", "steane", "-o", str(circuit))[0] == 0
    target = tmp_path / "missing" / "out" if where == "missing_dir" else tmp_path
    argv = [arg.format(circuit=circuit) for arg in command] + [str(target)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {str(target)!r}: ")
    assert err.count("\n") == 1
    # no output of the failed call is left, whichever path was bad
    assert [p.name for p in tmp_path.iterdir()] == ["steane.json"]


def test_synth_signed_generator_exits_2(capsys, tmp_path):
    stab = tmp_path / "signed.stab"
    stab.write_text("name: signed\nn: 3\nk: 1\nZZI\n-IZZ\n")
    code, out, err = run_cli(capsys, "synth", str(stab))
    assert code == 2
    assert out == ""
    assert err.startswith("error: generator 2 carries a -1 sign")
    assert err.count("\n") == 1


def test_synth_cnot_cz_refuses_a_code_it_cannot_encode(capsys, tmp_path):
    # Z in place of S leaves a factor of i on YIZ that no Z frame absorbs.
    stab = tmp_path / "yiz.stab"
    stab.write_text("name: yiz\nn: 3\nk: 2\nYIZ\n")
    code, out, err = run_cli(capsys, "synth", str(stab), "--gates", "cnot-cz")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the cnot-cz encoder cannot encode yiz")
    assert err.rstrip().endswith("use --gates mixed")
    assert err.count("\n") == 1
    encoder = tmp_path / "yiz.json"
    assert main(["synth", str(stab), "-o", str(encoder)]) == 0
    assert main(["verify", str(stab), str(encoder)]) == 0
    capsys.readouterr()


def test_synth_cnot_cz_refusal_names_an_odd_y_generator(capsys, tmp_path):
    # The standard form is XIZI, IYIZ: the first generator is real, the
    # second, with one Y, purely imaginary.
    stab = tmp_path / "odd_y.stab"
    stab.write_text("name: odd_y\nn: 4\nk: 2\nXZII\nIIYZ\n")
    code, out, err = run_cli(capsys, "synth", str(stab), "--gates", "cnot-cz")
    assert (code, out) == (2, "")
    assert err == (
        "error: the cnot-cz encoder cannot encode odd_y: its standard-form "
        "generator IYIZ has an odd number of Y letters, so it fixes no real "
        "state; use --gates mixed\n"
    )


@pytest.mark.parametrize("name", ["eight_qubit", "steane", "thirteen_qubit"])
def test_synth_cnot_cz_accepts_the_shipped_codes(capsys, tmp_path, name):
    path = tmp_path / "enc.json"
    code, _, err = run_cli(
        capsys, "synth", name, "--gates", "cnot-cz", "-o", str(path)
    )
    assert (code, err) == (0, "")
    code, out, _ = run_cli(capsys, "verify", name, str(path), "--allow-frame")
    assert code == 0


def test_simulate_signed_generator_exits_2(capsys, tmp_path):
    stab = tmp_path / "signed.stab"
    stab.write_text("name: signed\nn: 3\nk: 1\nZZI\n-IZZ\n")
    code, out, err = run_cli(capsys, "simulate", str(stab))
    assert code == 2
    assert out == ""
    assert err.startswith("error: generator 2 carries a -1 sign")
    assert err.count("\n") == 1


def test_verify_signed_code_exits_2(capsys, tmp_path):
    # An encoder of the unsigned twin prepares the wrong code space, which
    # the +1-signed oracle cannot see, so verify refuses the signed code.
    unsigned = tmp_path / "unsigned.stab"
    unsigned.write_text("name: five\nn: 5\nk: 1\nXZZXI\nIXZZX\nXIXZZ\nZXIXZ\n")
    signed = tmp_path / "signed.stab"
    signed.write_text("name: five\nn: 5\nk: 1\nXZZXI\nIXZZX\nXIXZZ\n-ZXIXZ\n")
    enc = tmp_path / "enc.json"
    assert run_cli(capsys, "synth", str(unsigned), "-o", str(enc))[0] == 0
    assert run_cli(capsys, "verify", str(unsigned), str(enc))[0] == 0
    for flags in ((), ("--allow-frame",)):
        code, out, err = run_cli(capsys, "verify", str(signed), str(enc), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: generator 4 carries a -1 sign")
        assert err.count("\n") == 1


def test_syndromes_on_a_code_without_single_error_correction_exits_2(
    capsys, tmp_path
):
    # The [[3,1]] repetition code cannot tell Z errors apart.
    stab = tmp_path / "rep3.stab"
    stab.write_text("name: rep3\nn: 3\nk: 1\nZZI\nIZZ\n")
    for fmt in ("table", "json"):
        code, out, err = run_cli(capsys, "syndromes", str(stab), "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: syndrome collision: ")
        assert err.count("\n") == 1


def test_export_qasm_negative_measurement_bit_exits_2(capsys, tmp_path):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({
        "name": "m", "n": 1, "roles": ["logical_input"], "gates": [],
        "notes": [], "measurements": [{"q": 1, "bit": -1}],
    }))
    code, out, err = run_cli(capsys, "export-qasm", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "measurement bit -1 is negative" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("field, value", [
    ("n", True),
    ("gates", [{"kind": "X", "q": [True]}]),
    ("measurements", [{"q": 1, "bit": 1.5}]),
    ("measurements", [{"q": True, "bit": False}]),
])
def test_export_qasm_rejects_booleans_and_non_integers(capsys, tmp_path, field, value):
    path = tmp_path / "bad.json"
    doc = {"name": "m", "n": 1, "roles": ["logical_input"], "gates": [], "notes": []}
    path.write_text(json.dumps({**doc, field: value}))
    code, out, err = run_cli(capsys, "export-qasm", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and "must be" in err
    assert err.count("\n") == 1


def test_optimize_failed_proof_exits_2(capsys, tmp_path, monkeypatch):
    # An unsound rewrite pass that drops a gate: the final proof fails.
    monkeypatch.setattr(
        optimizer, "_pass_triangles", lambda gates, fires: list(gates)[1:]
    )
    circuit = Circuit(
        n=2, gates=(Gate("H", (1,)), Gate("CX", (1, 2))),
        roles=("logical_input", "ancilla_zero"),
    )
    path = tmp_path / "unsound.json"
    path.write_text(to_json(circuit))
    code, out, err = run_cli(capsys, "optimize", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: optimized circuit (with its Pauli frame) is not")
    assert err.count("\n") == 1


def test_optimize_negative_search_budget_exits_2(capsys, cnotcz_eight):
    code, out, err = run_cli(
        capsys, "optimize", str(cnotcz_eight), "--search-budget", "-1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: search budget must be non-negative, got -1\n"


def test_syndromes_formats(capsys):
    code, out, _ = run_cli(capsys, "syndromes", "eight_qubit")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert len(lines) == 26

    code, out, _ = run_cli(
        capsys, "syndromes", "eight_qubit", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 25
    assert rows[0]["decimal"] == 1


def test_simulate_reports_syndrome(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "eight_qubit", "--error", "X@3"
    )
    assert code == 0
    assert "01011" in out and "11" in out

    code, _, err = run_cli(capsys, "simulate", "eight_qubit", "--error", "Q@3")
    assert code == 2
    code, _, err = run_cli(capsys, "simulate", "eight_qubit", "--error", "X@99")
    assert code == 2
    assert "outside" in err


def test_simulate_prints_no_negative_zero(capsys):
    # Y@1 gives the steane state purely imaginary amplitudes: their real
    # parts print as +0.0000 whatever sign the arithmetic left them.
    code, out, _ = run_cli(capsys, "simulate", "steane", "--error", "Y@1")
    assert code == 0
    assert "-0.0000" not in out
    assert out.splitlines()[1:3] == [
        "  +0.0000-0.3536i |0001011>",
        "  +0.0000-0.3536i |0010101>",
    ]


def test_simulate_logical_bits(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "steane", "--logical", "1"
    )
    assert code == 0
    assert "|" in out  # amplitude lines carry basis labels

    code, _, err = run_cli(capsys, "simulate", "steane", "--logical", "11")
    assert code == 2


def test_export_qasm(capsys, mixed_eight, tmp_path):
    out_path = tmp_path / "circuit.qasm"
    code, _, _ = run_cli(
        capsys, "export-qasm", str(mixed_eight), "-o", str(out_path)
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("OPENQASM 2.0;")
    assert "cx" in text


# Run in a fresh interpreter with numpy blocked: importing the CLI, then
# running every command but optimize, with and without a frame for
# verify, leaves numpy and the simulator unloaded, and no command but
# optimize loads the optimizer stack.  The import loads no command's
# modules and no `dataclasses`; `verify` runs before any command that
# needs `encoder` or `syndrome` and loads neither, and `syndromes` loads
# no `encoder`.  Then `rules`, whose import proves its templates, loads
# neither numpy nor the simulator.
_NUMPY_FREE = """
import sys
sys.modules["numpy"] = None  # any import of numpy raises ImportError
from stabsynth.cli import main

OPTIMIZER = {"stabsynth.optimizer", "stabsynth.rules", "stabsynth.linear"}
COMMANDS = {"stabsynth.encoder", "stabsynth.syndrome"}

def unloaded(step, modules=OPTIMIZER | {"numpy", "stabsynth.simulator"}):
    loaded = {name for name, module in sys.modules.items() if module}
    assert not modules & loaded, (step, modules & loaded)

unloaded("import", OPTIMIZER | COMMANDS | {
    "numpy", "stabsynth.simulator", "stabsynth.stabilizer", "dataclasses",
    "inspect",
})
try:
    main(["--help"])
except SystemExit as done:
    assert done.code == 0
unloaded("--help")
circuit, golden, rep40, rep40_circuit = sys.argv[1:]
for argv, want in (
    (["verify", "no_such_code", circuit], 2),
    (["verify", "steane", circuit], 0),
    (["verify", "steane", circuit, "--allow-frame"], 0),
    (["verify", "thirteen_qubit", golden], 1),
    (["verify", "thirteen_qubit", golden, "--allow-frame"], 0),
    # past the dense simulator's 26 qubits
    (["verify", rep40, rep40_circuit], 0),
    (["syndromes", "steane"], 0),
    (["synth", "steane", "-o", circuit], 0),
    (["export-qasm", circuit], 0),
    (["simulate", "steane", "--error", "X@3"], 0),
    (["simulate", "thirteen_qubit", "--logical", "1011001", "--error", "Y@5"], 0),
    (["synth", rep40, "-o", rep40_circuit], 0),
    (["simulate", rep40, "--error", "X@40"], 0),
):
    assert main(argv) == want, argv
    unloaded(argv)
    if argv[0] == "verify":
        unloaded(argv, COMMANDS)
    elif argv[0] == "syndromes":
        unloaded(argv, {"stabsynth.encoder"})
import stabsynth.rules  # proves its templates and commutation test exactly
unloaded("rules", {"numpy", "stabsynth.simulator"})
"""


def test_commands_without_amplitudes_load_no_numpy(tmp_path):
    golden = tmp_path / "thirteen_qubit.json"
    golden.write_text(to_json(golden_circuit("thirteen_qubit")))
    rep40, _ = _repetition(tmp_path, 40)
    # Encoders synthesized here, for the verify rows that come before
    # the script's own synth; that synth must write the same bytes.
    circuit, rep40_circuit = tmp_path / "steane.json", tmp_path / "rep40_encoder.json"
    assert main(["synth", "steane", "-o", str(circuit)]) == 0
    assert main(["synth", rep40, "-o", str(rep40_circuit)]) == 0
    made = circuit.read_text(), rep40_circuit.read_text()
    src = Path(stabsynth.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE, str(circuit), str(golden), rep40,
         str(rep40_circuit)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert (circuit.read_text(), rep40_circuit.read_text()) == made


def test_optimize_runs_from_a_fresh_interpreter(tmp_path):
    script = """
import sys
from stabsynth.cli import main

circuit, out = sys.argv[1:]
assert main(["synth", "steane", "-o", circuit]) == 0
assert "stabsynth.rules" not in sys.modules
assert main(["optimize", circuit, "-o", out]) == 0
assert "stabsynth.rules" in sys.modules
assert "dataclasses" not in sys.modules
"""
    src = Path(stabsynth.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    enc, out = tmp_path / "steane.json", tmp_path / "steane.optimized.json"
    done = subprocess.run(
        [sys.executable, "-c", script, str(enc), str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    optimized, _ = optimizer.optimize(from_json(enc.read_text()))
    assert out.read_text() == to_json(optimized)


@pytest.mark.parametrize("flags, budget", [
    ((), linear.DEFAULT_SEARCH_BUDGET),
    (("--search-budget", "7"), 7),
])
def test_search_budget_reaching_optimize(
    capsys, monkeypatch, cnotcz_eight, flags, budget
):
    seen = []
    real = optimizer.optimize

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["search_budget"])
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "optimize", spy)
    code, _, _ = run_cli(capsys, "optimize", str(cnotcz_eight), *flags)
    assert code == 0
    assert seen == [budget]


def _repetition(tmp_path, n):
    """A [[n, 1]] repetition code and a one-CX circuit with its roles."""
    code = tmp_path / f"rep{n}.stab"
    rows = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
    code.write_text(f"name: rep{n}\nn: {n}\nk: 1\n" + "\n".join(rows) + "\n")
    circuit = tmp_path / f"rep{n}.json"
    circuit.write_text(to_json(Circuit(
        n=n, gates=(Gate("CX", (1, 2)),),
        roles=("logical_input",) + ("ancilla_zero",) * (n - 1),
    )))
    return str(code), str(circuit)


@pytest.mark.parametrize("n", [40, 100])
@pytest.mark.parametrize("command", ["optimize"])
def test_past_the_dense_limit_exits_2(capsys, tmp_path, n, command):
    # Only optimize holds dense states, for its final proof.
    _, circuit_path = _repetition(tmp_path, n)
    code, out, err = run_cli(capsys, command, circuit_path)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {n} qubits exceed the dense simulator's limit of {MAX_QUBITS}\n"
    )


@pytest.mark.parametrize("name", ["rep40", "rep100", "surface7"])
def test_verify_passes_past_the_dense_limit(capsys, tmp_path, name):
    # verify holds no statevector, so it decides a synthesized encoder at
    # any n: the repetition codes at n = 40 and 100, and [[49, 1, 7]].
    if name.startswith("rep"):
        code_path, _ = _repetition(tmp_path, int(name[3:]))
    else:
        code_path = tmp_path / f"{name}.stab"
        code_path.write_text(surface_stab(int(name[7:])))
    circuit_path = tmp_path / f"{name}.json"
    assert run_cli(capsys, "synth", str(code_path), "-o", str(circuit_path))[0] == 0
    code, out, err = run_cli(capsys, "verify", str(code_path), str(circuit_path))
    assert (code, out, err) == (0, (
        "stabilized basis states: 2/2\n"
        "projector-oracle matches: 2/2\nPASS\n"
    ), "")


def test_simulate_past_the_dense_limit_lists_its_one_amplitude(capsys, tmp_path):
    # The repetition code's |0_L> is |0...0>: one amplitude at n = 40.
    code_path, _ = _repetition(tmp_path, 40)
    code, out, err = run_cli(capsys, "simulate", code_path)
    assert (code, err) == (0, "")
    assert out == f"code: rep40  logical: |0>\n  +1.0000+0.0000i |{'0' * 40}>\n"


def test_simulate_refuses_more_amplitudes_than_it_lists(capsys, tmp_path):
    # The [[28, 1]] code with the 27 checks X_i X_(i+1) has d = 27 pivot
    # rows, so its state has 2^27 nonzero amplitudes: one line, before any
    # is listed, and at once.
    rows = ["I" * i + "XX" + "I" * (26 - i) for i in range(27)]
    spec = tmp_path / "wide28.stab"
    spec.write_text("name: wide28\nn: 28\nk: 1\n" + "\n".join(rows) + "\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", str(spec))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: the state has 2^27 nonzero amplitudes; at most 2^26 are listed\n"
    )


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_reader_that_closes_early_ends_the_command_quietly(
    tmp_path, unbuffered
):
    """`stabsynth simulate ... | head -n 1`: exit 1, no traceback.

    The state of this code has 2^13 amplitudes, about 280 kB of output, so
    the writer is still printing when the reader closes after one line.
    Run with stdout buffered and unbuffered (``PYTHONUNBUFFERED``).
    """
    rows = ["I" * i + "XX" + "I" * (12 - i) for i in range(13)]
    code = tmp_path / "wide.stab"
    code.write_text("name: wide\nn: 14\nk: 1\n" + "\n".join(rows) + "\n")
    proc = _start_cli("simulate", str(code), unbuffered=unbuffered)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == b"code: wide  logical: |0>\n"
    assert err == b""


def test_a_reader_that_closes_before_the_last_flush_leaves_no_message():
    """`stabsynth syndromes steane | true`: the whole table is still in the
    stdout buffer when the first write fails, so only the console entry
    point's redirect keeps the interpreter's last flush quiet."""
    proc = _start_cli("syndromes", "steane", unbuffered="")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def _start_cli(*argv, unbuffered):
    src = Path(stabsynth.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return subprocess.Popen(
        [sys.executable, "-m", "stabsynth.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


def test_a_closed_reader_in_process_returns_1_and_leaves_fd_1(monkeypatch):
    """``main`` only reports the closed pipe; ``run`` redirects stdout."""

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["syndromes", "steane"]) == 1
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
