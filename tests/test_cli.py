"""Command-line interface: subcommands, exit codes, output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabsynth.cli
from stabsynth import optimizer
from stabsynth.circuit import Circuit, Gate, from_json, gate_counts, to_json
from stabsynth.cli import _build_parser, main
from stabsynth.simulator import MAX_QUBITS


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


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["synth", "eight_qubit", "--fast"])
    assert err.value.code == 2


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


def test_verify_rejects_wrong_code(capsys, mixed_eight):
    code, _, err = run_cli(capsys, "verify", "steane", str(mixed_eight))
    assert code == 2
    assert "8 qubits" in err


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


# Run in a fresh interpreter: importing the CLI, then running the commands
# that never need an amplitude, leaves numpy and the simulator unloaded.
_NUMPY_FREE = """
import sys
from stabsynth.cli import main

def unloaded(step):
    assert not {"numpy", "stabsynth.simulator"} & set(sys.modules), step

unloaded("import")
try:
    main(["--help"])
except SystemExit as done:
    assert done.code == 0
unloaded("--help")
circuit = sys.argv[1]
for argv, want in (
    (["synth", "steane", "-o", circuit], 0),
    (["syndromes", "steane"], 0),
    (["export-qasm", circuit], 0),
    (["verify", "no_such_code", circuit], 2),
):
    assert main(argv) == want, argv
    unloaded(argv[0])
"""


def test_commands_without_amplitudes_load_no_numpy(tmp_path):
    src = Path(stabsynth.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE, str(tmp_path / "steane.json")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


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
@pytest.mark.parametrize("command", ["optimize", "verify", "simulate"])
def test_past_the_dense_limit_exits_2(capsys, tmp_path, n, command):
    code_path, circuit_path = _repetition(tmp_path, n)
    argv = {
        "optimize": [circuit_path],
        "verify": [code_path, circuit_path],
        "simulate": [code_path],
    }[command]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {n} qubits exceed the dense simulator's limit of {MAX_QUBITS}\n"
    )
