"""Code library: .stab parsing with line-precise errors, fixtures, overrides."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from stabsynth import library

from stabsynth.circuit import gate_counts
from stabsynth.library import (
    SHIPPED_CODES,
    CodeDefinition,
    StabParseError,
    golden_circuit,
    golden_config,
    list_codes,
    load_code,
    load_stab,
    loads_stab,
)
from stabsynth.pauli import PauliString
from stabsynth.symplectic import CheckMatrix

GOOD = """\
name: demo
n: 4
k: 2
# a comment becomes a note
XXXX
ZZZZ
"""


def test_shipped_codes_load(codes):
    assert list_codes() == list(SHIPPED_CODES)
    assert {c.name for c in codes.values()} == set(SHIPPED_CODES)
    assert [(c.n, c.k) for c in codes.values()] == [(8, 3), (7, 1), (13, 7)]


def test_load_code_accepts_suffix_and_path(tmp_path):
    assert load_code("steane.stab").name == "steane"
    path = tmp_path / "demo.stab"
    path.write_text(GOOD)
    code = load_code(path)
    assert code.name == "demo" and code.n == 4 and code.k == 2
    assert code.notes == ("a comment becomes a note",)
    assert load_stab(path).generators == code.generators


def test_a_file_spec_with_a_trailing_slash_names_the_file(tmp_path):
    """``steane.stab/`` is read as the file, not as the shipped ``steane``."""
    path = tmp_path / "steane.stab"
    path.write_text(GOOD)
    assert load_code(f"{path}/").name == "demo"


def test_unknown_code_lists_the_shipped_names():
    with pytest.raises(FileNotFoundError) as err:
        load_code("perfect_five")
    for name in SHIPPED_CODES:
        assert name in str(err.value)


def parse_error(text):
    with pytest.raises(StabParseError) as err:
        loads_stab(text, source="demo.stab")
    return str(err.value)


def test_parse_error_messages_carry_line_numbers():
    # problems not tied to one line carry no line number
    assert parse_error("n: 4\nk: 2\nXXXX\nZZZZ") == "demo.stab: missing header 'name'"
    assert parse_error(
        "name: d\nn: 4\nXXXX\nk: 2\nZZZZ"
    ) == "demo.stab:4: header 'k' after the first generator line"
    assert parse_error(
        "name: d\nn: 4\nn: 5\nk: 2\nXXXX\nZZZZ"
    ) == "demo.stab:3: duplicate header 'n' (first given on line 2)"
    assert parse_error(
        "name: d\nn: 4\nk: 2\nflavor: odd\nXXXX\nZZZZ"
    ) == "demo.stab:4: unknown header 'flavor'"
    assert (
        "demo.stab:4: bad generator: bad Pauli letter 'Q'"
        in parse_error("name: d\nn: 4\nk: 2\nXQXX\nZZZZ")
    )
    assert parse_error(
        "name: d\nn: four\nk: 2\nXXXX\nZZZZ"
    ) == "demo.stab:2: header 'n' is not an integer: 'four'"
    assert parse_error(
        "name: d\nn: 4\nk: 4\nXXXX\nZZZZ"
    ) == "demo.stab:3: need 0 < k < n, got n=4, k=4"
    assert parse_error(
        "name: d\nn: 4\nk: 2\nXXXX"
    ) == "demo.stab:4: expected n-k=2 generator lines, found 1"
    assert parse_error(
        "name: d\nn: 4\nk: 2\nXXX\nZZZZ"
    ) == "demo.stab:4: generator has 3 letters, expected n=4"
    assert parse_error(
        "name: d\nn: 4\nk: 2\nXXXI\nZIII"
    ) == "demo.stab:5: generator anticommutes with the generator on line 4"
    # an anticommuting pair is named before a phase of +/-i
    assert parse_error(
        "name: d\nn: 4\nk: 2\niZZII\nXIII"
    ) == "demo.stab:5: generator anticommutes with the generator on line 4"
    assert parse_error(
        "name: d\nn: 4\nk: 2\niZZII\nIIXX"
    ) == "demo.stab: generator 1 has phase +/-i; stabilizer generators must " \
        "square to the identity"


def test_blank_lines_and_comments_are_skipped():
    code = loads_stab("\nname: d\n\n# note one\nn: 4\nk: 2\n\nXXXX\n# two\nZZZZ\n")
    assert code.notes == ("note one", "two")
    assert len(code.generators) == 2


def test_code_definition_validates_count():
    gens = (PauliString.parse("XXXX"),)
    with pytest.raises(ValueError):
        CodeDefinition("bad", 4, 2, gens, ())


def test_code_definition_builds_forms():
    code = loads_stab(GOOD)
    check = code.check_matrix()
    assert check.n == 4 and check.m == 2
    sf = code.standard_form()
    assert sf.k == 2
    # value equality and hashing leave out the validated check matrix
    again = loads_stab(GOOD)
    assert again == code and hash(again) == hash(code)
    assert again.check_matrix() is not check
    assert code != CodeDefinition("demo", 4, 2, code.generators)
    assert repr(code) == (
        "CodeDefinition(name='demo', n=4, k=2, generators=(PauliString('XXXX'), "
        "PauliString('ZZZZ')), notes=('a comment becomes a note',))"
    )
    assert pickle.loads(pickle.dumps(code)) == code == copy.deepcopy(code)
    with pytest.raises(AttributeError):
        code.name = "other"


@pytest.mark.parametrize("name", SHIPPED_CODES)
def test_a_code_is_validated_once(monkeypatch, name):
    built = []
    init = CheckMatrix.__init__

    def counting(self, generators):
        built.append(self)
        init(self, generators)

    monkeypatch.setattr(CheckMatrix, "__init__", counting)
    code = load_code(name)
    sf = code.standard_form()
    assert built == [sf.base] and code.check_matrix() is sf.base
    assert isinstance(sf.base.paulis, tuple)


def test_golden_config_inlines_witnesses():
    config = golden_config("eight_qubit")
    assert config["gate_set"] == "cnot_cz"
    assert config["level"] == "full"
    assert config["search_budget"] == 4000
    (witness,) = config["block_witnesses"]
    assert len(witness) == 10
    assert all(len(pair) == 2 for pair in witness)
    assert "block_witness_refs" not in config

    steane = golden_config("steane")
    assert steane == {"code": "steane", "gate_set": "cnot_cz", "level": "rules"}


def test_golden_circuits_match_their_reports():
    for name, counts in (
        ("eight_qubit", {"H": 4, "CX": 18}),
        ("steane", {"H": 3, "CX": 10}),
        ("thirteen_qubit", {"H": 5, "CX": 41}),
    ):
        circuit = golden_circuit(name)
        assert gate_counts(circuit) == counts
        assert any(note.startswith("optimized: level=") for note in circuit.notes)


@pytest.mark.parametrize("read, fixture", [
    (golden_config, "nine_qubit.config.json"),
    (golden_circuit, "nine_qubit.optimized.json"),
])
def test_an_unshipped_golden_is_not_found(read, fixture):
    with pytest.raises(FileNotFoundError) as info:
        read("nine_qubit")
    assert str(info.value) == f"no fixture golden/{fixture}"


def test_fixture_directory_override(tmp_path, monkeypatch):
    override = tmp_path / "fixtures"
    override.mkdir()
    (override / "steane.stab").write_text(
        "name: steane_patched\nn: 4\nk: 2\nXXXX\nZZZZ\n"
    )
    monkeypatch.setenv("STABSYNTH_FIXTURE_DIR", str(override))
    assert load_code("steane").name == "steane_patched"
    # files absent from the override directory fall back to the package
    assert load_code("eight_qubit").n == 8
    config = json.loads(json.dumps(golden_config("steane")))
    assert config["code"] == "steane"


@pytest.fixture()
def override_dirs(tmp_path, monkeypatch):
    """An override directory holding a directory named like each fixture."""
    for name in ("eight_qubit.stab", "steane.config.json",
                 "steane.optimized.json"):
        (tmp_path / name).mkdir()
    monkeypatch.setenv("STABSYNTH_FIXTURE_DIR", str(tmp_path))


def test_a_directory_in_the_override_does_not_hide_a_code(override_dirs):
    code = load_code("eight_qubit")
    assert (code.name, code.n, code.k) == ("eight_qubit", 8, 3)


def test_a_directory_in_the_override_does_not_hide_a_config(override_dirs):
    assert golden_config("steane")["code"] == "steane"


def test_a_directory_in_the_override_does_not_hide_a_golden(override_dirs):
    assert gate_counts(golden_circuit("steane")) == {"H": 3, "CX": 10}


def test_the_package_imports_nothing_and_is_a_plain_directory(tmp_path):
    # A regular package: `import stabsynth` runs an empty __init__, and
    # importlib.resources reads fixtures from one directory path rather
    # than a namespace package's MultiplexedPath.
    script = """
import sys
from importlib.resources import files
from pathlib import Path
import stabsynth
assert not [m for m in sys.modules if m.startswith("stabsynth.")], sys.modules
root = files("stabsynth")
assert isinstance(root, Path) and root.is_dir(), type(root)
assert (root / "codes" / "steane.stab").is_file()
"""
    src = Path(library.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
