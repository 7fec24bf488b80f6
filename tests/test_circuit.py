"""Circuit containers: validation, serialization round-trips, QASM export."""

import copy
import itertools
import json
import pickle

import numpy as np
import pytest

from stabsynth import rules
from stabsynth.circuit import (
    ONE_QUBIT_KINDS,
    TWO_QUBIT_KINDS,
    Circuit,
    Gate,
    from_json,
    gate_counts,
    to_json,
    to_qasm,
    two_qubit_count,
)


def test_gate_validation():
    assert Gate("CX", (1, 2)).control == 1
    assert Gate("CX", (1, 2)).target == 2
    assert str(Gate("CZ", (3, 7))) == "CZ(3,7)"
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate("T", (1,))
    with pytest.raises(ValueError, match="takes 1 qubit"):
        Gate("H", (1, 2))
    with pytest.raises(ValueError, match="takes 2 qubit"):
        Gate("CX", (1,))
    with pytest.raises(ValueError, match="1-based"):
        Gate("H", (0,))
    with pytest.raises(ValueError, match="control equals target"):
        Gate("CX", (2, 2))


def test_gates_are_interned_by_value():
    g = Gate("CX", (1, 2))
    assert Gate("CX", (np.int64(1), 2)) is g
    assert Gate(kind="CX", q=[1, 2]) is g
    assert type(g.q[0]) is int
    assert Gate("CX", (2, 1)) is not g and Gate("CX", (2, 1)) != g
    assert hash(g) == hash(Gate("CX", (1, 2)))
    assert not hasattr(g, "__dict__")


@pytest.mark.parametrize("kind, q", [
    ("T", (1,)), (["CX"], (1, 2)), ("CX", (1,)), ("H", (0,)), ("CX", (2, 2)),
])
def test_invalid_gate_is_never_interned(kind, q):
    for _ in range(2):  # a cached invalid gate would pass the second time
        with pytest.raises(ValueError):
            Gate(kind, q)
    assert Gate("CX", (1, 2)).q == (1, 2)
    assert Gate("H", (1,)).kind == "H"


def test_gate_copy_and_pickle_keep_value_and_identity():
    g = Gate("CZ", (3, 7))
    for again in (
        copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g)),
        pickle.loads(pickle.dumps(g, protocol=0)), Gate(g.kind, g.q),
    ):
        assert again == g and again is g and again.support == 1 << 3 | 1 << 7
    # Bit q is set for each qubit q, and the commutation test reads it.
    gates = [Gate(k, (q,)) for k in ONE_QUBIT_KINDS for q in range(1, 5)]
    gates += [
        Gate(k, q) for k in TWO_QUBIT_KINDS
        for q in itertools.permutations(range(1, 5), 2)
    ]
    for gate in gates:
        assert [q for q in range(8) if gate.support >> q & 1] == sorted(gate.q)
        assert gate.support == rules._action_masks(gate)[0]
    # Interning makes identity equality by value, so no field is compared.
    assert Gate.__eq__ is object.__eq__ and Gate.__hash__ is object.__hash__


def test_slotted_circuit_builds_and_copies(mixed_encoders):
    c = mixed_encoders["steane"]
    assert not hasattr(c, "__dict__")
    again = from_json(to_json(c))
    assert again == c and again.gates[0] is c.gates[0]
    swapped = c.replace_gates(c.gates[:2], note="shorter")
    assert swapped.gates == c.gates[:2] and swapped.notes[-1] == "shorter"
    assert pickle.loads(pickle.dumps(c)) == c
    assert copy.deepcopy(c) == c
    # record behaviour: value equality, hashing, repr, copies, frozen fields
    cx = Gate("CX", (1, 2))
    assert cx == Gate("CX", [1, 2]) and cx != Gate("CX", (2, 1))
    assert hash(cx) == hash(Gate("CX", (1, 2)))
    assert repr(cx) == "Gate(kind='CX', q=(1, 2))"
    assert pickle.loads(pickle.dumps(cx)) is cx and copy.deepcopy(cx) is cx
    small = Circuit(2, (Gate("H", (1,)), cx), ("ancilla_zero", "logical_input"),
                    name="demo", notes=("a",), measurements=((2, 0),))
    same = Circuit(2, [Gate("H", (1,)), cx], ["ancilla_zero", "logical_input"],
                   "demo", ["a"], [(2, 0)])
    assert small == same and hash(small) == hash(same)
    assert small != same.replace_gates(same.gates, note="b")
    assert small != (2, small.gates, small.roles, "demo", ("a",), ((2, 0),))
    assert repr(small) == (
        "Circuit(n=2, gates=(Gate(kind='H', q=(1,)), Gate(kind='CX', "
        "q=(1, 2))), roles=('ancilla_zero', 'logical_input'), name='demo', "
        "notes=('a',), measurements=((2, 0),))"
    )
    assert pickle.loads(pickle.dumps(small)) == small == copy.deepcopy(small)
    for record, field in ((cx, "kind"), (small, "name")):
        with pytest.raises(AttributeError):
            setattr(record, field, "x")
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_circuit_validation():
    roles = ("ancilla_zero", "logical_input")
    with pytest.raises(ValueError, match="roles must list 2"):
        Circuit(n=2, gates=(), roles=("logical_input",))
    with pytest.raises(ValueError, match="unknown role"):
        Circuit(n=1, gates=(), roles=("spectator",))
    with pytest.raises(ValueError, match="out of range"):
        Circuit(n=2, gates=(Gate("H", (3,)),), roles=roles)
    with pytest.raises(ValueError, match="measurement qubit"):
        Circuit(n=2, gates=(), roles=roles, measurements=((3, 0),))
    with pytest.raises(ValueError, match="measurement bit -1 is negative"):
        Circuit(n=2, gates=(), roles=roles, measurements=((1, -1),))


def test_role_queries_and_counts():
    c = Circuit(
        n=3,
        gates=(Gate("H", (1,)), Gate("CX", (1, 2)), Gate("CX", (1, 3))),
        roles=("ancilla_zero", "ancilla_zero", "logical_input"),
    )
    assert c.ancilla_qubits() == [1, 2]
    assert c.logical_qubits() == [3]
    assert gate_counts(c) == {"H": 1, "CX": 2}
    assert two_qubit_count(c) == 2


def test_replace_gates_keeps_identity_and_appends_note():
    c = Circuit(n=2, gates=(Gate("H", (1,)),), roles=("logical_input",) * 2,
                name="demo", notes=("origin",))
    swapped = c.replace_gates((Gate("X", (2,)),), note="rewritten")
    assert swapped.name == "demo"
    assert swapped.notes == ("origin", "rewritten")
    assert swapped.gates == (Gate("X", (2,)),)
    assert c.gates == (Gate("H", (1,)),)


def test_json_round_trip(mixed_encoders):
    for circuit in mixed_encoders.values():
        again = from_json(to_json(circuit))
        assert again == circuit


def test_json_round_trip_with_measurements(forms):
    from stabsynth.encoder import synthesize_syndrome_circuit

    meas = synthesize_syndrome_circuit(forms["eight_qubit"])
    assert from_json(to_json(meas)) == meas


def test_from_json_names_schema_violations():
    with pytest.raises(ValueError, match="not valid JSON"):
        from_json("{")
    with pytest.raises(ValueError, match="top level"):
        from_json("[]")
    with pytest.raises(ValueError, match="missing field 'roles'"):
        from_json('{"name": "x", "n": 1, "gates": [], "notes": []}')
    with pytest.raises(ValueError, match="unknown field 'extra'"):
        from_json(
            '{"name": "x", "n": 1, "roles": ["logical_input"],'
            ' "gates": [], "notes": [], "extra": 1}'
        )
    with pytest.raises(ValueError, match="gate 1 must have exactly"):
        from_json(
            '{"name": "x", "n": 1, "roles": ["logical_input"],'
            ' "gates": [{"kind": "H"}], "notes": []}'
        )
    with pytest.raises(ValueError, match="gate 1: unknown gate kind"):
        from_json(
            '{"name": "x", "n": 1, "roles": ["logical_input"],'
            ' "gates": [{"kind": ["H"], "q": [1]}], "notes": []}'
        )


@pytest.mark.parametrize("doc, message", [
    ({"n": True}, "'n' must be an integer"),
    ({"n": 1.0}, "'n' must be an integer"),
    ({"gates": [{"kind": "H", "q": [True]}]}, "gate 1 field 'q'"),
    ({"gates": [{"kind": "H", "q": [1.0]}]}, "gate 1 field 'q'"),
    ({"measurements": [{"q": 1, "bit": 1.5}]}, "measurement 1 fields"),
    ({"measurements": [{"q": True, "bit": False}]}, "measurement 1 fields"),
    ({"measurements": [{"q": "1", "bit": 0}]}, "measurement 1 fields"),
    ({"measurements": 5}, "'measurements' must be a list"),
])
def test_from_json_rejects_booleans_and_non_integers(doc, message):
    base = {"name": "x", "n": 1, "roles": ["logical_input"], "gates": [], "notes": []}
    with pytest.raises(ValueError, match=message):
        from_json(json.dumps({**base, **doc}))
    # The same document with plain integers parses.
    fixed = {"n": 1, "gates": [{"kind": "H", "q": [1]}],
             "measurements": [{"q": 1, "bit": 1}]}
    key = next(iter(doc))
    assert from_json(json.dumps({**base, key: fixed[key]}))


_BASE = {"name": "x", "n": 2, "roles": ["logical_input", "ancilla_zero"],
         "gates": [], "notes": []}


def _doc(**fields):
    return json.dumps({**_BASE, **fields})


# One malformed document per message from_json can give, with its text.
_MALFORMED = [
    ("{", "not valid JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    ("[" * 200000 + "]" * 200000, "JSON nested too deeply to parse"),
    ("[]", "top level must be an object"),
    (_doc(extra=1), "unknown field 'extra'"),
    ('{"name": "x"}', "missing field 'n'"),
    (_doc(name=1), "'name' must be a string"),
    (_doc(n="2"), "'n' must be an integer"),
    (_doc(roles={}), "'roles' must be a list"),
    (_doc(gates=None), "'gates' must be a list"),
    (_doc(notes="a"), "'notes' must be a list"),
    (_doc(gates=[{"kind": "H", "q": [1]}, ["H"]]), "gate 2 must be an object"),
    (_doc(gates=[{"kind": "H", "q": [1], "c": 0}]),
     "gate 1 must have exactly the fields 'kind' and 'q'"),
    (_doc(gates=[{"kind": "H", "q": 1}]),
     "gate 1 field 'q' must be a list of integers"),
    (_doc(gates=[{"kind": "CX", "q": [1, None]}]),
     "gate 1 field 'q' must be a list of integers"),
    (_doc(gates=[{"kind": "T", "q": [1]}]), "gate 1: unknown gate kind 'T'"),
    (_doc(gates=[{"kind": "CZ", "q": [1]}]),
     "gate 1: CZ takes 2 qubit index(es), got 1"),
    (_doc(gates=[{"kind": "S", "q": [0]}]),
     "gate 1: qubit indices are 1-based, got (0,)"),
    (_doc(gates=[{"kind": "CY", "q": [2, 2]}]),
     "gate 1: CY control equals target (2)"),
    # Gates from_json does not find interned go through Gate and its checks;
    # a bool or float qubit is refused even where H(1) is interned.
    (_doc(gates=[{"kind": 1, "q": [1]}]), "gate 1: unknown gate kind 1"),
    (_doc(gates=[{"kind": ["CX"], "q": [1, 2]}]),
     "gate 1: unknown gate kind ['CX']"),
    (_doc(gates=[{"kind": "H", "q": [1]}, {"kind": "T", "q": [1]}]),
     "gate 2: unknown gate kind 'T'"),
    (_doc(gates=[{"kind": "CX", "q": [1, 1]}]),
     "gate 1: CX control equals target (1)"),
    (_doc(gates=[{"kind": "H", "q": [1]}, {"kind": "H", "q": [0]}]),
     "gate 2: qubit indices are 1-based, got (0,)"),
    (_doc(gates=[{"kind": "H", "q": [1]}, {"kind": "H", "q": [True]}]),
     "gate 2 field 'q' must be a list of integers"),
    (_doc(gates=[{"kind": "H", "q": [1]}] * 2 + [{"kind": "H", "q": [1.0]}]),
     "gate 3 field 'q' must be a list of integers"),
    (_doc(measurements={}), "'measurements' must be a list"),
    (_doc(measurements=[{"q": 1, "bit": 0}, {"q": 1}]),
     "measurement 2 must be an object with fields 'q' and 'bit'"),
    (_doc(measurements=[7]),
     "measurement 1 must be an object with fields 'q' and 'bit'"),
    (_doc(measurements=[{"q": "1", "bit": 0}]),
     "measurement 1 fields 'q' and 'bit' must be integers"),
    (_doc(notes=["a", 2]), "'notes' entries must be strings"),
    (_doc(n=0, roles=[]), "circuit needs at least one qubit"),
    (_doc(roles=["logical_input"]), "roles must list 2 entries, got 1"),
    (_doc(roles=["logical_input", "data"]), "unknown role 'data'"),
    (_doc(gates=[{"kind": "H", "q": [3]}]),
     "gate H(3) qubit index 3 out of range for n=2"),
    (_doc(measurements=[{"q": 3, "bit": 0}]), "measurement qubit 3 out of range"),
    (_doc(measurements=[{"q": 1, "bit": -1}]), "measurement bit -1 is negative"),
]


@pytest.mark.parametrize(
    "text, message", _MALFORMED, ids=[m for _, m in _MALFORMED]
)
def test_from_json_gives_each_message_in_full(text, message):
    with pytest.raises(ValueError) as info:
        from_json(text)
    assert str(info.value) == message


def test_qasm_export():
    c = Circuit(
        n=2,
        gates=(Gate("H", (1,)), Gate("CX", (1, 2))),
        roles=("ancilla_zero", "logical_input"),
        measurements=((1, 0),),
    )
    text = to_qasm(c)
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert "qreg q[2];" in lines
    assert "creg c[1];" in lines
    assert "h q[0];" in lines
    assert "cx q[0],q[1];" in lines
    assert "measure q[0] -> c[0];" in lines
