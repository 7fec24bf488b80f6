"""Gate-level circuit representation shared by synthesis, optimization,
simulation, and export.

Gates use 1-based qubit indices everywhere a human sees them (circuit JSON,
tables, error messages); only the OpenQASM export shifts to 0-based register
offsets.  A circuit records a per-qubit role: ``ancilla_zero`` qubits are
promised to enter in state |0>, ``logical_input`` qubits carry arbitrary
input.  Syndrome-measurement circuits additionally carry measurement
markers (qubit, classical bit) — the only classical bookkeeping in this
package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "Gate",
    "Circuit",
    "ONE_QUBIT_KINDS",
    "TWO_QUBIT_KINDS",
    "GATE_KINDS",
    "ROLES",
    "gate_counts",
    "two_qubit_count",
    "to_qasm",
    "to_json",
    "from_json",
]

ONE_QUBIT_KINDS = ("H", "S", "X", "Y", "Z")
TWO_QUBIT_KINDS = ("CX", "CY", "CZ")
GATE_KINDS = ONE_QUBIT_KINDS + TWO_QUBIT_KINDS
ROLES = ("ancilla_zero", "logical_input")


def _check_gate(kind: str, q: tuple[int, ...]) -> None:
    if kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    want = 1 if kind in ONE_QUBIT_KINDS else 2
    if len(q) != want:
        raise ValueError(f"{kind} takes {want} qubit index(es), got {len(q)}")
    if any(i < 1 for i in q):
        raise ValueError(f"qubit indices are 1-based, got {q}")
    if want == 2 and q[0] == q[1]:
        raise ValueError(f"{kind} control equals target ({q[0]})")


# Every Gate ever built, by (kind, q); at most 8·n² of them on qubits 1..n.
_GATES: dict[tuple[str, tuple[int, ...]], Gate] = {}


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Gate:
    """A single gate: ``kind`` plus 1-based qubit indices.

    Two-qubit gates store (control, target); for CZ the two play symmetric
    roles but the stored order is preserved for round-tripping.

    Gates are interned: constructing, copying or unpickling a gate returns
    the one instance with its kind and qubits.  Equality and hashing are
    therefore by identity, which is equality by value.
    """

    kind: str
    q: tuple[int, ...]
    support: int = field(repr=False)  # bit q for each qubit q

    def __new__(cls, kind: str, q):
        q = tuple(q)
        try:  # an interned gate passed the checks below when it was built
            return _GATES[kind, q]
        except (KeyError, TypeError):  # a new gate, or an unhashable part
            pass
        q = tuple(map(int, q))
        key = (kind, q)
        try:
            gate = _GATES.get(key)
        except TypeError:  # an unhashable kind, rejected below
            gate = None
        if gate is None:
            _check_gate(kind, q)
            gate = object.__new__(cls)
            object.__setattr__(gate, "kind", kind)
            object.__setattr__(gate, "q", q)
            object.__setattr__(gate, "support", sum(1 << i for i in q))
            _GATES[key] = gate
        return gate

    def __reduce__(self):
        return (type(self), (self.kind, self.q))

    @property
    def control(self) -> int:
        return self.q[0]

    @property
    def target(self) -> int:
        return self.q[1]

    def __str__(self) -> str:
        return f"{self.kind}({','.join(str(i) for i in self.q)})"


@dataclass(frozen=True, slots=True)
class Circuit:
    """Ordered gate list over n qubits with per-qubit roles and metadata."""

    n: int
    gates: tuple[Gate, ...]
    roles: tuple[str, ...]
    name: str = ""
    notes: tuple[str, ...] = ()
    measurements: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "roles", tuple(self.roles))
        object.__setattr__(self, "notes", tuple(self.notes))
        object.__setattr__(
            self, "measurements", tuple((int(a), int(b)) for a, b in self.measurements)
        )
        if self.n < 1:
            raise ValueError("circuit needs at least one qubit")
        if len(self.roles) != self.n:
            raise ValueError(f"roles must list {self.n} entries, got {len(self.roles)}")
        for role in self.roles:
            if role not in ROLES:
                raise ValueError(f"unknown role {role!r}")
        for g in self.gates:
            for i in g.q:
                if i > self.n:
                    raise ValueError(
                        f"gate {g} qubit index {i} out of range for n={self.n}"
                    )
        for qubit, bit in self.measurements:
            if not 1 <= qubit <= self.n:
                raise ValueError(f"measurement qubit {qubit} out of range")
            if bit < 0:
                raise ValueError(f"measurement bit {bit} is negative")

    def ancilla_qubits(self) -> list[int]:
        """1-based indices of the qubits promised to start in |0>."""
        return [i + 1 for i, r in enumerate(self.roles) if r == "ancilla_zero"]

    def logical_qubits(self) -> list[int]:
        return [i + 1 for i, r in enumerate(self.roles) if r == "logical_input"]

    def replace_gates(self, gates, note: str | None = None) -> "Circuit":
        notes = self.notes + (note,) if note else self.notes
        return Circuit(
            n=self.n,
            gates=tuple(gates),
            roles=self.roles,
            name=self.name,
            notes=notes,
            measurements=self.measurements,
        )

    def __str__(self) -> str:
        body = " ".join(str(g) for g in self.gates)
        return f"<{self.name or 'circuit'} n={self.n}: {body}>"


def gate_counts(c: Circuit) -> dict[str, int]:
    """Histogram of gate kinds; kinds that do not occur are omitted."""
    counts: dict[str, int] = {}
    for g in c.gates:
        counts[g.kind] = counts.get(g.kind, 0) + 1
    return counts


def two_qubit_count(c: Circuit) -> int:
    return sum(1 for g in c.gates if g.kind in TWO_QUBIT_KINDS)


def to_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text; qubit i maps to register offset i-1."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.n}];"]
    if c.measurements:
        width = max(bit for _q, bit in c.measurements) + 1
        lines.append(f"creg c[{width}];")
    for g in c.gates:
        args = ",".join(f"q[{i - 1}]" for i in g.q)
        lines.append(f"{g.kind.lower()} {args};")
    for qubit, bit in c.measurements:
        lines.append(f"measure q[{qubit - 1}] -> c[{bit}];")
    return "\n".join(lines) + "\n"


def to_json(c: Circuit) -> str:
    doc: dict = {
        "name": c.name,
        "n": c.n,
        "roles": list(c.roles),
        "gates": [{"kind": g.kind, "q": list(g.q)} for g in c.gates],
        "notes": list(c.notes),
    }
    if c.measurements:
        doc["measurements"] = [{"q": q, "bit": b} for q, b in c.measurements]
    return json.dumps(doc, indent=2) + "\n"


_REQUIRED = ("name", "n", "roles", "gates", "notes")
_FIELDS = frozenset((*_REQUIRED, "measurements"))
_GATE_FIELDS = frozenset(("kind", "q"))
_MEASUREMENT_FIELDS = frozenset(("q", "bit"))


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` parse as bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


# Parsed JSON holds exact ints, so a list of JSON integers has only these
# types; ``true`` is a bool and ``1.0`` a float.
_INT_ONLY = frozenset((int,))


def from_json(text: str) -> Circuit:
    """Parse circuit JSON, naming any schema violation.

    Each check is made before its message is built, so a valid document
    formats none.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    for key in doc:
        if key not in _FIELDS:
            raise ValueError(f"unknown field {key!r}")
    for key in _REQUIRED:
        if key not in doc:
            raise ValueError(f"missing field {key!r}")
    if not isinstance(doc["name"], str):
        raise ValueError("'name' must be a string")
    if not _is_int(doc["n"]):
        raise ValueError("'n' must be an integer")
    for key in ("roles", "gates", "notes"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key!r} must be a list")
    gates = []
    for idx, entry in enumerate(doc["gates"], start=1):
        if not isinstance(entry, dict):
            raise ValueError(f"gate {idx} must be an object")
        if entry.keys() != _GATE_FIELDS:
            raise ValueError(
                f"gate {idx} must have exactly the fields 'kind' and 'q'"
            )
        q = entry["q"]
        if not isinstance(q, list) or not _INT_ONLY.issuperset(map(type, q)):
            raise ValueError(f"gate {idx} field 'q' must be a list of integers")
        try:
            gates.append(Gate(entry["kind"], q))
        except ValueError as exc:
            raise ValueError(f"gate {idx}: {exc}") from None
    entries = doc.get("measurements", [])
    if not isinstance(entries, list):
        raise ValueError("'measurements' must be a list")
    measurements = []
    for idx, entry in enumerate(entries, start=1):
        if not (
            isinstance(entry, dict) and entry.keys() == _MEASUREMENT_FIELDS
        ):
            raise ValueError(
                f"measurement {idx} must be an object with fields 'q' and 'bit'"
            )
        if not (_is_int(entry["q"]) and _is_int(entry["bit"])):
            raise ValueError(
                f"measurement {idx} fields 'q' and 'bit' must be integers"
            )
        measurements.append((entry["q"], entry["bit"]))
    for note in doc["notes"]:
        if not isinstance(note, str):
            raise ValueError("'notes' entries must be strings")
    try:
        return Circuit(
            n=doc["n"],
            gates=tuple(gates),
            roles=tuple(doc["roles"]),
            name=doc["name"],
            notes=tuple(doc["notes"]),
            measurements=tuple(measurements),
        )
    except ValueError as exc:
        raise ValueError(str(exc)) from None
