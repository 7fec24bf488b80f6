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


class _Record:
    """A value class built from ``_fields``, its ``__init__`` arguments.

    Records compare equal when class and fields do, repr without the
    ``_hidden`` fields and pickle through ``__init__``.  ``_Frozen`` ones
    also hash and refuse assignment, so their ``__init__`` uses ``_set``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()


class _Frozen(_Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


# Every Gate ever built, by (kind, q); at most 8·n² of them on qubits 1..n.
_GATES: dict[tuple[str, tuple[int, ...]], Gate] = {}


class Gate(_Frozen):
    """A single gate: ``kind`` plus 1-based qubit indices.

    Two-qubit gates store (control, target); for CZ the two play symmetric
    roles but the stored order is preserved for round-tripping.
    ``support`` has bit q set for each qubit q.

    Gates are interned: constructing, copying or unpickling a gate returns
    the one instance with its kind and qubits.  Equality and hashing are
    therefore by identity, which is equality by value.
    """

    __slots__ = ("kind", "q", "support")
    _fields = ("kind", "q")
    __eq__, __hash__ = object.__eq__, object.__hash__

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
            gate._set(kind, q)
            object.__setattr__(gate, "support", sum(1 << i for i in q))
            _GATES[key] = gate
        return gate

    @property
    def control(self) -> int:
        return self.q[0]

    @property
    def target(self) -> int:
        return self.q[1]

    def __str__(self) -> str:
        return f"{self.kind}({','.join(str(i) for i in self.q)})"


class Circuit(_Frozen):
    """Ordered gate list over n qubits with per-qubit roles and metadata."""

    __slots__ = _fields = ("n", "gates", "roles", "name", "notes", "measurements")

    def __init__(self, n: int, gates: tuple[Gate, ...], roles: tuple[str, ...],
                 name: str = "", notes: tuple[str, ...] = (),
                 measurements: tuple[tuple[int, int], ...] = ()):
        self._set(n, tuple(gates), tuple(roles), name, tuple(notes),
                  tuple((int(a), int(b)) for a, b in measurements))
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
        return Circuit(self.n, gates, self.roles, self.name, notes,
                       self.measurements)

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
        return Circuit(doc["n"], gates, doc["roles"], doc["name"], doc["notes"],
                       measurements)
    except ValueError as exc:
        raise ValueError(str(exc)) from None
