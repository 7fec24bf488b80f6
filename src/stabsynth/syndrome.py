"""Syndrome computation and single-error decoding.

Syndrome bit i records whether an error anticommutes with standard-form
generator i (0 = commutes, 1 = anticommutes).  A syndrome is one int of
width m with bit 1 as its most significant bit, so the int is also the
decimal value the tables print.  The production decoder is algebraic —
pure symplectic products — and the simulator's circuit-level measurement
is cross-checked against it in the test suite.
"""

from __future__ import annotations

import json

from .pauli import PauliString
from .symplectic import StandardForm

__all__ = ["syndrome_of", "SyndromeTable", "build_syndrome_table", "format_table"]


def syndrome_of(e: PauliString, sf: StandardForm) -> int:
    """Anticommutation bits of the error against each standard generator."""
    if e.n != sf.n:
        raise ValueError(f"error acts on {e.n} qubits, code has {sf.n}")
    bits = 0
    for g in sf.generators:
        bits = bits << 1 | (not g.commutes_with(e))
    return bits


class SyndromeTable:
    """Lookup table over all weight-<=1 Pauli errors of one code."""

    def __init__(self, sf: StandardForm, entries: list[tuple[PauliString, int]]):
        self.sf = sf
        self.entries = entries
        self._by_syndrome: dict[int, PauliString] = {}
        for error, bits in entries:
            if bits in self._by_syndrome:
                other = self._by_syndrome[bits]
                raise ValueError(
                    f"syndrome collision: {other} and {error} both give "
                    f"{bits:0{sf.m}b} — "
                    "the code does not correct all single-qubit errors"
                )
            self._by_syndrome[bits] = error

    def decode(self, syndrome: int) -> PauliString | None:
        """The unique matching correction, or None when uncorrectable."""
        if not 0 <= syndrome < 1 << self.sf.m:
            raise ValueError(f"syndrome must have {self.sf.m} bits")
        return self._by_syndrome.get(syndrome)


def _single_qubit_errors(n: int) -> list[PauliString]:
    """All X/Z/Y errors per qubit (in that order), identity last."""
    errors = []
    for q in range(n):
        bit = 1 << (n - 1 - q)
        for x, z in ((bit, 0), (0, bit), (bit, bit)):
            errors.append(PauliString(x, z, n=n))
    errors.append(PauliString.identity(n))
    return errors


def build_syndrome_table(sf: StandardForm) -> SyndromeTable:
    """Table over all 3n+1 weight-<=1 errors; collisions are an error."""
    entries = [(e, syndrome_of(e, sf)) for e in _single_qubit_errors(sf.n)]
    return SyndromeTable(sf, entries)


def format_table(table: SyndromeTable, fmt: str = "table") -> str:
    """Render the table as aligned text or JSON.

    Text columns: the error's letters (one per qubit), one column per
    syndrome bit, and the decimal value.
    """
    m = table.sf.m
    if fmt == "json":
        rows = [
            {"error": str(error), "syndrome": f"{bits:0{m}b}", "decimal": bits}
            for error, bits in table.entries
        ]
        return json.dumps(rows, indent=2) + "\n"
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    header = ["Error"] + [f"bit{i}" for i in range(1, m + 1)] + ["Decimal"]
    rows = [header]
    for error, bits in table.entries:
        rows.append(
            [" ".join(str(error))] + list(f"{bits:0{m}b}") + [str(bits)]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"
