"""Syndrome tables: lookup, rendering, decoding, collision detection."""

import json

import pytest

from stabsynth.pauli import PauliString
from stabsynth.syndrome import (
    SyndromeTable,
    build_syndrome_table,
    format_table,
    syndrome_of,
)


def test_syndrome_decimal_is_most_significant_bit_first(eight_sf):
    # Generator 1 is the most significant bit, so the int is the decimal.
    assert syndrome_of(PauliString.parse("ZIIIIIII"), eight_sf) == 0b10000 == 16
    assert syndrome_of(PauliString.parse("XIIIIIII"), eight_sf) == 0b00001 == 1
    assert syndrome_of(PauliString.parse("IIIIIIYI"), eight_sf) == 0b11011 == 27


def test_entry_order_and_identity_row(eight_sf):
    table = build_syndrome_table(eight_sf)
    assert str(table.entries[0][0]) == "XIIIIIII"
    assert str(table.entries[1][0]) == "ZIIIIIII"
    assert str(table.entries[2][0]) == "YIIIIIII"
    last_error, last_bits = table.entries[-1]
    assert last_error.weight == 0
    assert last_bits == 0


def test_decode_inverts_syndrome_of(eight_sf):
    table = build_syndrome_table(eight_sf)
    for error, bits in table.entries:
        assert table.decode(bits) == error
    assert table.decode(syndrome_of(PauliString.parse("IIXIIIII"), eight_sf)) \
        == PauliString.parse("IIXIIIII")


def test_decode_rejects_wrong_width(eight_sf):
    table = build_syndrome_table(eight_sf)
    with pytest.raises(ValueError, match="5 bits"):
        table.decode(1 << 5)
    with pytest.raises(ValueError, match="5 bits"):
        table.decode(-1)


def test_unknown_syndrome_decodes_to_none(steane_sf):
    table = build_syndrome_table(steane_sf)
    used = {bits for _, bits in table.entries}
    missing = next(v for v in range(64) if v not in used)
    assert table.decode(missing) is None


def test_collision_detection():
    # Feeding two errors with the same syndrome must be refused loudly.
    import stabsynth.library as library

    sf = library.load_code("eight_qubit").standard_form()
    x1 = PauliString.parse("XIIIIIII")
    bits = syndrome_of(x1, sf)
    with pytest.raises(ValueError, match="syndrome collision"):
        SyndromeTable(sf, [(x1, bits), (PauliString.parse("ZIIIIIII"), bits)])


def test_steane_table_is_complete_and_collision_free(steane_sf):
    table = build_syndrome_table(steane_sf)
    assert len(table.entries) == 22
    syndromes = {bits for _, bits in table.entries}
    assert len(syndromes) == 22


def test_table_rendering(eight_sf):
    table = build_syndrome_table(eight_sf)
    text = format_table(table, "table")
    lines = text.splitlines()
    assert len(lines) == 26
    assert lines[0].split() == [
        "Error", "bit1", "bit2", "bit3", "bit4", "bit5", "Decimal",
    ]
    assert lines[1].split() == ["X", "I", "I", "I", "I", "I", "I", "I",
                                "0", "0", "0", "0", "1", "1"]

    rows = json.loads(format_table(table, "json"))
    assert len(rows) == 25
    assert rows[0] == {"error": "XIIIIIII", "syndrome": "00001", "decimal": 1}
    assert rows[-1]["decimal"] == 0

    with pytest.raises(ValueError, match="unknown format"):
        format_table(table, "csv")


def test_syndrome_flags_anticommuting_generators(eight_sf):
    # Bit i is set exactly when the error anticommutes with generator i.
    error = PauliString.parse("IIIIXIII")
    bits = syndrome_of(error, eight_sf)
    expected = [0 if error.commutes_with(g) else 1 for g in eight_sf.generators]
    assert [bits >> (eight_sf.m - 1 - i) & 1 for i in range(eight_sf.m)] == expected
