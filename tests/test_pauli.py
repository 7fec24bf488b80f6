"""Pauli-string algebra: parsing, printing, products, commutation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabsynth.pauli import PauliString


def test_parse_round_trips_every_phase_prefix():
    for text in ("XZIY", "iXZIY", "-XZIY", "-iXZIY"):
        assert str(PauliString.parse(text)) == text
    assert str(PauliString.parse("+XZ")) == "XZ"
    assert str(PauliString.parse("+iXZ")) == "iXZ"


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError, match="bad Pauli letter 'Q'"):
        PauliString.parse("XQZ")
    with pytest.raises(ValueError, match="no Pauli letters"):
        PauliString.parse("-")
    with pytest.raises(ValueError, match="bad phase prefix"):
        PauliString.parse("--X")


def test_identity_and_weight():
    one = PauliString.identity(5)
    assert str(one) == "IIIII"
    assert one.weight == 0
    assert PauliString.parse("XIYIZ").weight == 3


def test_known_products():
    x, z, y = (PauliString.parse(s) for s in "XZY")
    assert x * z == PauliString.parse("-iY")
    assert z * x == PauliString.parse("iY")
    assert x * y == PauliString.parse("iZ")
    assert y * x == PauliString.parse("-iZ")
    assert z * y == PauliString.parse("-iX")
    assert y * z == PauliString.parse("iX")
    for p in (x, z, y):
        assert p * p == PauliString.identity(1)


def test_product_letters_are_bitwise_xor():
    a = PauliString.parse("XXYZI")
    b = PauliString.parse("ZIYXZ")
    prod = a * b
    assert np.array_equal(prod.x, a.x ^ b.x)
    assert np.array_equal(prod.z, a.z ^ b.z)


def test_commutation_matches_product_order():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = PauliString(
            rng.integers(0, 2, 6, dtype=np.uint8),
            rng.integers(0, 2, 6, dtype=np.uint8),
        )
        b = PauliString(
            rng.integers(0, 2, 6, dtype=np.uint8),
            rng.integers(0, 2, 6, dtype=np.uint8),
        )
        assert a.commutes_with(b) == (a * b == b * a)


def test_product_is_associative():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b, c = (
            PauliString(
                rng.integers(0, 2, 5, dtype=np.uint8),
                rng.integers(0, 2, 5, dtype=np.uint8),
                phase_exp=int(rng.integers(0, 4)),
            )
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)


def test_self_product_is_identity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = PauliString(
            rng.integers(0, 2, 7, dtype=np.uint8),
            rng.integers(0, 2, 7, dtype=np.uint8),
        )
        assert a * a == PauliString.identity(7)


def test_symplectic_row_round_trip():
    p = PauliString.parse("-iXYZI")
    row = p.x << p.n | p.z
    assert f"{row:08b}" == "11000110"
    back = PauliString(row >> p.n, row & 0b1111, phase_exp=p.phase_exp, n=p.n)
    assert back == p


def test_equality_includes_phase_and_supports_hashing():
    a = PauliString.parse("XZ")
    b = PauliString.parse("-XZ")
    assert a != b
    assert a == PauliString.parse("XZ")
    assert len({a, PauliString.parse("XZ"), b}) == 2


def test_mismatched_lengths_do_not_compare_equal():
    assert PauliString.parse("XZ") != PauliString.parse("XZI")


# ---------------------------------------------------------------------------
# the int-row product against the numpy product it replaced
#
# ``_g``, ``_G_TABLE`` and ``_reference_mul`` are the numpy letter-by-letter
# phase table and product that the int rows replaced, kept as a test-only
# reference; the product takes and returns (x, z, phase_exp) with x and z
# as uint8 bit vectors, qubit 1 first.


def _g(x1: int, z1: int, x2: int, z2: int) -> int:
    """Power of i from multiplying letter (x1,z1) by letter (x2,z2).

    Defined so that letter1 * letter2 = i**g * letter(x1^x2, z1^z2).
    """
    if x1 == 0 and z1 == 0:
        return 0
    if x1 == 1 and z1 == 1:
        return z2 - x2
    if x1 == 1:  # X
        return z2 * (2 * x2 - 1)
    # Z
    return x2 * (1 - 2 * z2)


_G_TABLE = np.zeros((2, 2, 2, 2), dtype=np.int64)
for _x1 in (0, 1):
    for _z1 in (0, 1):
        for _x2 in (0, 1):
            for _z2 in (0, 1):
                _G_TABLE[_x1, _z1, _x2, _z2] = _g(_x1, _z1, _x2, _z2)


def _reference_mul(a, b):
    (ax, az, ap), (bx, bz, bp) = a, b
    g_sum = int(
        _G_TABLE[
            ax.astype(np.intp),
            az.astype(np.intp),
            bx.astype(np.intp),
            bz.astype(np.intp),
        ].sum()
    )
    return ax ^ bx, az ^ bz, (ap + bp + g_sum) % 4


@st.composite
def _pauli_pair(draw):
    """Two phased Pauli strings on the same 1-12 qubits, as bit lists."""
    n = draw(st.integers(1, 12))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return [(draw(bits), draw(bits), draw(st.integers(0, 3))) for _ in range(2)]


@settings(max_examples=300, deadline=None)
@given(_pauli_pair())
def test_product_matches_the_numpy_reference(pair):
    a, b = (PauliString(x, z, p) for x, z, p in pair)
    ref = [(np.array(x, dtype=np.uint8), np.array(z, dtype=np.uint8), p)
           for x, z, p in pair]
    x, z, phase = _reference_mul(*ref)
    assert a * b == PauliString(x, z, phase)
    ax, az, _ = ref[0]
    bx, bz, _ = ref[1]
    symplectic = int((ax & bz).sum() + (az & bx).sum())
    assert a.commutes_with(b) == (symplectic % 2 == 0)
    assert a.weight == int((ax | az).sum())
    assert [a.letter(q) for q in range(a.n)] == list(str(a).lstrip("-i"))


def test_int_constructor_needs_a_width():
    assert PauliString(0b10, 0b01, n=2) == PauliString.parse("XZ")
    assert str(PauliString(0, 0b1, n=3)) == "IIZ"
    with pytest.raises(ValueError, match="equal-length"):
        PauliString(0b10, 0b11)
    with pytest.raises(ValueError, match="equal-length"):
        PauliString([1, 0], [1])
    with pytest.raises(ValueError, match="fit in 2 bits"):
        PauliString(0b100, 0, n=2)
