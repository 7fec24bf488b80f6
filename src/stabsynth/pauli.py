"""Phase-tracked n-qubit Pauli strings as int bit-rows.

A Pauli operator on ``n`` qubits is stored as two ints ``x`` and ``z``
plus an integer ``phase_exp`` (mod 4).  Both ints use the ``gf2`` row
layout: qubit 1 is the most significant bit, so qubit ``q`` (0-based
position ``q - 1``) is bit ``n - q``.  A qubit carries the letter

    ===== ===== ======
    x bit z bit letter
    ===== ===== ======
    0     0     I
    1     0     X
    0     1     Z
    1     1     Y
    ===== ===== ======

and the full operator is ``i**phase_exp`` times the tensor product of those
letters, with Y the usual Hermitian Pauli (Y = iXZ).  In other words the
phase exponent is *relative to the letter string*, so parsing "XZ" or
"IYXZXZIY" yields phase_exp = 0 and formatting is the exact inverse of
parsing.  The bits still give the X/Z decomposition of each letter, which
is what every linear-algebra consumer (check matrices, syndromes, standard
form) uses: the check-matrix row of a string is ``x << n | z``.

The algebra works on a second form, three ints (x, z, c) meaning
i^c·X^x·Z^z, so c = phase_exp + |x & z| (Y = iXZ).  ``multiply`` and
``stabilizer.conjugate_rows`` take and return it; ``PauliString.xzc`` and
``from_xzc`` convert.
"""

from __future__ import annotations

from .gf2 import as_bits

__all__ = ["PauliString", "multiply"]

_LETTERS = "IXZY"  # indexed by x + 2 * z
# str.translate tables: delete every letter, or spell its x or z bit
_NOT_LETTERS = str.maketrans("", "", _LETTERS)
_X_BITS = str.maketrans(_LETTERS, "0101")
_Z_BITS = str.maketrans(_LETTERS, "0011")
_PREFIXES = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}
_PHASE_STR = {0: "", 1: "i", 2: "-", 3: "-i"}


class PauliString:
    """Immutable-by-convention Pauli operator with tracked phase.

    ``x`` and ``z`` are ints or bit sequences (one 0/1 value per qubit);
    with ints, ``n`` must be given, since leading identities have no bits.
    """

    __slots__ = ("n", "x", "z", "phase_exp")

    def __init__(self, x, z, phase_exp: int = 0, n: int | None = None):
        if n is None:
            if isinstance(x, int) or isinstance(z, int) or len(x) != len(z):
                raise ValueError("x and z must be equal-length bit sequences")
            n = len(x)
        self.n = n
        if not (isinstance(x, int) and isinstance(z, int)):
            x, z = as_bits((x, z))
        self.x, self.z = x, z
        if (self.x | self.z) >> n:
            raise ValueError(f"x and z must fit in {n} bits")
        self.phase_exp = int(phase_exp) % 4

    # ------------------------------------------------------------------
    # construction / presentation
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(0, 0, n=n)

    @classmethod
    def parse(cls, text: str) -> "PauliString":
        """Parse a string like "XZIIYYXZ", "-IX", "iZZ", "-iY".

        An optional sign/phase prefix (+, -, i, +i, -i) is followed by one
        letter per qubit.
        """
        s = text.strip()
        prefix = ""
        while s and s[0] in "+-i" and (s[0] != "i" or not prefix.endswith("i")):
            prefix += s[0]
            s = s[1:]
            if prefix.endswith("i"):
                break
        if prefix not in _PREFIXES:
            raise ValueError(f"bad phase prefix {prefix!r} in {text!r}")
        if not s:
            raise ValueError(f"no Pauli letters in {text!r}")
        if s.translate(_NOT_LETTERS):
            bad = next(c for c in s if c not in _LETTERS)
            raise ValueError(f"bad Pauli letter {bad!r} in {text!r}")
        x, z = int(s.translate(_X_BITS), 2), int(s.translate(_Z_BITS), 2)
        return cls(x, z, _PREFIXES[prefix], n=len(s))

    def letter(self, q: int) -> str:
        """The letter at 0-based position ``q``, as in ``str(self)``."""
        shift = self.n - 1 - q
        return _LETTERS[(self.x >> shift & 1) | (self.z >> shift & 1) << 1]

    def __str__(self) -> str:
        return _PHASE_STR[self.phase_exp] + "".join(
            self.letter(q) for q in range(self.n)
        )

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"

    def xzc(self) -> tuple[int, int, int]:
        """This operator as (x, z, c), meaning i^c·X^x·Z^z."""
        return self.x, self.z, self.phase_exp + (self.x & self.z).bit_count()

    @classmethod
    def from_xzc(cls, x: int, z: int, c: int, n: int) -> "PauliString":
        """The operator i^c·X^x·Z^z on n qubits."""
        return cls(x, z, c - (x & z).bit_count(), n=n)

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("length mismatch")
        return self.from_xzc(*multiply(self.xzc(), other.xzc()), self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (self.n, self.x, self.z, self.phase_exp) == (
            other.n, other.x, other.z, other.phase_exp
        )

    def __hash__(self) -> int:
        return hash((self.n, self.x, self.z, self.phase_exp))

    def conjugated_by(self, gates) -> "PauliString":
        """C·P·C† for the circuit C that applies ``gates`` in order, with
        the exact phase of ``stabilizer.conjugate_rows``, which does the
        work (imported here, since ``stabilizer`` builds on this module)."""
        from .stabilizer import conjugate_rows

        (row,) = conjugate_rows([self.xzc()], gates, self.n)
        return self.from_xzc(*row, self.n)

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the two operators commute (symplectic product = 0)."""
        return not ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return (self.x | self.z).bit_count()


def multiply(p, q) -> tuple[int, int, int]:
    """The product p·q of two (x, z, c) Paulis, c reduced mod 4.

    Moving q's X^x past p's Z^z gives a sign per qubit where both are set.
    """
    c = p[2] + q[2] + 2 * (p[1] & q[0]).bit_count()
    return p[0] ^ q[0], p[1] ^ q[1], c & 3
