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

Multiplication XORs the bits and tracks the phase letter by letter: a
cyclic pair (XY, YZ, ZX) picks up i, an anticyclic pair (YX, ZY, XZ)
picks up -i, and equal letters or an identity pick up nothing.  Each kind
of pair is one bit mask, so the phase is a difference of two popcounts.
"""

from __future__ import annotations

from .gf2 import as_bits

__all__ = ["PauliString", "conjugate"]

_LETTERS = "IXZY"  # indexed by x + 2 * z
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
        self.x, self.z = as_bits((x, z))
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
        x = z = 0
        for c in s:
            code = _LETTERS.find(c)
            if code < 0:
                raise ValueError(f"bad Pauli letter {c!r} in {text!r}")
            x = x << 1 | code & 1
            z = z << 1 | code >> 1
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

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("length mismatch")
        x1, z1, x2, z2 = self.x, self.z, other.x, other.z
        lx1, ly1, lz1 = x1 & ~z1, x1 & z1, z1 & ~x1
        lx2, ly2, lz2 = x2 & ~z2, x2 & z2, z2 & ~x2
        cyclic = (lx1 & ly2) | (ly1 & lz2) | (lz1 & lx2)
        anticyclic = (ly1 & lx2) | (lz1 & ly2) | (lx1 & lz2)
        return PauliString(
            x1 ^ x2,
            z1 ^ z2,
            self.phase_exp + other.phase_exp
            + cyclic.bit_count() - anticyclic.bit_count(),
            n=self.n,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (self.n, self.x, self.z, self.phase_exp) == (
            other.n, other.x, other.z, other.phase_exp
        )

    def __hash__(self) -> int:
        return hash((self.n, self.x, self.z, self.phase_exp))

    def conjugated_by(self, gates) -> "PauliString":
        """C·P·C† for the circuit C that applies ``gates`` in order.

        Each gate has a ``kind`` and 1-based qubits ``q``, as in
        ``circuit.Gate``.  The phase is exact: C·P|s> = (C·P·C†)·C|s>
        amplitude for amplitude, with no global-phase slack.  ``conjugate``
        does the work on the operator's bits.
        """
        x, z, c = conjugate(
            self.x, self.z, self.phase_exp + (self.x & self.z).bit_count(),
            gates, self.n,
        )
        return PauliString(x, z, c - (x & z).bit_count(), n=self.n)

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the two operators commute (symplectic product = 0)."""
        return not ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return (self.x | self.z).bit_count()


def conjugate(x: int, z: int, c: int, gates, n: int) -> tuple[int, int, int]:
    """C·P·C† for P = i^c·X^x·Z^z on n qubits, as the same three ints.

    C applies ``gates`` in order; each gate has a ``kind`` and 1-based
    qubits ``q``, as in ``circuit.Gate``.  This is the Heisenberg-picture
    update of Aaronson and Gottesman's stabilizer simulation, with the
    phase kept exactly: C·P|s> = (C·P·C†)·C|s> amplitude for amplitude.
    The returned c is reduced mod 4.  With control bit a and target bit b:

    - H swaps x and z and adds 2 when both are set;
    - S adds x to c and XORs x into z;
    - X, Y and Z add 2·z, 2·(x XOR z) and 2·x;
    - CX XORs x_a into x_b and z_b into z_a;
    - CZ XORs x_a into z_b and x_b into z_a and adds 2·x_a·x_b;
    - CY is S† on b, then CX, then S on b.
    """
    for gate in gates:
        kind, q = gate.kind, gate.q
        a = 1 << n - q[0]
        if kind == "H":
            if x & a and z & a:
                c += 2
            elif x & a or z & a:
                x ^= a
                z ^= a
        elif kind == "S":
            if x & a:
                c += 1
                z ^= a
        elif kind == "X":
            c += 2 * bool(z & a)
        elif kind == "Y":
            c += 2 * (bool(x & a) ^ bool(z & a))
        elif kind == "Z":
            c += 2 * bool(x & a)
        else:
            b = 1 << n - q[1]
            if kind == "CZ":
                if x & a and x & b:
                    c += 2
                z ^= (b if x & a else 0) ^ (a if x & b else 0)
                continue
            if kind == "CY" and x & b:
                c -= 1
                z ^= b
            if x & a:
                x ^= b
            if z & b:
                z ^= a
            if kind == "CY" and x & b:
                c += 1
                z ^= b
    return x, z, c & 3
