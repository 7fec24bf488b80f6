"""Check matrices and the standard form of a stabilizer code.

A stabilizer code on n qubits with k logical qubits is given by m = n - k
independent, pairwise-commuting Pauli generators.  Stacking their (x|z)
rows gives the m x 2n check matrix.  Gaussian elimination over GF(2) — row
operations (multiplying generators) plus qubit relabelling (column swaps
applied to the x and z halves together) — brings every such matrix to the
standard form

        x part              z part
    [ I_r  A1  A2 ]    [ B   C1  C2 ]     r rows
    [ 0    0   0  ]    [ D   I_s  E ]     s = m - r rows

with column sections of widths r, s and k.  The blocks determine both the
encoding circuit and a canonical choice of logical operators:

    logical X_i : x = [ 0  E^T  I_k ],   z = [ E^T C1^T + C2^T  0  0 ]
    logical Z_i : x = 0,                 z = [ A2^T  0  I_k ]

Every row is a ``gf2`` int row: a check-matrix row is ``x << n | z`` with
qubit 1 as the most significant bit of each half, and a recipe row has
generator 1 as its most significant bit.  Row operations are tracked so
each standard-form row is also available as a product of the original
generators; the phase of that product is recorded (some codes regenerate a
standard row only up to a sign).  The operational generators returned here
are the +1-signed standard letter strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2 import as_bits, rank
from .pauli import PauliString

__all__ = ["CheckMatrix", "StandardForm", "standard_form", "css_check_matrix"]


class CheckMatrix:
    """Validated stabilizer generators in symplectic (x|z) form.

    Accepts PauliString instances or parseable strings.  Generators may
    carry explicit +/- signs (phase_exp 0 or 2); phases +/-i are rejected
    because such an operator cannot square to the identity.  Generators
    must pairwise commute and be linearly independent.  ``x``, ``z`` and
    ``phases`` hold one entry per generator, ``x`` and ``z`` as int rows.
    """

    def __init__(self, generators):
        paulis: list[PauliString] = []
        for g in generators:
            paulis.append(g if isinstance(g, PauliString) else PauliString.parse(g))
        if not paulis:
            raise ValueError("no generators given")
        n = paulis[0].n
        for i, p in enumerate(paulis, start=1):
            if p.n != n:
                raise ValueError(
                    f"generator {i} acts on {p.n} qubits, expected {n}"
                )
            if p.phase_exp % 2 != 0:
                raise ValueError(
                    f"generator {i} has phase +/-i; "
                    "stabilizer generators must square to the identity"
                )
        for i in range(len(paulis)):
            for j in range(i + 1, len(paulis)):
                if not paulis[i].commutes_with(paulis[j]):
                    raise ValueError(
                        f"generators {i + 1} and {j + 1} anticommute"
                    )
        got = rank(p.x << n | p.z for p in paulis)
        if got < len(paulis):
            raise ValueError(
                f"generators are linearly dependent: rank {got} < {len(paulis)}"
            )
        self.paulis = paulis
        self.n = n
        self.x = tuple(p.x for p in paulis)
        self.z = tuple(p.z for p in paulis)
        self.phases = tuple(p.phase_exp for p in paulis)

    @property
    def m(self) -> int:
        return len(self.paulis)

    @property
    def k(self) -> int:
        return self.n - self.m

    def __repr__(self) -> str:
        return f"CheckMatrix({[str(p) for p in self.paulis]!r})"


def css_check_matrix(h_x, h_z) -> CheckMatrix:
    """Check matrix of a CSS code from two parity-check matrices.

    X-type generators come from the rows of ``h_x``, Z-type generators from
    the rows of ``h_z`` (each row a sequence of 0/1 values, one per qubit);
    the orthogonality condition h_z @ h_x^T = 0 is what makes them commute.
    """
    widths = {len(row) for row in (*h_x, *h_z)}
    if len(widths) != 1:
        raise ValueError("h_x and h_z act on different qubit counts")
    (n,) = widths
    h_x, h_z = as_bits(h_x), as_bits(h_z)
    for i, z_row in enumerate(h_z, start=1):
        for j, x_row in enumerate(h_x, start=1):
            if (z_row & x_row).bit_count() & 1:
                raise ValueError(f"h_z row {i} is not orthogonal to h_x row {j}")
    gens = [PauliString(row, 0, n=n) for row in h_x]
    gens += [PauliString(0, row, n=n) for row in h_z]
    return CheckMatrix(gens)


@dataclass
class StandardForm:
    """Result of reducing a check matrix to standard form.

    ``generators`` are the operational +1-signed standard generators, in
    the permuted qubit order; ``qubit_perm[pos]`` gives the original
    (0-based) qubit now at position ``pos``.  ``row_recipe[i]`` is an
    ``m``-bit int marking which original generators multiply to standard
    row i (generator 1 as the most significant bit), and
    ``regen_phases[i]`` is the phase exponent of that product relative to
    the standard row's letter string (0 means the product is exactly the
    letter string, 2 means minus it).
    """

    base: CheckMatrix
    r: int
    qubit_perm: tuple[int, ...]
    row_recipe: tuple[int, ...]
    regen_phases: tuple[int, ...]
    generators: list[PauliString] = field(repr=False)
    logical_x: list[PauliString] = field(repr=False)
    logical_z: list[PauliString] = field(repr=False)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def x(self) -> tuple[int, ...]:
        """The x half of the reduced check matrix, as n-bit int rows."""
        return tuple(g.x for g in self.generators)

    @property
    def z(self) -> tuple[int, ...]:
        """The z half of the reduced check matrix, as n-bit int rows."""
        return tuple(g.z for g in self.generators)

    def block(self, name: str) -> tuple[int, ...]:
        """One of the standard-form blocks A1, A2, B, C1, C2, D, E.

        Int rows as wide as the block, its first column the most
        significant bit.
        """
        n, m, r = self.n, self.m, self.r
        s = m - r
        blocks = {  # half, rows, columns
            "A1": (self.x, (0, r), (r, r + s)),
            "A2": (self.x, (0, r), (r + s, n)),
            "B": (self.z, (0, r), (0, r)),
            "C1": (self.z, (0, r), (r, r + s)),
            "C2": (self.z, (0, r), (r + s, n)),
            "D": (self.z, (r, m), (0, r)),
            "E": (self.z, (r, m), (r + s, n)),
        }
        try:
            half, (r0, r1), (c0, c1) = blocks[name]
        except KeyError:
            raise KeyError(f"unknown block {name!r}") from None
        mask = (1 << (c1 - c0)) - 1
        return tuple(row >> (n - c1) & mask for row in half[r0:r1])


def _permuted(bits: int, perm, width: int) -> int:
    """``bits`` with position ``pos`` taken from position ``perm[pos]``."""
    out = 0
    for q in perm:
        out = out << 1 | (bits >> (width - 1 - q) & 1)
    return out


def standard_form(check: CheckMatrix) -> StandardForm:
    """Reduce a check matrix to standard form.

    Deterministic: pivots are chosen by scanning rows top-down, and when a
    column swap is needed the nearest eligible column to the right is used.
    Applying this to a matrix already in standard form is a no-op (identity
    permutation, identity recipe).
    """
    n, m = check.n, check.m
    rows = [x << n | z for x, z in zip(check.x, check.z)]
    recipe = [1 << (m - 1 - i) for i in range(m)]
    perm = list(range(n))

    def bit(c: int) -> int:
        """Column ``c`` of an (x|z) row: x columns 0..n-1, then z columns."""
        return 1 << (2 * n - 1 - c)

    def pivot(top: int, c: int) -> int | None:
        """The first row from ``top`` down with column ``c`` set."""
        return next((q for q in range(top, m) if rows[q] & bit(c)), None)

    def swap_qubits(a: int, b: int) -> None:
        for ba, bb in ((bit(a), bit(b)), (bit(n + a), bit(n + b))):
            for q, row in enumerate(rows):
                if bool(row & ba) != bool(row & bb):
                    rows[q] = row ^ ba ^ bb
        perm[a], perm[b] = perm[b], perm[a]

    def settle(top: int, c: int, first: int) -> None:
        """Move column ``c``'s pivot to row ``top`` and clear the column
        in every other row from ``first`` down."""
        p = pivot(top, c)
        rows[top], rows[p] = rows[p], rows[top]
        recipe[top], recipe[p] = recipe[p], recipe[top]
        for q in range(first, m):
            if q != top and rows[q] & bit(c):
                rows[q] ^= rows[top]
                recipe[q] ^= recipe[top]

    # phase 1: bring the x part to [I A1 A2]
    r = 0
    while r < m:
        if pivot(r, r) is None:
            c = next((c for c in range(r + 1, n) if pivot(r, c) is not None), None)
            if c is None:
                break
            swap_qubits(r, c)
        settle(r, r, 0)
        r += 1

    # after phase 1 the remaining rows are pure-Z; bring their z part to
    # [D I E] by eliminating within the band only
    for row in range(r, m):
        if pivot(row, n + row) is None:
            c = next(
                (c for c in range(row + 1, n) if pivot(row, n + c) is not None),
                None,
            )
            if c is None:  # cannot happen for a valid full-rank input
                raise ValueError("check matrix is rank deficient in its z part")
            swap_qubits(row, c)
        settle(row, n + row, r)

    # phases of the recipe products relative to the standard letter strings
    row_perm = perm + [n + q for q in perm]
    regen: list[int] = []
    for i in range(m):
        members = [j for j in range(m) if recipe[i] >> (m - 1 - j) & 1]
        prod = check.paulis[members[0]]
        for j in members[1:]:
            prod = prod * check.paulis[j]
        # permuting qubit labels changes neither letters nor phase
        if _permuted(prod.x << n | prod.z, row_perm, 2 * n) != rows[i]:
            raise AssertionError("row recipe does not reproduce standard row")
        regen.append(prod.phase_exp)

    low = (1 << n) - 1
    xs = [row >> n for row in rows]
    zs = [row & low for row in rows]
    generators = [PauliString(x, z, n=n) for x, z in zip(xs, zs)]

    # canonical logical operators from the standard-form blocks: position
    # r + s + i is bit k - 1 - i
    s, k = m - r, n - m
    logical_x: list[PauliString] = []
    logical_z: list[PauliString] = []
    for i in range(k):
        unit = 1 << (k - 1 - i)
        # x = [0 E^T I_k]: column i of E, then the unit
        lx = unit
        for j in range(s):
            if zs[r + j] & unit:
                lx |= 1 << (n - 1 - r - j)
        # z = [E^T C1^T + C2^T 0 0]: bit j is the parity of row j's z part
        # over lx, which is C1_j E^T_i + C2_ji
        lz = 0
        for j in range(r):
            lz = lz << 1 | ((zs[j] & lx).bit_count() & 1)
        logical_x.append(PauliString(lx, lz << (n - r), n=n))
        # z = [A2^T 0 I_k]: column i of A2, then the unit
        zz = unit
        for j in range(r):
            if xs[j] & unit:
                zz |= 1 << (n - 1 - j)
        logical_z.append(PauliString(0, zz, n=n))

    return StandardForm(
        base=check,
        r=r,
        qubit_perm=tuple(perm),
        row_recipe=tuple(recipe),
        regen_phases=tuple(regen),
        generators=generators,
        logical_x=logical_x,
        logical_z=logical_z,
    )
