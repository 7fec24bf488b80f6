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

Row operations are tracked so each standard-form row is also available as a
product of the original generators; the phase of that product is recorded
(some codes regenerate a standard row only up to a sign).  The operational
generators returned here are the +1-signed standard letter strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf2 import as_bits, rank
from .pauli import PauliString

__all__ = ["CheckMatrix", "StandardForm", "standard_form", "css_check_matrix"]


class CheckMatrix:
    """Validated stabilizer generators in symplectic (x|z) form.

    Accepts PauliString instances or parseable strings.  Generators may
    carry explicit +/- signs (phase_exp 0 or 2); phases +/-i are rejected
    because such an operator cannot square to the identity.  Generators
    must pairwise commute and be linearly independent.
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
        got = rank(as_bits(p.symplectic_row() for p in paulis))
        if got < len(paulis):
            raise ValueError(
                f"generators are linearly dependent: rank {got} < {len(paulis)}"
            )
        self.paulis = paulis
        self.x = np.array([p.x for p in paulis], dtype=np.uint8)
        self.z = np.array([p.z for p in paulis], dtype=np.uint8)
        self.phases = np.array([p.phase_exp for p in paulis], dtype=np.int64)

    @property
    def n(self) -> int:
        return int(self.x.shape[1])

    @property
    def m(self) -> int:
        return int(self.x.shape[0])

    @property
    def k(self) -> int:
        return self.n - self.m

    def matrix(self) -> np.ndarray:
        """The m x 2n matrix [x | z]."""
        return np.concatenate([self.x, self.z], axis=1)

    def __repr__(self) -> str:
        return f"CheckMatrix({[str(p) for p in self.paulis]!r})"


def css_check_matrix(h_x, h_z) -> CheckMatrix:
    """Check matrix of a CSS code from two parity-check matrices.

    X-type generators come from the rows of ``h_x``, Z-type generators from
    the rows of ``h_z``; the orthogonality condition h_z @ h_x^T = 0 is what
    makes them commute.
    """
    h_x = np.asarray(h_x, dtype=np.uint8) & 1
    h_z = np.asarray(h_z, dtype=np.uint8) & 1
    if h_x.shape[1] != h_z.shape[1]:
        raise ValueError("h_x and h_z act on different qubit counts")
    prod = (h_z.astype(np.uint32) @ h_x.T.astype(np.uint32)) % 2
    if prod.any():
        i, j = np.argwhere(prod)[0]
        raise ValueError(
            f"h_z row {i + 1} is not orthogonal to h_x row {j + 1}"
        )
    n = h_x.shape[1]
    zeros = np.zeros(n, dtype=np.uint8)
    gens = [PauliString(row, zeros) for row in h_x]
    gens += [PauliString(zeros, row) for row in h_z]
    return CheckMatrix(gens)


@dataclass
class StandardForm:
    """Result of reducing a check matrix to standard form.

    ``matrix`` is the reduced m x 2n check matrix in the permuted qubit
    order; ``qubit_perm[pos]`` gives the original (0-based) qubit now at
    position ``pos``.  ``row_recipe[i]`` marks which original generators
    multiply to standard row i, and ``regen_phases[i]`` is the phase
    exponent of that product relative to the standard row's letter string
    (0 means the product is exactly the letter string, 2 means minus it).
    ``generators`` are the operational +1-signed standard generators.
    """

    base: CheckMatrix
    matrix: np.ndarray
    r: int
    qubit_perm: tuple[int, ...]
    row_recipe: np.ndarray
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
    def x(self) -> np.ndarray:
        return self.matrix[:, : self.n]

    @property
    def z(self) -> np.ndarray:
        return self.matrix[:, self.n :]

    def block(self, name: str) -> np.ndarray:
        """One of the standard-form blocks A1, A2, B, C1, C2, D, E."""
        n, m, r = self.n, self.m, self.r
        s, k = m - r, n - m
        x, z = self.x, self.z
        blocks = {
            "A1": x[:r, r : r + s],
            "A2": x[:r, r + s :],
            "B": z[:r, :r],
            "C1": z[:r, r : r + s],
            "C2": z[:r, r + s :],
            "D": z[r:, :r],
            "E": z[r:, r + s :],
        }
        try:
            return blocks[name]
        except KeyError:
            raise KeyError(f"unknown block {name!r}") from None


def _letters_from_row(x_row: np.ndarray, z_row: np.ndarray) -> PauliString:
    return PauliString(x_row.copy(), z_row.copy())


def standard_form(check: CheckMatrix) -> StandardForm:
    """Reduce a check matrix to standard form.

    Deterministic: pivots are chosen by scanning rows top-down, and when a
    column swap is needed the nearest eligible column to the right is used.
    Applying this to a matrix already in standard form is a no-op (identity
    permutation, identity recipe).
    """
    n, m = check.n, check.m
    mat = check.matrix().astype(np.uint8)
    recipe = np.eye(m, dtype=np.uint8)
    perm = list(range(n))

    def swap_qubits(a: int, b: int) -> None:
        mat[:, [a, b]] = mat[:, [b, a]]
        mat[:, [n + a, n + b]] = mat[:, [n + b, n + a]]
        perm[a], perm[b] = perm[b], perm[a]

    def eliminate(col: int, pivot_row: int, rows) -> None:
        for q in rows:
            if q != pivot_row and mat[q, col]:
                mat[q] ^= mat[pivot_row]
                recipe[q] ^= recipe[pivot_row]

    # phase 1: bring the x part to [I A1 A2]
    r = 0
    for _ in range(m):
        hit = np.nonzero(mat[r:, r])[0]
        if hit.size == 0:
            found = False
            for c in range(r + 1, n):
                if mat[r:, c].any():
                    swap_qubits(r, c)
                    found = True
                    break
            if not found:
                break
            hit = np.nonzero(mat[r:, r])[0]
        p = r + int(hit[0])
        if p != r:
            mat[[r, p]] = mat[[p, r]]
            recipe[[r, p]] = recipe[[p, r]]
        eliminate(r, r, range(m))
        r += 1
        if r >= m:
            break

    # after phase 1 the remaining rows are pure-Z; bring their z part to
    # [D I E] by eliminating within the band only
    for i in range(m - r):
        row = r + i
        col = n + r + i
        hit = np.nonzero(mat[row:, col])[0]
        if hit.size == 0:
            found = False
            for c in range(r + i + 1, n):
                if mat[row:, n + c].any():
                    swap_qubits(r + i, c)
                    found = True
                    break
            if not found:  # cannot happen for a valid full-rank input
                raise ValueError("check matrix is rank deficient in its z part")
            hit = np.nonzero(mat[row:, col])[0]
        p = row + int(hit[0])
        if p != row:
            mat[[row, p]] = mat[[p, row]]
            recipe[[row, p]] = recipe[[p, row]]
        eliminate(col, row, range(r, m))

    # phases of the recipe products relative to the standard letter strings
    regen: list[int] = []
    for i in range(m):
        members = np.nonzero(recipe[i])[0]
        prod = check.paulis[members[0]]
        for j in members[1:]:
            prod = prod * check.paulis[j]
        # permuting qubit labels changes neither letters nor phase
        px = prod.x[perm]
        pz = prod.z[perm]
        if not (
            np.array_equal(px, mat[i, :n]) and np.array_equal(pz, mat[i, n:])
        ):
            raise AssertionError("row recipe does not reproduce standard row")
        regen.append(prod.phase_exp)

    generators = [_letters_from_row(mat[i, :n], mat[i, n:]) for i in range(m)]

    # canonical logical operators from the standard-form blocks
    s, k = m - r, n - m
    x_part = mat[:, :n]
    z_part = mat[:, n:]
    a2 = x_part[:r, r + s :]
    c1 = z_part[:r, r : r + s]
    c2 = z_part[:r, r + s :]
    e = z_part[r:, r + s :]
    logical_x: list[PauliString] = []
    logical_z: list[PauliString] = []
    v1 = (e.T.astype(np.uint32) @ c1.T.astype(np.uint32) + c2.T.astype(np.uint32)) % 2
    v1 = v1.astype(np.uint8)
    for i in range(k):
        lx = np.zeros(n, dtype=np.uint8)
        lz = np.zeros(n, dtype=np.uint8)
        lx[r : r + s] = e.T[i]
        lx[r + s + i] = 1
        lz[:r] = v1[i]
        logical_x.append(PauliString(lx, lz))
        zx = np.zeros(n, dtype=np.uint8)
        zz = np.zeros(n, dtype=np.uint8)
        zz[:r] = a2.T[i]
        zz[r + s + i] = 1
        logical_z.append(PauliString(zx, zz))

    return StandardForm(
        base=check,
        matrix=mat,
        r=r,
        qubit_perm=tuple(perm),
        row_recipe=recipe,
        regen_phases=tuple(regen),
        generators=generators,
        logical_x=logical_x,
        logical_z=logical_z,
    )
