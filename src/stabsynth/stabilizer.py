"""Exact `stabsynth verify` for Clifford circuits, without statevectors.

Every gate kind is Clifford, so C|0…0> and the oracle's encoded |0_L> are
stabilizer states: each has a stabilizer group of n independent Paulis,
its support is an affine space, and every amplitude on it has the same
size and a phase that is a power of e^(iπ/4).  A Pauli here is three
ints (x, z, c) meaning i^c·X^x·Z^z, with the ``gf2`` bit layout (qubit 1
the most significant bit).  Two such Paulis multiply as

    (x1, z1, c1)·(x2, z2, c2) = (x1^x2, z1^z2, c1 + c2 + 2·|z1 & x2|),

and one applied to |j> gives i^c·(-1)^|z & j|·|j ^ x>.

- **C|0…0>** (``zero_amplitude``) is tracked as its n stabilizer rows
  C·Z_q·C† (Aaronson and Gottesman, quant-ph/0406196) plus one index of
  its support and that index's amplitude, kept exactly as e^(iπ·m/4)/√2^d.
  Every gate but H moves the index or multiplies the amplitude by a power
  of i.  An H on qubit q mixes the index with its partner index ^ q: when
  some product of rows has X part q alone, the partner is in the support
  and that product gives its amplitude from the tracked one.
- **|0_L>** is read at any index y from the standard form's X-pivot
  generators: the product of those selected by y's first r bits has some
  X part x, and the amplitude is i^c/√2^r when x = y and 0 otherwise
  (Dehaene and De Moor, PRA 68, 042318).  Index 0…0 holds 1/√2^r.
- **The decision** (``verify_counts``).  Pulled back through the circuit,
  each standard generator and logical Z either is ±Z^z, giving its sign
  on C|0…0>, or the two unsigned groups differ and no input can match.
  With equal groups, input b's output C|b> = P_b·C|0…0> (P_b the product
  of the conjugated logical X's) and oracle |b_L> = L_b·|0_L> have the same
  support exactly when P_b.x ^ L_b.x lies in the X span, which is linear
  in b.  They then agree up to ω_b·Z_F_b, F_b on the r pivot columns, set
  by the signs of the X-pivot generators (linear in b), and ω_b read at
  index L_b.x, where |b_L> holds 1/√2^r (quadratic in b, one product per
  input).  Every nonzero amplitude of an n ≤ 26 qubit stabilizer state is
  at least 2^-13, so the 1e-10 comparisons that define a match are exact
  tests on ω_b: input b agrees up to a sign per index when ω_b is real,
  and matches when ω_b = 1 and F_b = 0.

The cost is about n²·gates: 2n + k Paulis conjugated through the gates,
and an elimination of the n rows at each H.  Then each of the 2^k inputs
takes a few int operations.  Memory is the n rows; nothing is kept per
input.
"""

from __future__ import annotations

from .circuit import Gate
from .gf2 import rank, solve
from .pauli import conjugate

__all__ = ["fixing_signs", "zero_amplitude", "verify_counts"]


def _mul(p, q):
    """The product p·q of two (x, z, c) Paulis, c reduced mod 4."""
    c = p[2] + q[2] + 2 * (p[1] & q[0]).bit_count()
    return p[0] ^ q[0], p[1] ^ q[1], c & 3


def _anticommute(x: int, z: int, g) -> int:
    """1 when the Pauli with bits x, z anticommutes with ``g``, else 0."""
    return ((x & g.z) ^ (z & g.x)).bit_count() & 1


def _with_x(rows, target: int):
    """A product of ``rows`` whose X part is ``target``, or None.

    Rows are eliminated on their X parts, each pivot keyed by its leading
    bit and carried with its exact product; a row whose X part cancels
    takes no part.
    """
    pivots = {}
    for row in rows:
        while row[0]:
            top = row[0].bit_length()
            if top not in pivots:
                pivots[top] = row
                break
            row = _mul(row, pivots[top])
    product = (0, 0, 0)
    while target:
        pivot = pivots.get(target.bit_length())
        if pivot is None:
            return None
        product = _mul(product, pivot)
        target ^= pivot[0]
    return product


def fixing_signs(gates, paulis) -> list[int | None]:
    """Per Pauli g: 0 when g fixes psi, 1 when -g does, None when neither.

    psi = C|0...0> for the circuit C that applies ``gates`` in order.  g
    fixes psi exactly when C†·g·C fixes |0...0>, that is when C†·g·C is
    +Z^z, and -g fixes psi when it is -Z^z.  C† applies the gates in
    reverse, each its own inverse but S, whose inverse is S·Z.
    """
    inverse = []
    for gate in reversed(gates):
        inverse.append(gate)
        if gate.kind == "S":
            inverse.append(Gate("Z", gate.q))
    signs = []
    for g in paulis:
        pulled = g.conjugated_by(inverse)
        signs.append(None if pulled.x else {0: 0, 2: 1}.get(pulled.phase_exp))
    return signs


def zero_amplitude(gates, n: int) -> tuple[int, int, int]:
    """(index, m, d): C|0…0> holds e^(iπ·m/4)/√2^d at basis index ``index``.

    The amplitude is nonzero and exact.  The n stabilizer rows C·Z_q·C†
    are brought up to date only at each H, the one gate that needs them.
    At an H on qubit q, lo and hi are the two indices that differ only in
    q, one of them the tracked index, and the new amplitudes are
    (lo ± hi)/√2.  With no partner in the support one side is 0; with a
    partner, hi = e^(iπ·δ/4)·lo for δ in 0, 2, 4, 6, so one of the two
    sums is nonzero: √2·lo (δ = 0 on the lo index, δ = 4 on the hi index)
    or e^(±iπ/4)·lo (δ = 2, 6 on the lo index).
    """
    rows = [(0, 1 << n - q, 0) for q in range(1, n + 1)]
    index = m = d = 0
    done = 0  # the rows are conjugated by gates[:done]
    for t, gate in enumerate(gates):
        q = gate.q
        a = 1 << n - q[-1]
        if gate.kind == "H":
            rows = [conjugate(*row, gates[done:t], n) for row in rows]
            done = t
            partner = _with_x(rows, a)
            if partner is None:
                m += 4 if index & a else 0
                d += 1
                continue
            _, z, c = partner
            # partner = i^c·X_q·Z^z fixes the state, so it moves the tracked
            # amplitude to index ^ a with the factor i^c·(-1)^|z & index|
            delta = 2 * c + 4 * ((z & index).bit_count() & 1)
            if index & a:  # read from the lo side
                index ^= a
                m += delta
                delta = -delta
            delta &= 7
            if delta == 4:
                index |= a
            if delta in (0, 4):
                d -= 1
            else:
                m += 1 if delta == 2 else -1
            continue
        if len(q) == 2 and not index & 1 << n - q[0]:
            continue  # control is 0
        kind = gate.kind[-1]  # a controlled gate acts as its target's kind
        if kind == "X":
            index ^= a
        elif kind == "Y":  # Y|0> = i|1>, Y|1> = -i|0>
            m += 6 if index & a else 2
            index ^= a
        elif index & a:
            m += 4 if kind == "Z" else 2  # Z, or S: i
    return index, m & 7, d


def _pivot_product(sf, y: int):
    """The product of the X-pivot generators i < r with column i of y set."""
    product = (0, 0, 0)
    for i, g in enumerate(sf.generators[:sf.r]):
        if y >> sf.n - 1 - i & 1:
            own = (g.x, g.z, g.phase_exp + (g.x & g.z).bit_count())
            product = _mul(product, own)
    return product


def _match(gates, sf, signs, conj_x, allow_frame):
    """(matched, frame) over every logical input of ``gates``.

    ``signs`` come from ``fixing_signs`` over the standard generators and
    then the logical Z's, and ``conj_x`` holds each logical wire's
    C·X_q·C† as (x, z, c).  Nothing matches and no frame is returned when
    some input's output differs from its oracle state by more than a sign
    per basis index, or, with ``allow_frame``, when no single Z frame
    repairs them all.  Otherwise ``matched`` counts the inputs equal to
    their oracle state, after ``frame`` when one is allowed.

    The frame system of the dense check has one equation per index of
    each input's support; input b's equations span its base row (L_b.x,
    ω_b = -1) and its r direction rows (X part of pivot generator i, bit i
    of F_b).  F_b = F_0 for every b unless some conjugated logical X flips
    a pivot sign, and ω_b = ±1 then follows a linear rule unless some
    input breaks it; either break puts 0 = 1 in the row space.  If neither
    happens, the rows of input 0 and of the k single-bit inputs span the
    whole system, and ``gf2.solve``, whose answer depends only on the row
    space, gets those r + k rows.
    """
    n, r, k = sf.n, sf.r, sf.k
    gens = sf.generators
    differ = (0, 0)
    # Unequal groups, or supports already differing at input 0.
    if None in signs or any(signs[r:]):
        return differ
    f0 = sum(sign << n - 1 - i for i, sign in enumerate(signs[:r]))
    # C|0…0> = ω_0·Z_f0·|0_L>: read ω_0 = √2^r·<0…0|C|0…0> off the
    # tracked index y, through the pivot product g with X part y, which
    # fixes C|0…0> with the sign (-1)^|f0 & y|.
    y, m, _ = zero_amplitude(gates, n)
    _, z, c = _pivot_product(sf, y)
    m += 2 * c + 4 * (((f0 ^ z) & y).bit_count() & 1)
    if m & 1:
        return differ  # ω_0 is an odd power of e^(iπ/4): no input is real
    e0 = m >> 1

    def omega(p, piv):
        """ω_b as a power of i, for P_b = p and pivot product piv.

        C|b> = ω_0·P_b·Z_f0·piv·|0_L>, and P_b·Z_f0·piv has X part L_b.x,
        where |b_L> and |0_L>'s 1/√2^r at 0…0 meet.
        """
        c = p[2] + piv[2] + 2 * ((p[1] ^ f0) & piv[0]).bit_count()
        return (e0 + c) & 3

    # Per logical bit j: P_j, the pivot product with X part P_j.x ^ L_j.x,
    # the pivot signs P_j flips and whether input j alone has ω = -1.
    steps = []
    for p, ell in zip(conj_x, sf.logical_x):
        # C|b> has support P_b.x + span and |b_L> has L_b.x + span
        piv = _pivot_product(sf, p[0] ^ ell.x)
        if piv[0] != p[0] ^ ell.x:
            return differ
        flips = sum(
            _anticommute(p[0], p[1], g) << n - 1 - i
            for i, g in enumerate(gens[:r])
        )
        steps.append((p, piv, flips, omega(p, piv) >> 1))
    solvable = allow_frame and not any(flips for _, _, flips, _ in steps)
    # Inputs in Gray-code order: each differs from the last in logical bit
    # j, so P_b and the pivot product each take one more factor.
    p = piv = (0, 0, 0)
    frame, predicted = f0, 0
    matched = 0
    for t in range(1 << k):
        if t:
            p_j, piv_j, flips, minus = steps[(t & -t).bit_length() - 1]
            p, piv = _mul(p, p_j), _mul(piv, piv_j)
            frame ^= flips
            predicted ^= minus
        e = omega(p, piv)
        if e & 1:
            return differ
        matched += not (e or frame)
        solvable = solvable and e >> 1 == predicted
    if not allow_frame:
        return matched, 0
    if not solvable:
        return differ
    rows = [g.x for g in gens[:r]] + [ell.x for ell in sf.logical_x]
    rhs = list(signs[:r]) + [minus for *_, minus in steps]
    return 1 << k, solve(rows, rhs)


def verify_counts(circuit, sf, allow_frame: bool) -> tuple[int, int, int]:
    """(stabilized, matched, frame) as `stabsynth verify` prints them.

    ``frame`` is an int in the ``gf2`` layout, 0 when no frame is applied.
    ``stabilized`` counts the inputs b whose output Z_frame·C|b> every
    standard generator fixes, ``matched`` those equal to the projector
    oracle's encoded |b>; both are 0 when the outputs and the oracle
    states differ by more than a sign per basis index, or by more than
    one Z frame when ``allow_frame`` is set.
    """
    n, k = sf.n, sf.k
    gates = circuit.gates
    gens = sf.generators
    signs = fixing_signs(gates, gens + sf.logical_z)
    conj_x = [
        conjugate(1 << n - q, 0, 0, gates, n)
        for q in circuit.logical_qubits()
    ]
    matched, frame = _match(gates, sf, signs, conj_x, allow_frame)
    # g·Z_F·P_b·psi = ±Z_F·P_b·(g·psi), with - when g anticommutes with
    # Z_F·P_b, so g fixes input b when that sign cancels the one on g
    # that fixes psi.  The anticommutation bits are linear in b, so the
    # inputs that pass are a coset of a linear map's kernel, or none.
    signs = signs[:len(gens)]
    if None in signs:
        return 0, matched, frame
    masks = [
        sum(_anticommute(x, z, g) << i for i, g in enumerate(gens))
        for x, z, _ in conj_x
    ]
    target = sum(
        (sign ^ (g.x & frame).bit_count() & 1) << i
        for i, (g, sign) in enumerate(zip(gens, signs))
    )
    got = rank(masks)
    stabilized = 1 << k - got if rank(masks + [target]) == got else 0
    return stabilized, matched, frame
