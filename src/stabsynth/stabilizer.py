"""Exact Clifford decisions without statevectors: `stabsynth verify` and
`simulate`, and the equality test that proves every rewrite rule.

Every gate kind is Clifford, so C|0…0> and the oracle's encoded |0_L> are
stabilizer states: each has a stabilizer group of n independent Paulis,
its support is an affine space, and every amplitude on it has the same
size and a phase that is a power of e^(iπ/4).  A Pauli here is three
ints (x, z, c) meaning i^c·X^x·Z^z, with the ``gf2`` bit layout (qubit 1
the most significant bit), multiplied by ``pauli.multiply``.  One applied
to |j> gives i^c·(-1)^|z & j|·|j ^ x>.

- **Conjugation** (``conjugate_rows``) maps every Pauli of a batch to
  C·P·C† in one pass over the gates: a ``Tableau`` packs the batch by
  column, so each gate is a few int operations for all rows at once.
- **C|0…0>** (``zero_amplitude``) is tracked as its n stabilizer rows
  C·Z_q·C† (Aaronson and Gottesman, quant-ph/0406196) plus one index of
  its support and that index's amplitude, kept exactly as e^(iπ·m/4)/√2^d.
  Every gate but H moves the index or multiplies the amplitude by a power
  of i.  An H on qubit q mixes the index with its partner index ^ q: when
  some product of rows has X part q alone, the partner is in the support
  and that product gives its amplitude from the tracked one.  Paulis a
  question also needs conjugated ride in the same tableau, so the
  tracking and their conjugation are one forward pass over the gates.
- **Amplitudes** (``amplitudes``).  E·C|b> is P·C|0…0> for one Pauli P,
  and C|0…0> is the tracked amplitude carried across its support by the
  products of its stabilizer rows, one product per index, made in index
  order as they are listed, so nothing is kept per index.  One forward
  pass.
- **Equality** (``same_on``).  Two gate lists agree on the basis inputs
  with some qubits at |0> exactly when C = rhs†·lhs fixes |0…0>, read as
  ``zero_amplitude`` reads it, and conjugates each other qubit's X to
  itself times Z's on the |0> qubits alone.  One forward pass over
  lhs and rhs† answers both.
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
  by the signs of the X-pivot generators (affine in b), and ω_b read at
  index L_b.x, where |b_L> holds 1/√2^r.  Input b agrees up to a sign per
  index when ω_b is real, and matches, exactly, when ω_b = 1 and F_b = 0.
  ω_b = i^e(b) with e a quadratic function of b over Z4 (Dehaene and De
  Moor's phase form), so no input is walked: ``_match`` reads e at input
  0, at each single-bit input and at each pair of them, and counts the
  matches as the zeros of Q = e/2 over GF(2) on the affine set F_b = 0,
  from the rank of Q's alternating form and its Arf invariant.

The cost of ``verify_counts`` is about n·gates big-int operations: one
backward pass pulls the n - k generators and k logical Z's back through
C†, and one forward pass tracks C|0…0> with the k logical X's riding in
its tableau, plus an elimination of the n rows at each H whose qubit
some row has an X on.  When some generator pulls back to no ±Z^z,
nothing can match and the forward pass is skipped.  Otherwise the
backward pass also gives every anticommutation bit the decision needs:
with each generator g pulled back to ±Z^z, C·X_q·C† anticommutes with g
exactly when bit q of that z is set, so the bits of the stabilized
count and of the pivot signs a logical X flips are read off the
pull-back's Z columns, with no Pauli test.  Then the inputs take
k(k + 1)/2 + 1 readings of ω and O((k + r)^2) int operations for the
count, whatever 2^k is.  Memory is the n + k rows; nothing is kept per
input.  ``amplitudes`` adds one Pauli product per nonzero amplitude.
"""

from __future__ import annotations

from .circuit import Gate
from .gf2 import rank, solve, transpose
from .pauli import multiply

__all__ = [
    "Tableau", "amplitudes", "conjugate_rows", "fixing_signs", "same_on",
    "zero_amplitude", "verify_counts",
]


class Tableau:
    """Paulis i^c·X^x·Z^z on n qubits, packed by column.

    ``cols[q - 1]`` and ``cols[n + q - 1]`` hold qubit q's X and Z bits of
    every row, the first row as the top bit, and ``cols[2n]`` and
    ``cols[2n + 1]`` the bit planes c1 and c0 of c = c0 + 2·c1, so a gate
    is a few int operations for all rows at once.
    """

    __slots__ = ("n", "count", "cols")

    def __init__(self, rows, n: int):
        self.n, self.count = n, len(rows)
        packed = [(x << n | z) << 2 | c & 3 for x, z, c in rows]
        self.cols = transpose(packed, 2 * n + 2)

    def rows(self, start: int = 0, stop: int | None = None):
        """Rows ``start`` to ``stop`` (every row by default) as (x, z, c),
        c reduced mod 4."""
        n, mask = self.n, (1 << self.n) - 1
        stop = self.count if stop is None else stop
        below, keep = self.count - stop, (1 << stop - start) - 1
        cols = [col >> below & keep for col in self.cols] if keep else []
        packed = transpose(cols, stop - start)
        return [(v >> n + 2, v >> 2 & mask, v & 3) for v in packed]

    def conjugate(self, gates) -> None:
        """Replace each row P by C·P·C†, C applying ``gates`` in order.

        Each gate has a ``kind`` and 1-based qubits ``q``, as in
        ``circuit.Gate``.  This is the Heisenberg-picture update of
        Aaronson and Gottesman's stabilizer simulation, with c exact:
        C·P|s> = (C·P·C†)·C|s> amplitude for amplitude.  With control bits
        a and target bits b:

        - H swaps x and z and adds 2 where both are set; S adds x to c and
          XORs x into z; X, Y and Z add 2·z, 2·(x XOR z) and 2·x;
        - CX XORs x_a into x_b and z_b into z_a; CZ XORs x_a into z_b and
          x_b into z_a and adds 2·x_a·x_b; CY is S† on b, CX, S on b.
        """
        n, cols = self.n, self.cols
        c1, c0 = cols[2 * n:]
        for gate in gates:
            kind, q = gate.kind, gate.q
            a = q[0] - 1
            xa, za = cols[a], cols[n + a]
            if kind == "H":
                c1 ^= xa & za
                cols[a], cols[n + a] = za, xa
            elif kind == "S":
                c1 ^= c0 & xa
                c0 ^= xa
                cols[n + a] = za ^ xa
            elif kind == "X":
                c1 ^= za
            elif kind == "Y":
                c1 ^= xa ^ za
            elif kind == "Z":
                c1 ^= xa
            else:
                b = q[1] - 1
                if kind == "CZ":
                    c1 ^= xa & cols[b]
                    cols[n + a] = za ^ cols[b]
                    cols[n + b] ^= xa
                    continue
                if kind == "CY":  # S† on b: c - 1 where x_b is set
                    c1 ^= cols[b] & ~c0
                    c0 ^= cols[b]
                    cols[n + b] ^= cols[b]
                cols[b] ^= xa
                cols[n + a] = za ^ cols[n + b]
                if kind == "CY":
                    c1 ^= c0 & cols[b]
                    c0 ^= cols[b]
                    cols[n + b] ^= cols[b]
        cols[2 * n:] = c1, c0


def conjugate_rows(rows, gates, n: int) -> list[tuple[int, int, int]]:
    """C·P·C† for each P = i^c·X^x·Z^z in ``rows``, as the same three ints.

    C applies ``gates`` in order; ``Tableau.conjugate`` does the work for
    all rows at once.  Each returned c is reduced mod 4.
    """
    tableau = Tableau(rows, n)
    tableau.conjugate(gates)
    return tableau.rows()


def _pivots(rows) -> dict[int, tuple[int, int, int]]:
    """``rows`` eliminated on their X parts, as exact products.

    Each pivot is keyed by the leading bit of its X part, and the X parts
    of the pivots span those of the rows; a row whose X part cancels
    takes no part.
    """
    pivots = {}
    for row in rows:
        while row[0]:
            top = row[0].bit_length()
            if top not in pivots:
                pivots[top] = row
                break
            row = multiply(row, pivots[top])
    return pivots


def _with_x(rows, target: int):
    """A product of ``rows`` whose X part is ``target``, or None."""
    pivots = _pivots(rows)
    product = (0, 0, 0)
    while target:
        pivot = pivots.get(target.bit_length())
        if pivot is None:
            return None
        product = multiply(product, pivot)
        target ^= pivot[0]
    return product


def _inverse(gates) -> list[Gate]:
    """The gates of C† for the circuit C that applies ``gates`` in order.

    C† applies the gates in reverse, each its own inverse but S, whose
    inverse is S·Z.
    """
    inverse = []
    for gate in reversed(gates):
        inverse.append(gate)
        if gate.kind == "S":
            inverse.append(Gate("Z", gate.q))
    return inverse


def _pull_back(gates, paulis, n: int) -> Tableau:
    """C†·g·C for each n-qubit PauliString g of ``paulis``, one row each,
    C the circuit that applies ``gates`` in order."""
    tableau = Tableau([g.xzc() for g in paulis], n)
    tableau.conjugate(_inverse(gates))
    return tableau


def _signs(pulled: Tableau) -> list[int | None]:
    """``fixing_signs``' answer for each row C†·g·C of ``pulled``.

    A row is ±Z^z when it has no X bit and c is 0 or 2, read for all rows
    at once off the X columns and the phase bit planes.
    """
    n, cols = pulled.n, pulled.cols
    signless = cols[2 * n + 1]  # c odd
    for col in cols[:n]:
        signless |= col
    minus = cols[2 * n]
    return [
        None if signless >> t & 1 else minus >> t & 1
        for t in range(pulled.count - 1, -1, -1)
    ]


def fixing_signs(gates, paulis) -> list[int | None]:
    """Per Pauli g: 0 when g fixes psi, 1 when -g does, None when neither.

    psi = C|0...0> for the circuit C that applies ``gates`` in order.  g
    fixes psi exactly when C†·g·C fixes |0...0>, that is when C†·g·C is
    +Z^z, and -g fixes psi when it is -Z^z.
    """
    if not paulis:
        return []
    return _signs(_pull_back(gates, paulis, paulis[0].n))


def zero_amplitude(gates, n: int) -> tuple[int, int, int]:
    """(index, m, d): C|0…0> holds e^(iπ·m/4)/√2^d at basis index ``index``.

    The amplitude is nonzero and exact.  The n stabilizer rows C·Z_q·C†
    are brought up to date at each H, the one gate that needs them, and
    once after the last gate.
    At an H on qubit q, lo and hi are the two indices that differ only in
    q, one of them the tracked index, and the new amplitudes are
    (lo ± hi)/√2.  With no partner in the support one side is 0; with a
    partner, hi = e^(iπ·δ/4)·lo for δ in 0, 2, 4, 6, so one of the two
    sums is nonzero: √2·lo (δ = 0 on the lo index, δ = 4 on the hi index)
    or e^(±iπ/4)·lo (δ = 2, 6 on the lo index).
    """
    return _zero_state(gates, n)[0]


def _zero_state(gates, n: int, carried=()):
    """((index, m, d), tableau): ``zero_amplitude`` and its rows.

    The tableau holds the n rows C·Z_q·C† followed by C·P·C† for each
    Pauli P of ``carried``, so a question that needs C|0…0> and some
    conjugated Paulis makes one pass over the gates.
    """
    tableau = Tableau(
        [(0, 1 << n - q, 0) for q in range(1, n + 1)] + list(carried), n
    )
    below = len(carried)  # the carried rows are the low bits of a column
    index = m = d = 0
    done = 0  # the rows are conjugated by gates[:done]
    for t, gate in enumerate(gates):
        q = gate.q
        a = 1 << n - q[-1]
        if gate.kind == "H":
            tableau.conjugate(gates[done:t])
            done = t
            # with no row's X part on qubit q, no product's is X_q
            x_on_q = tableau.cols[q[0] - 1] >> below
            partner = _with_x(tableau.rows(0, n), a) if x_on_q else None
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
    tableau.conjugate(gates[done:])
    return (index, m & 7, d), tableau


def same_on(lhs, rhs, n: int, zero: int = 0) -> bool:
    """Whether gate lists ``lhs`` and ``rhs`` act alike on qubits 1..n.

    Alike means equal, global phase included, on every basis input with
    no bit of ``zero`` set (``gf2`` layout).  That holds exactly when
    C = rhs†·lhs fixes each such input b, and it does exactly when

    - C|0…0> = |0…0>, which ``zero_amplitude`` reads as (0, 0, 0), and
    - C·X_q·C† = X_q·Z^z with no bit of z free, for every free qubit q,

    since then C|b> = C·X^b·C†·C|0…0> = |b>.  Both are needed: CZ(1, 2)
    fixes |0…0>, and only the second rejects it as the identity.
    """
    free = (1 << n) - 1 & ~zero
    rows = [(1 << q, 0, 0) for q in range(n) if free >> q & 1]
    amplitude, tableau = _zero_state([*lhs, *_inverse(rhs)], n, rows)
    if amplitude != (0, 0, 0):
        return False
    return all(
        (x, z & free, c) == (a, 0, 0)
        for (a, _, _), (x, z, c) in zip(rows, tableau.rows(n))
    )


# The most amplitudes ``amplitudes`` lists is 2^_MAX_LISTED.  A state's
# support has at most 2^n indices, so 26 is exactly the most that any
# state on n <= 26 qubits lists: every such state is listed.
_MAX_LISTED = 26


def amplitudes(circuit, bits: str, error=None):
    """(d, amps): E·C|b> holds e^(iπ·m/4)/√2^d at each (index, m) of amps.

    ``amps`` yields every nonzero amplitude once, in index order.  C is
    the circuit, b the basis input with ``bits`` on its logical qubits, in
    order, and 0 elsewhere, and E the PauliString ``error`` (I when None).
    E·C|b> is P·C|0…0> for P = E·C·X^b·C†, and C|0…0> is nonzero exactly
    on the index that ``zero_amplitude`` tracks plus the span of its
    stabilizer rows' X parts.  Each product g = i^c·X^x·Z^z of the pivot
    rows fixes C|0…0>, so it carries the tracked amplitude to index ^ x
    with the factor i^c·(-1)^|z & index|.  P then moves the amplitude at
    j to j ^ P.x with the factor i^P.c·(-1)^|P.z & j|.  The rows are the
    ones ``zero_amplitude`` tracks, and X^b rides in the same tableau, so
    one pass over the gates conjugates them all.  ``bits`` that are not
    one 0/1 character per logical qubit and an ``error`` on another number
    of qubits raise ``ValueError`` first, and a state with d past
    ``_MAX_LISTED`` after that pass, before any amplitude is listed.
    """
    n, gates = circuit.n, circuit.gates
    logical = circuit.logical_qubits()
    if len(bits) != len(logical) or set(bits) - {"0", "1"}:
        raise ValueError(
            f"bits {bits!r} are not {len(logical)} characters of 0/1"
        )
    if error is not None and error.n != n:
        raise ValueError(f"error acts on {error.n} qubits, circuit on {n}")
    b = sum(int(bit) << n - q for bit, q in zip(bits, logical))
    (index, m, d), tableau = _zero_state(gates, n, [(b, 0, 0)])
    if d > _MAX_LISTED:
        raise ValueError(
            f"the state has 2^{d} nonzero amplitudes; "
            f"at most 2^{_MAX_LISTED} are listed"
        )
    *rows, moved = tableau.rows()
    return d, _listed(index, m, rows, multiply(
        error.xzc() if error else (0, 0, 0), moved
    ))


def _listed(index, m, rows, moved):
    """``amplitudes``' (index, m) pairs, one product of rows per pair.

    The pivot rows are reduced so that each leading bit is set in its own
    row's X part alone.  The highest bit in which two indices of the
    support differ is then one of those leading bits, so the least index
    has none of them set, and with bit i of a counter t selecting the row
    of the i-th lowest leading bit, counting t up lists the support in
    index order.  From t - 1 to t the lowest set bit i of t and every bit
    below it flip: one multiplication by the product of rows 0 to i, as
    the rows commute and square to I.
    """
    x, z, c = moved
    pivots = _pivots(rows)
    tops = sorted(pivots)
    for i, low in enumerate(tops):
        for high in tops[i + 1:]:
            if pivots[high][0] >> low - 1 & 1:
                pivots[high] = multiply(pivots[high], pivots[low])
    g = p = (0, 0, 0)
    prefix = []
    for top in tops:
        if (index ^ x) >> top - 1 & 1:  # g starts at the least index
            g = multiply(g, pivots[top])
        p = multiply(p, pivots[top])
        prefix.append(p)
    for t in range(1 << len(tops)):
        if t:
            g = multiply(g, prefix[(t & -t).bit_length() - 1])
        j = index ^ g[0]
        signs = (g[1] & index).bit_count() + (z & j).bit_count()
        yield j ^ x, (m + 2 * (g[2] + c) + 4 * signs) & 7


def _pivot_product(sf, y: int):
    """The product of the X-pivot generators i < r with column i of y set."""
    product = (0, 0, 0)
    for i, g in enumerate(sf.generators[:sf.r]):
        if y >> sf.n - 1 - i & 1:
            product = multiply(product, g.xzc())
    return product


def _sign_sum(c: int, lam: int, adj: list[int]) -> int:
    """The sum of (-1)^(c + lam·t + Σ_{i<j} adj_ij·t_i·t_j) over all t.

    t ranges over GF(2)^v for the v bitmasks of ``adj``, which is
    symmetric with a zero diagonal: bit j of ``adj[i]`` is the coefficient
    of t_i·t_j, and bit i of ``lam`` that of t_i.  A t_i that meets no
    other variable sums out to a factor 2, or to 0 when its bit of ``lam``
    is set.  A t_i that meets t_j sums out to 2 times the indicator of
    t_j = lam_i + Σ_l adj_il·t_l (l ≠ j), and putting that in for t_j
    leaves a form in two fewer variables (Dickson's reduction).  So the
    sum is 0 or ±2^(v - h), with 2h the rank of ``adj`` and the sign the
    form's Arf invariant, in O(v^2) int operations.
    """
    adj = list(adj)
    live = (1 << len(adj)) - 1
    total = 1
    while live:
        i = (live & -live).bit_length() - 1
        row = adj[i]
        total <<= 1
        if not row:
            if lam >> i & 1:
                return 0
            live ^= 1 << i
            continue
        j = (row & -row).bit_length() - 1
        gone = 1 << i | 1 << j
        live &= ~gone
        alpha, beta = row & ~gone, adj[j] & ~gone
        a, b = lam >> i & 1, lam >> j & 1
        # The t_j terms, t_j·(b + beta·t), with t_j = a + alpha·t: the
        # product adds alpha⊗beta + beta⊗alpha to adj, its diagonal
        # alpha & beta going to lam as t·t = t.
        c ^= a & b
        lam ^= (beta if a else 0) ^ (alpha if b else 0) ^ (alpha & beta)
        rest = alpha | beta
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            adj[w] = (
                adj[w] & ~gone
                ^ (beta if alpha & low else 0) ^ (alpha if beta & low else 0)
            )
    return -total if c & 1 else total


def _match(zero, sf, signs, conj_x, anti, allow_frame):
    """(matched, frame) over every logical input of a circuit C.

    ``zero`` is C|0…0>'s tracked (index, m, d) from ``zero_amplitude``,
    ``signs`` come from ``fixing_signs`` over the standard generators and
    then the logical Z's, and ``conj_x`` holds each logical wire's
    C·X_q·C† as (x, z, c) and ``anti`` the standard generators it
    anticommutes with, generator i as bit n - k - 1 - i.  Nothing matches
    and no frame is returned when some input's output differs from its
    oracle state by more than a sign per basis index, or, with
    ``allow_frame``, when no single Z frame repairs them all.  Otherwise
    ``matched`` counts the inputs equal to their oracle state, after
    ``frame`` when one is allowed.

    No input is walked.  ω_b = i^e(b), and e is a quadratic function of
    b's bits b_j: P_b and the pivot product are products of commuting
    Paulis, whose phases gain 2·|z & x| per pair of factors, and the cross
    term 2·|(P_b.z ^ f0) & piv_b.x| is bilinear.  So
    e(b) = e(0) + Σ_j a_j·b_j + 2·Σ_{j<l} q_jl·b_j·b_l mod 4, read off e at
    input 0, at each single-bit input and at each pair of them.

    - The cross terms are even, so some input has an odd e exactly when
      input 0 or a single-bit input does: it differs by more than a sign.
    - The frame system of the dense check has one equation per index of
      each input's support; input b's equations span its base row (L_b.x,
      Q(b) = e(b)/2) and its r direction rows (X part of pivot generator
      i, bit i of F_b).  F_b = F_0 for every b unless some conjugated
      logical X flips a pivot sign, and Q is linear unless Q(0) = 1 or
      some q_jl = 1; any of these puts 0 = 1 in the row space.  Otherwise
      the rows of input 0 and of the k single-bit inputs span the whole
      system, and ``gf2.solve``, whose answer depends only on the row
      space, gets those r + k rows.
    - Input b matches, exactly, when ω_b = 1 and F_b = 0.  ``matched`` is
      the number of zeros of Q on the affine set F_b = 0: half its size
      plus half the sum of (-1)^Q(b) over it.  With one more variable s_i
      per pivot column, the sum over s of (-1)^(s·F_b) is 2^r when
      F_b = 0 and 0 otherwise, so that sum is 2^-r times ``_sign_sum`` of
      Q(b) + s·F_b over every (b, s).
    """
    n, r, k = sf.n, sf.r, sf.k
    differ = (0, 0)
    # Unequal groups, or supports already differing at input 0.
    if None in signs or any(signs[r:]):
        return differ
    f0 = sum(sign << n - 1 - i for i, sign in enumerate(signs[:r]))
    # C|0…0> = ω_0·Z_f0·|0_L>: read ω_0 = √2^r·<0…0|C|0…0> off the
    # tracked index y, through the pivot product g with X part y, which
    # fixes C|0…0> with the sign (-1)^|f0 & y|.
    y, m, _ = zero
    _, z, c = _pivot_product(sf, y)
    m += 2 * c + 4 * (((f0 ^ z) & y).bit_count() & 1)
    if m & 1:
        return differ  # ω_0 is an odd power of e^(iπ/4): no input is real
    e0 = m >> 1 & 3  # e at input 0

    def omega(p, piv):
        """ω_b as a power of i, for P_b = p and pivot product piv.

        C|b> = ω_0·P_b·Z_f0·piv·|0_L>, and P_b·Z_f0·piv has X part L_b.x,
        where |b_L> and |0_L>'s 1/√2^r at 0…0 meet.
        """
        c = p[2] + piv[2] + 2 * ((p[1] ^ f0) & piv[0]).bit_count()
        return (e0 + c) & 3

    # Per logical bit j: P_j, the pivot product with X part P_j.x ^ L_j.x
    # and the pivot signs P_j flips, moved to their columns i < r.
    steps = []
    for p, bits, ell in zip(conj_x, anti, sf.logical_x):
        # C|b> has support P_b.x + span and |b_L> has L_b.x + span
        piv = _pivot_product(sf, p[0] ^ ell.x)
        if piv[0] != p[0] ^ ell.x:
            return differ
        steps.append((p, piv, bits >> n - k - r << n - r))
    single = [omega(p, piv) for p, piv, _ in steps]
    if e0 & 1 or any(e & 1 for e in single):
        return differ
    flips = [f for *_, f in steps]
    # Q(b) = e(b)/2 over GF(2): e0/2 + Σ_j lam_j·b_j + Σ_{j<l} q_jl·b_j·b_l,
    # with q_jl as adj bits; variables k.. are the s_i of the frame count.
    lam = sum(((e - e0) & 3) >> 1 << j for j, e in enumerate(single))
    adj = [0] * k
    for j, (p, piv, _) in enumerate(steps):
        for l in range(j):
            p_l, piv_l, _ = steps[l]
            pair = omega(multiply(p, p_l), multiply(piv, piv_l))
            if (pair - single[j] - single[l] + e0) & 2:
                adj[j] |= 1 << l
                adj[l] |= 1 << j
    if allow_frame:
        if e0 or any(flips) or any(adj):
            return differ
        rows = [g.x for g in sf.generators[:r]] + [ell.x for ell in sf.logical_x]
        rhs = list(signs[:r]) + [e >> 1 for e in single]
        return 1 << k, solve(rows, rhs)
    got = rank(flips)
    if rank(flips + [f0]) != got:
        return 0, 0  # no input has F_b = 0
    # s_i, for pivot column i, is variable k + r - 1 - i, so a pivot mask
    # shifted down by n - r lines up with them.
    adj += [0] * r
    for j, f in enumerate(flips):
        f >>= n - r
        adj[j] |= f << k
        while f:
            low = f & -f
            f ^= low
            adj[k + low.bit_length() - 1] |= 1 << j
    signed = _sign_sum(e0 >> 1, lam | f0 >> n - r << k, adj) >> r
    return ((1 << k - got) + signed) >> 1, 0


def verify_counts(circuit, sf, allow_frame: bool) -> tuple[int, int, int]:
    """(stabilized, matched, frame) as `stabsynth verify` prints them.

    ``frame`` is an int in the ``gf2`` layout, 0 when no frame is applied.
    ``stabilized`` counts the inputs b whose output Z_frame·C|b> every
    standard generator fixes, ``matched`` those equal to the projector
    oracle's encoded |b>; both are 0 when the outputs and the oracle
    states differ by more than a sign per basis index, or by more than
    one Z frame when ``allow_frame`` is set.

    A circuit on other than ``sf.n`` qubits raises ``ValueError``.
    The circuit is walked twice: once backward (the pull-back that
    ``fixing_signs`` reads, which also gives every anticommutation bit)
    and, unless some generator pulls back to no ±Z^z, once forward
    (C|0…0> and the conjugated logical X's together).
    """
    n, k = sf.n, sf.k
    if circuit.n != n:
        raise ValueError(f"circuit acts on {circuit.n} qubits, code on {n}")
    gens = sf.generators
    m = len(gens)
    pulled = _pull_back(circuit.gates, gens + sf.logical_z, n)
    signs = _signs(pulled)
    if None in signs[:m]:
        return 0, 0, 0  # the unsigned groups differ
    logical = circuit.logical_qubits()
    zero, tableau = _zero_state(
        circuit.gates, n, [(1 << n - q, 0, 0) for q in logical]
    )
    conj_x = tableau.rows(n)
    # Each generator g pulls back to C†·g·C = ±Z^z, so C·X_q·C†
    # anticommutes with g exactly when X_q anticommutes with Z^z, that is
    # when bit q of z is set: the generators' bits of qubit q's Z column,
    # generator i as bit m - 1 - i.
    anti = [pulled.cols[n + q - 1] >> k for q in logical]
    matched, frame = _match(zero, sf, signs, conj_x, anti, allow_frame)
    # g·Z_F·P_b·psi = ±Z_F·P_b·(g·psi), with - when g anticommutes with
    # Z_F·P_b, so g fixes input b when that sign cancels the one on g
    # that fixes psi.  The anticommutation bits are linear in b, so the
    # inputs that pass are a coset of a linear map's kernel, or none.
    target = sum(
        (sign ^ (g.x & frame).bit_count() & 1) << m - 1 - i
        for i, (g, sign) in enumerate(zip(gens, signs))
    )
    got = rank(anti)
    stabilized = 1 << k - got if rank(anti + [target]) == got else 0
    return stabilized, matched, frame
