"""Rewrite rules for Clifford circuits, verified exactly at registration.

Every rule is an exact unitary identity on its local window — no global
phase slack — and a rule carrying ``zero_slots`` claims the identity only
on the subspace where those qubits are |0>.  ``register`` checks each
claim by running both sides on every basis input of the rule's (at most
three) qubits, so an unsound rule cannot enter the registry.  The same
module hosts the syntactic commutation test used to slide gates past each
other; it too is verified exhaustively at import time.

Both checks are exact and need no numpy.  Every gate of the alphabet but
H moves amplitudes or multiplies them by ±1 or ±i, and H without its
1/√2 adds and subtracts them, so a side's columns are Gaussian integers
times (1/√2)^h, h its number of H gates.  Two sides are equal exactly
when their integer columns agree once scaled to a common power of √2:
there is no tolerance, and a side that is off by a global phase fails.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .circuit import Gate, ONE_QUBIT_KINDS, TWO_QUBIT_KINDS

__all__ = [
    "REGISTRY",
    "RewriteRule",
    "gates_commute",
    "register",
    "rule",
]


def _run_exact(gates, n: int, inputs) -> tuple[int, list[list[tuple[int, int]]]]:
    """Each basis input in ``inputs`` run through ``gates`` on qubits 1..n.

    Returns ``(h, columns)``: ``columns[j]`` holds the output for
    ``inputs[j]`` as Gaussian integers, (real, imaginary) int pairs, and
    the true output is that column times (1/√2)^h, h the number of H
    gates.  Qubit 1 is the most significant bit of a basis index.
    """
    columns = []
    for b in inputs:
        amps = [(0, 0)] * (1 << n)
        amps[b] = (1, 0)
        for gate in gates:
            amps = _apply_exact(gate, n, amps)
        columns.append(amps)
    return sum(g.kind == "H" for g in gates), columns


def _apply_exact(gate: Gate, n: int, amps):
    """``amps`` after ``gate``, H without its 1/√2."""
    t = 1 << (n - gate.q[-1])
    c = 1 << (n - gate.q[0]) if len(gate.q) == 2 else 0
    kind = gate.kind[-1]  # a controlled gate acts as its target's kind
    out = list(amps)
    for i, (re, im) in enumerate(amps):
        if i & c != c:
            continue  # control is 0
        if kind == "X":
            out[i ^ t] = (re, im)
        elif kind == "Y":  # Y|0> = i|1>, Y|1> = -i|0>
            out[i ^ t] = (im, -re) if i & t else (-im, re)
        elif kind == "H":
            other_re, other_im = amps[i ^ t]
            out[i] = ((other_re - re, other_im - im) if i & t
                      else (re + other_re, im + other_im))
        elif i & t:
            out[i] = (-re, -im) if kind == "Z" else (-im, re)  # Z, or S: i
    return out


def _same_operator(lhs, rhs) -> bool:
    """Whether two ``_run_exact`` results are equal, global phase included.

    (1/√2)^h1·a = (1/√2)^h2·b holds for nonzero Gaussian-integer columns
    a and b only when h1 - h2 is even, and then exactly when
    2^((top - h1)/2)·a = 2^((top - h2)/2)·b, top = max(h1, h2).
    """
    (h1, cols1), (h2, cols2) = lhs, rhs
    if (h1 - h2) % 2:
        return False
    top = max(h1, h2)
    s1, s2 = 1 << ((top - h1) // 2), 1 << ((top - h2) // 2)
    return all(
        re1 * s1 == re2 * s2 and im1 * s1 == im2 * s2
        for col1, col2 in zip(cols1, cols2, strict=True)
        for (re1, im1), (re2, im2) in zip(col1, col2, strict=True)
    )


@dataclass(frozen=True)
class RewriteRule:
    """A window rewrite: ``pattern`` gates may be replaced by ``replacement``.

    Gates are templates over slot numbers 1..arity; ``instantiate`` maps
    slots to concrete qubits.  ``zero_slots`` lists slots that must be
    proven |0> at the window for the rewrite to be sound.
    """

    name: str
    pattern: tuple[Gate, ...]
    replacement: tuple[Gate, ...]
    zero_slots: frozenset[int] = field(default_factory=frozenset)

    @property
    def arity(self) -> int:
        slots = {q for g in self.pattern + self.replacement for q in g.q}
        return max(slots) if slots else 0

    def instantiate(self, assignment: dict[int, int]) -> tuple[Gate, ...]:
        """Replacement gates with slot numbers mapped through ``assignment``."""
        return tuple(
            Gate(g.kind, tuple(assignment[s] for s in g.q))
            for g in self.replacement
        )

    def verify(self) -> None:
        n = self.arity
        inputs = [
            b for b in range(2 ** n)
            if not any(b >> (n - s) & 1 for s in self.zero_slots)
        ]
        if not _same_operator(
            _run_exact(self.pattern, n, inputs),
            _run_exact(self.replacement, n, inputs),
        ):
            raise AssertionError(
                f"rewrite rule {self.name!r} is not a unitary identity"
            )


REGISTRY: dict[str, RewriteRule] = {}


def register(r: RewriteRule) -> RewriteRule:
    """Verify ``r`` exactly and add it to the registry."""
    if r.name in REGISTRY:
        raise ValueError(f"rewrite rule {r.name!r} is already registered")
    r.verify()
    REGISTRY[r.name] = r
    return r


def rule(name: str) -> RewriteRule:
    """Look up a registered rule by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"no rewrite rule named {name!r}") from None


def _g(kind, *slots):
    return Gate(kind, slots)


register(RewriteRule(
    "cy_to_cz_cx_s",
    pattern=(_g("CY", 1, 2),),
    replacement=(_g("CZ", 1, 2), _g("CX", 1, 2), _g("S", 1)),
))

register(RewriteRule(
    "cz_control_target_swap",
    pattern=(_g("CZ", 1, 2),),
    replacement=(_g("CZ", 2, 1),),
))

register(RewriteRule(
    "cz_from_cx_conjugation",
    pattern=(_g("H", 1), _g("CZ", 1, 2)),
    replacement=(_g("CX", 2, 1), _g("H", 1)),
))

register(RewriteRule(
    "cz_via_hadamards",
    pattern=(_g("CZ", 1, 2),),
    replacement=(_g("H", 2), _g("CX", 1, 2), _g("H", 2)),
))

register(RewriteRule(
    "cnot_distribution",
    pattern=(_g("CX", 1, 2), _g("CX", 2, 3)),
    replacement=(_g("CX", 2, 3), _g("CX", 1, 3), _g("CX", 1, 2)),
))

register(RewriteRule(
    "triangle_contraction",
    pattern=(_g("CX", 2, 3), _g("CX", 1, 3), _g("CX", 1, 2)),
    replacement=(_g("CX", 1, 2), _g("CX", 2, 3)),
))

register(RewriteRule(
    "h_pair_cancellation",
    pattern=(_g("H", 1), _g("H", 1)),
    replacement=(),
))

register(RewriteRule(
    "cx_pair_cancellation",
    pattern=(_g("CX", 1, 2), _g("CX", 1, 2)),
    replacement=(),
))

register(RewriteRule(
    "cz_pair_cancellation",
    pattern=(_g("CZ", 1, 2), _g("CZ", 1, 2)),
    replacement=(),
))

register(RewriteRule(
    "s_pair_merge",
    pattern=(_g("S", 1), _g("S", 1)),
    replacement=(_g("Z", 1),),
))

register(RewriteRule(
    "z_pair_cancellation",
    pattern=(_g("Z", 1), _g("Z", 1)),
    replacement=(),
))

register(RewriteRule(
    "cnot_zero_control_elision",
    pattern=(_g("CX", 1, 2),),
    replacement=(),
    zero_slots=frozenset({1}),
))

register(RewriteRule(
    "cz_zero_leg_elision",
    pattern=(_g("CZ", 1, 2),),
    replacement=(),
    zero_slots=frozenset({1}),
))

register(RewriteRule(
    "phase_zero_elision",
    pattern=(_g("S", 1),),
    replacement=(),
    zero_slots=frozenset({1}),
))

register(RewriteRule(
    "z_zero_elision",
    pattern=(_g("Z", 1),),
    replacement=(),
    zero_slots=frozenset({1}),
))

register(RewriteRule(
    "hadamard_basis_ancilla",
    pattern=(_g("H", 2), _g("CX", 1, 2)),
    replacement=(_g("H", 2),),
    zero_slots=frozenset({2}),
))


# ---------------------------------------------------------------------------
# Commutation


@functools.cache
def _action_masks(gate: Gate) -> tuple[int, int, int, int]:
    """(support, diagonal, X-like, Y-like) bit masks over ``gate``'s qubits.

    S, Z and both CZ legs are diagonal, as is the control of CX and CY;
    an X, Y, CX or CY target is X-like or Y-like; H is none of the three.
    Cached per gate: at most 8·n² gates exist on qubits 1..n.
    """
    kind, bits, support = gate.kind, [1 << q for q in gate.q], gate.support
    if kind in ("S", "Z", "CZ"):
        diagonal = support
    elif kind in ("CX", "CY"):
        diagonal = bits[0]
    else:
        diagonal = 0
    x_like = bits[-1] if kind in ("X", "CX") else 0
    y_like = bits[-1] if kind in ("Y", "CY") else 0
    return support, diagonal, x_like, y_like


def gates_commute(a: Gate, b: Gate) -> bool:
    """Syntactic test that two gates commute exactly.

    Conservative: gates with disjoint supports always commute, and on
    every shared qubit the local actions must be of the same commuting
    type (both diagonal, both X-like, or both Y-like).  One comparison of
    cached bit masks.  Verified exhaustively and exactly at import time.
    """
    sa, da, xa, ya = _action_masks(a)
    sb, db, xb, yb = _action_masks(b)
    return (sa & sb) == ((da & db) | (xa & xb) | (ya & yb))


def _verify_commutation_predicate() -> None:
    """Check ``gates_commute`` exactly on every pair of gates on qubits 1..3.

    Gates on disjoint qubits always commute, so only a pair that shares a
    qubit and that the predicate passes is run: a·b against b·a, on the
    pair's union of qubits renumbered 1..m (m ≤ 3).  Renumbered pairs
    repeat, and a·b = b·a is symmetric, so each is run once.
    """
    gates = [Gate(k, (q,)) for k in ONE_QUBIT_KINDS for q in (1, 2, 3)]
    gates += [
        Gate(k, (c, t))
        for k in TWO_QUBIT_KINDS
        for c in (1, 2, 3)
        for t in (1, 2, 3)
        if c != t
    ]
    commute: dict[frozenset[Gate], bool] = {}
    for a in gates:
        for b in gates:
            if not a.support & b.support or not gates_commute(a, b):
                continue
            wires = {q: i for i, q in enumerate(sorted({*a.q, *b.q}), 1)}
            la, lb = (Gate(g.kind, [wires[q] for q in g.q]) for g in (a, b))
            key = frozenset((la, lb))
            if key not in commute:
                inputs = range(2 ** len(wires))
                commute[key] = _same_operator(
                    _run_exact((lb, la), len(wires), inputs),
                    _run_exact((la, lb), len(wires), inputs),
                )
            if not commute[key]:
                raise AssertionError(
                    f"commutation predicate wrongly passes {a} and {b}"
                )


_verify_commutation_predicate()
