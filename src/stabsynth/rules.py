"""Rewrite rules for Clifford circuits, verified exactly at registration.

Every rule is an exact unitary identity on its local window — no global
phase slack — and a rule carrying ``zero_slots`` claims the identity only
on the subspace where those qubits are |0>.  ``register`` proves each
claim with ``stabilizer.same_on``, so an unsound rule cannot enter the
registry.  The same module hosts the syntactic commutation test used to
slide gates past each other; it too is proven at import time, pair by
pair.

Both proofs are exact and need no numpy.  For C = replacement†·pattern,
``same_on`` checks that C|0…0> is |0…0> with amplitude exactly 1, and
that C·X_q·C† is X_q times Z's on zero slots only for every qubit q not
a zero slot; together they say that C fixes every allowed basis input.
There is no tolerance, and a side that is off by a global phase fails.
"""

from __future__ import annotations

import functools

from .circuit import Gate, ONE_QUBIT_KINDS, TWO_QUBIT_KINDS, _Frozen
from .stabilizer import same_on

__all__ = [
    "REGISTRY",
    "RewriteRule",
    "gates_commute",
    "register",
    "rule",
]


class RewriteRule(_Frozen):
    """A window rewrite: ``pattern`` gates may be replaced by ``replacement``.

    Gates are templates over slot numbers 1..arity; ``instantiate`` maps
    slots to concrete qubits.  ``zero_slots`` lists slots that must be
    proven |0> at the window for the rewrite to be sound.
    """

    _fields = ("name", "pattern", "replacement", "zero_slots")

    def __init__(self, name: str, pattern: tuple[Gate, ...],
                 replacement: tuple[Gate, ...],
                 zero_slots: frozenset[int] = frozenset()):
        self._set(name, pattern, replacement, zero_slots)

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
        zero = sum(1 << n - s for s in self.zero_slots)
        if not same_on(self.pattern, self.replacement, n, zero):
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
    qubit and that the predicate passes is checked: a·b against b·a by
    ``same_on``, on the pair's union of qubits renumbered 1..m (m ≤ 3).
    Renumbered pairs repeat, and a·b = b·a is symmetric, so each is
    checked once.
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
                commute[key] = same_on((la, lb), (lb, la), len(wires))
            if not commute[key]:
                raise AssertionError(
                    f"commutation predicate wrongly passes {a} and {b}"
                )


_verify_commutation_predicate()
