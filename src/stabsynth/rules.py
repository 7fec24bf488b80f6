"""Rewrite rules for Clifford circuits, brute-force verified at registration.

Every rule is an exact unitary identity on its local window — no global
phase slack — and a rule carrying ``zero_slots`` claims the identity only
on the subspace where those qubits are |0>.  ``register`` checks each
claim by building both sides' unitaries on the rule's (at most three)
qubits, so an unsound rule cannot enter the registry.  The same module
hosts the syntactic commutation test used to slide gates past each other;
it too is verified exhaustively at import time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .circuit import Gate, ONE_QUBIT_KINDS, TWO_QUBIT_KINDS
from .simulator import GatePlan

__all__ = [
    "REGISTRY",
    "RewriteRule",
    "gates_commute",
    "register",
    "rule",
]


def _unitary(gates, n):
    """The gates' 2^n x 2^n unitary: one plan run on every basis input."""
    dim = 2 ** n
    plan = GatePlan(gates, np.empty((dim, dim), dtype=np.complex128))
    return plan.run_basis(range(dim)).T  # row b of the run is column b


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
        u_lhs = _unitary(self.pattern, n)
        u_rhs = _unitary(self.replacement, n)
        cols = range(2 ** n)
        if self.zero_slots:
            cols = [
                c for c in cols
                if all(not (c >> (n - s)) & 1 for s in self.zero_slots)
            ]
            u_lhs = u_lhs[:, cols]
            u_rhs = u_rhs[:, cols]
        if not np.allclose(u_lhs, u_rhs, atol=1e-12):
            raise AssertionError(
                f"rewrite rule {self.name!r} is not a unitary identity"
            )


REGISTRY: dict[str, RewriteRule] = {}


def register(r: RewriteRule) -> RewriteRule:
    """Verify ``r`` by brute force and add it to the registry."""
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
    cached bit masks.  Verified exhaustively against the dense simulator
    at import time.
    """
    sa, da, xa, ya = _action_masks(a)
    sb, db, xb, yb = _action_masks(b)
    return (sa & sb) == ((da & db) | (xa & xb) | (ya & yb))


def _verify_commutation_predicate() -> None:
    gates = [Gate(k, (q,)) for k in ONE_QUBIT_KINDS for q in (1, 2, 3)]
    gates += [
        Gate(k, (c, t))
        for k in TWO_QUBIT_KINDS
        for c in (1, 2, 3)
        for t in (1, 2, 3)
        if c != t
    ]
    # One row of products at a time: U_a·U_b against U_b·U_a for every b,
    # at np.allclose's tolerance (rtol 1e-5, atol 1e-12).  All 39 x 39
    # products at once would add megabytes to every import's peak memory.
    u = np.stack([_unitary([g], 3) for g in gates])
    for a, ua in zip(gates, u):
        close = np.isclose(ua @ u, u @ ua, rtol=1e-5, atol=1e-12)
        for b, ok in zip(gates, close.all(axis=(1, 2))):
            if not ok and gates_commute(a, b):
                raise AssertionError(
                    f"commutation predicate wrongly passes {a} and {b}"
                )


_verify_commutation_predicate()
