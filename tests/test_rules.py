"""Rewrite-rule registry: soundness guard, lookup, commutation predicate."""

import numpy as np
import pytest

from stabsynth import rules
from stabsynth.circuit import ONE_QUBIT_KINDS, TWO_QUBIT_KINDS, Gate
from stabsynth.rules import REGISTRY, RewriteRule, gates_commute, register, rule
from stabsynth.simulator import StateVector, apply_gate


def test_registry_holds_verified_rules():
    assert len(REGISTRY) >= 16
    for name, r in REGISTRY.items():
        assert r.name == name
        r.verify()  # exact unitary identity, no tolerance slack


def _per_column_unitary(gates, n):
    """The unitary as it was built before: one state per column, gate by gate."""
    u = np.zeros((2**n, 2**n), dtype=np.complex128)
    for col in range(2**n):
        state = StateVector(n)
        state.amps[0], state.amps[col] = 0.0, 1.0
        for gate in gates:
            apply_gate(state, gate)
        u[:, col] = state.amps
    return u


def test_unitary_is_bit_identical_to_the_per_column_loop():
    # Every registered rule's two sides, on its arity and on three qubits
    # (the commutation check's size), compared as int64 bit patterns.
    for r in REGISTRY.values():
        for gates in (r.pattern, r.replacement):
            for n in {r.arity, 3}:
                got = rules._unitary(gates, n)
                want = _per_column_unitary(gates, n)
                assert got.shape == want.shape
                assert np.array_equal(
                    np.ascontiguousarray(got).view(np.int64), want.view(np.int64)
                ), (r.name, n)


def test_lookup():
    assert rule("triangle_contraction").arity == 3
    with pytest.raises(KeyError, match="no rewrite rule named"):
        rule("does_not_exist")


def test_register_rejects_duplicates_and_unsound_rules():
    existing = rule("h_pair_cancellation")
    with pytest.raises(ValueError, match="already registered"):
        register(existing)
    with pytest.raises(AssertionError, match="not a unitary identity"):
        register(RewriteRule(
            "h_is_not_identity", pattern=(Gate("H", (1,)),), replacement=(),
        ))
    assert "h_is_not_identity" not in REGISTRY


def test_zero_slot_rules_claim_only_the_zero_subspace():
    r = rule("cnot_zero_control_elision")
    assert r.zero_slots == frozenset({1})
    # On the full space CX is certainly not the identity, so the claim
    # must be restricted for verify() to succeed.
    unrestricted = RewriteRule(
        "cnot_elision_unrestricted",
        pattern=r.pattern,
        replacement=r.replacement,
    )
    with pytest.raises(AssertionError):
        unrestricted.verify()


def test_instantiate_maps_slots_to_wires():
    r = rule("cz_from_cx_conjugation")
    gates = r.instantiate({1: 4, 2: 7})
    assert gates == (Gate("CX", (7, 4)), Gate("H", (4,)))


def test_gates_commute_is_sound_on_random_pairs():
    # The syntactic predicate may be conservative but must never claim a
    # false commutation; cross-check against the simulator on two qubits.
    rng = np.random.default_rng(3)
    pool = [Gate(k, (q,)) for k in ("H", "S", "X", "Y", "Z") for q in (1, 2)]
    pool += [Gate(k, (c, t)) for k in ("CX", "CY", "CZ")
             for c, t in ((1, 2), (2, 1))]

    def unitary(gates):
        u = np.zeros((4, 4), dtype=complex)
        for col in range(4):
            sv = StateVector.from_label(format(col, "02b"))
            for g in gates:
                apply_gate(sv, g)
            u[:, col] = sv.amps
        return u

    for _ in range(60):
        a, b = rng.choice(len(pool), size=2)
        ga, gb = pool[a], pool[b]
        if gates_commute(ga, gb):
            ua, ub = unitary([ga]), unitary([gb])
            assert np.allclose(ua @ ub, ub @ ua, atol=1e-12), (ga, gb)


def test_known_commutation_calls():
    assert gates_commute(Gate("CX", (1, 2)), Gate("CX", (1, 3)))
    assert gates_commute(Gate("CX", (1, 2)), Gate("CX", (3, 2)))
    assert not gates_commute(Gate("CX", (1, 2)), Gate("CX", (2, 3)))
    assert gates_commute(Gate("CZ", (1, 2)), Gate("CZ", (2, 3)))
    assert gates_commute(Gate("Z", (1,)), Gate("CX", (1, 2)))
    assert not gates_commute(Gate("Z", (2,)), Gate("CX", (1, 2)))
    assert not gates_commute(Gate("H", (1,)), Gate("CX", (1, 2)))


def _reference_local_actions(gate):
    """How ``gate`` acts on each of its qubits: diagonal, X-type, Y-type, or H."""
    kind = gate.kind
    if kind in ("S", "Z"):
        return {gate.q[0]: "diag"}
    if kind in ("X", "Y", "H"):
        return {gate.q[0]: {"X": "x", "Y": "y", "H": "h"}[kind]}
    c, t = gate.q
    if kind == "CZ":
        return {c: "diag", t: "diag"}
    return {c: "diag", t: "x" if kind == "CX" else "y"}


def _reference_gates_commute(a, b):
    """The per-qubit-dict predicate the bit-mask test replaced."""
    la, lb = _reference_local_actions(a), _reference_local_actions(b)
    return all(
        (la[q], lb[q]) in {("diag", "diag"), ("x", "x"), ("y", "y")}
        for q in la.keys() & lb.keys()
    )


def test_gates_commute_matches_the_local_action_predicate():
    gates = [Gate(k, (q,)) for k in ONE_QUBIT_KINDS for q in range(1, 5)]
    gates += [
        Gate(k, (c, t)) for k in TWO_QUBIT_KINDS
        for c in range(1, 5) for t in range(1, 5) if c != t
    ]
    assert len(gates) == 56
    for a in gates:
        for b in gates:
            assert gates_commute(a, b) == _reference_gates_commute(a, b), (a, b)


def test_import_time_check_rejects_a_wrong_predicate(monkeypatch):
    rules._verify_commutation_predicate()
    monkeypatch.setattr(rules, "gates_commute", lambda a, b: True)
    with pytest.raises(AssertionError, match="wrongly passes"):
        rules._verify_commutation_predicate()


@pytest.mark.parametrize("first, second", [("X", "Z"), ("Z", "X")])
def test_import_time_check_names_a_single_wrong_pair(monkeypatch, first, second):
    # X(1) and Z(1) anticommute: a predicate wrong on that one ordered
    # pair out of all the three-qubit pairs must still be caught, in
    # either order.
    commute = rules.gates_commute
    wrong = (Gate(first, (1,)), Gate(second, (1,)))
    monkeypatch.setattr(
        rules, "gates_commute", lambda a, b: (a, b) == wrong or commute(a, b)
    )
    with pytest.raises(
        AssertionError,
        match=rf"wrongly passes {first}\(1\) and {second}\(1\)$",
    ):
        rules._verify_commutation_predicate()
