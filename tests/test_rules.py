"""Rewrite-rule registry: soundness guard, lookup, commutation predicate."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from stabsynth import rules, stabilizer
from stabsynth.circuit import ONE_QUBIT_KINDS, TWO_QUBIT_KINDS, Circuit, Gate
from stabsynth.stabilizer import conjugate_rows
from stabsynth.rules import REGISTRY, RewriteRule, gates_commute, register, rule
from stabsynth.simulator import StateVector, apply_gate, circuits_equivalent
from stabsynth.stabilizer import same_on


def test_registry_holds_verified_rules():
    assert len(REGISTRY) >= 16
    for name, r in REGISTRY.items():
        assert r.name == name
        r.verify()  # exact unitary identity, no tolerance slack


def test_register_rejects_a_global_phase_error():
    # X·Z·X·Z is -I: equal to the identity up to a global phase only.
    xzxz = tuple(Gate(k, (1,)) for k in "XZXZ")
    with pytest.raises(AssertionError, match="not a unitary identity"):
        register(RewriteRule("xzxz_is_minus_identity", xzxz, ()))
    assert "xzxz_is_minus_identity" not in REGISTRY
    # Twice that is the identity, and passes.
    RewriteRule("xzxz_twice", xzxz * 2, ()).verify()


# ---------------------------------------------------------------------------
# same_on, the exact equality test behind every rule proof, against the
# dense simulator


def _inverse(gates):
    """C† for the gate list C: reversed, with S† written as S·S·S."""
    out = []
    for g in reversed(gates):
        out += [g] * (3 if g.kind == "S" else 1)
    return out


@st.composite
def _gate_lists(draw, n, max_size):
    """Up to ``max_size`` gates of all eight kinds on qubits 1..n."""
    kinds = ONE_QUBIT_KINDS + (TWO_QUBIT_KINDS if n > 1 else ())
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_size)):
        if kind in TWO_QUBIT_KINDS:
            q = draw(st.permutations(range(1, n + 1)))[:2]
        else:
            q = (draw(st.integers(1, n)),)
        gates.append(Gate(kind, tuple(q)))
    return gates


@st.composite
def _same_on_cases(draw):
    """(lhs, rhs, n, zero): a random pair, or U·M·U⁻¹ against nothing."""
    n = draw(st.integers(1, 4))
    zero = draw(st.integers(0, 2**n - 1))
    if draw(st.booleans()):
        lhs, rhs = draw(_gate_lists(n, 6)), draw(_gate_lists(n, 6))
    else:
        u = draw(_gate_lists(n, 8))
        m = draw(st.sampled_from([[], *(
            [Gate(k, (q,))] for k in "XYZ" for q in range(1, n + 1)
        )]))
        lhs, rhs = u + m + _inverse(u), []
        if draw(st.booleans()):
            lhs, rhs = rhs, lhs
    return lhs, rhs, n, zero


@settings(max_examples=300, deadline=None)
@given(_same_on_cases())
def test_same_on_matches_the_dense_reference(case):
    lhs, rhs, n, zero = case
    roles = [
        "ancilla_zero" if zero >> n - q & 1 else "logical_input"
        for q in range(1, n + 1)
    ]
    want = circuits_equivalent(
        Circuit(n, lhs, roles), Circuit(n, rhs, roles),
        "ancilla_restricted" if zero else "full",
        up_to_global_phase=False,
    )
    event(f"same: {want}")
    assert same_on(lhs, rhs, n, zero) == want


def test_same_on_named_cases():
    h, s = Gate("H", (1,)), Gate("S", (1,))
    assert same_on((h, h), (), 1)
    assert not same_on((h,), (), 1)
    # X·Z·X·Z is -I and (H·S)^3 is e^(iπ/4)·I: right up to a global phase
    # only.  (H·S)^24 is I.
    xzxz = [Gate(k, (1,)) for k in "XZXZ"]
    assert not same_on(xzxz, (), 1)
    assert not same_on((h, s) * 3, (), 1)
    one = Circuit(1, (h, s) * 3, ("logical_input",))
    assert circuits_equivalent(one, one.replace_gates(()), "full")
    assert same_on((h, s) * 24, (), 1)
    # CZ(1, 2) keeps |00> and conjugates X_1 to X_1·Z_2: only the Z-part
    # condition rejects it, and a zero qubit 2 lets it pass.
    cz = [Gate("CZ", (1, 2))]
    assert stabilizer.zero_amplitude(cz, 2) == (0, 0, 0)
    assert conjugate_rows([(0b10, 0, 0)], cz, 2) == [(0b10, 0b01, 0)]
    assert not same_on(cz, (), 2)
    assert same_on(cz, (), 2, zero=0b01)
    # A CX on a zero control is nothing; on a zero target it is not.
    r = rule("cnot_zero_control_elision")
    assert same_on(r.pattern, r.replacement, 2, zero=0b10)
    moved = RewriteRule(
        "cnot_zero_target_elision", r.pattern, r.replacement, frozenset({2}),
    )
    with pytest.raises(AssertionError, match="not a unitary identity"):
        moved.verify()
    # Every registered rule holds under the dense simulator as well.
    for r in REGISTRY.values():
        roles = [
            "ancilla_zero" if q in r.zero_slots else "logical_input"
            for q in range(1, r.arity + 1)
        ]
        assert circuits_equivalent(
            Circuit(r.arity, r.pattern, roles),
            Circuit(r.arity, r.replacement, roles),
            "ancilla_restricted", up_to_global_phase=False,
        ), r.name


def test_lookup():
    assert rule("triangle_contraction").arity == 3
    with pytest.raises(KeyError, match="no rewrite rule named"):
        rule("does_not_exist")
    r = rule("cz_zero_leg_elision")
    twin = RewriteRule(r.name, r.pattern, r.replacement, frozenset({1}))
    assert twin == r and hash(twin) == hash(r)
    assert RewriteRule(r.name, r.pattern, r.replacement) != r
    assert repr(r) == (
        "RewriteRule(name='cz_zero_leg_elision', pattern=(Gate(kind='CZ', "
        "q=(1, 2)),), replacement=(), zero_slots=frozenset({1}))"
    )
    assert pickle.loads(pickle.dumps(r)) == r == copy.deepcopy(r)
    with pytest.raises(AttributeError):
        r.zero_slots = frozenset()


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
