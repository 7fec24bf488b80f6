"""Optimizer pipeline: frozen results per level, equivalence, reporting."""

import copy
import json
import pickle
import time
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_code as _random_code
from stabsynth import gf2, optimizer, simulator
from stabsynth.circuit import Circuit, Gate, gate_counts, to_json
from stabsynth.encoder import synthesize_encoder
from stabsynth.optimizer import (
    OptimizationError,
    OptimizationReport,
    apply_rules,
    frame_from_notes,
    optimize,
)
from stabsynth.simulator import circuits_equivalent

EIGHT_RULES_FIRED = {
    "cz_from_cx_conjugation": 12,
    "gate_commutation_move": 15,
    "port_minimization": 4,
    "triangle_contraction": 2,
}
THIRTEEN_RULES_FIRED = {
    "cz_from_cx_conjugation": 24,
    "fanin_fold": 1,
    "gate_commutation_move": 68,
    "port_minimization": 4,
}


def _composed(circuit, frame):
    return circuit.replace_gates(tuple(circuit.gates) + tuple(frame))


def test_rules_level_eight_qubit(forms):
    encoder = synthesize_encoder(forms["eight_qubit"], gate_set="cnot_cz")
    optimized, report = optimize(encoder, level="rules")
    assert report.counts_after == {"CX": 19, "H": 4}
    assert report.frame == (Gate("Z", (4,)),)
    assert dict(report.rules_fired) == EIGHT_RULES_FIRED
    assert report.blocks_resynthesized == []
    assert circuits_equivalent(_composed(optimized, report.frame), encoder)


def test_retarget_counts_a_swap_only_for_a_cz_on_its_second_qubit():
    for gates, swaps in (
        ([Gate("H", (2,)), Gate("CZ", (1, 2))], 1),
        ([Gate("H", (1,)), Gate("CZ", (1, 2))], 0),
    ):
        fires = optimizer._Fires()
        out = optimizer._pass_retarget(gates, fires)
        assert fires.get("cz_control_target_swap", 0) == swaps
        assert fires["cz_from_cx_conjugation"] == 1
        leg = gates[0].q[0]
        assert out == [Gate("CX", (3 - leg, leg)), Gate("H", (leg,))]


def test_rules_level_steane(forms):
    encoder = synthesize_encoder(forms["steane"], gate_set="cnot_cz")
    optimized, report = optimize(encoder, level="rules")
    assert report.counts_after == {"CX": 10, "H": 3}
    assert report.frame == ()
    assert dict(report.rules_fired) == {"triangle_contraction": 1}
    assert circuits_equivalent(optimized, encoder)


def test_rules_level_thirteen_qubit(forms):
    encoder = synthesize_encoder(forms["thirteen_qubit"], gate_set="cnot_cz")
    optimized, report = optimize(encoder, level="rules")
    assert report.counts_after == {"CX": 41, "H": 5}
    assert report.frame == (Gate("Z", (4,)),)
    assert dict(report.rules_fired) == THIRTEEN_RULES_FIRED


def test_full_level_resynthesizes_the_shaded_block(golden_runs):
    optimized, report, _encoder = golden_runs["eight_qubit"]
    assert report.counts_after == {"CX": 18, "H": 4}
    assert len(report.blocks_resynthesized) == 1
    (block,) = report.blocks_resynthesized
    # The 10-gate region is the shipped witness, not a search hit.
    assert block["method"] == "witness"
    assert block["gates_before"] == 11 and block["gates_after"] == 10
    assert block["deferred_hadamards"] == [3, 4]


def test_optimized_gates_stay_in_target_set(golden_runs):
    for optimized, report, _ in golden_runs.values():
        assert {g.kind for g in optimized.gates} <= {"CX", "H"}
        assert all(g.kind == "Z" for g in report.frame)


def test_frame_survives_in_circuit_notes(golden_runs):
    optimized, report, _ = golden_runs["eight_qubit"]
    assert frame_from_notes(optimized) == report.frame
    assert any(note.startswith("optimized: level=") for note in optimized.notes)


def test_mixed_input_is_lowered_and_preserved(forms):
    encoder = synthesize_encoder(forms["eight_qubit"], gate_set="mixed")
    optimized, report = optimize(encoder, level="rules")
    assert report.counts_after == {"CX": 19, "H": 4}
    assert report.frame == tuple(Gate("Z", (q,)) for q in (1, 2, 3, 4))
    assert circuits_equivalent(_composed(optimized, report.frame), encoder)


def test_report_serializes(golden_runs):
    _, report, _ = golden_runs["eight_qubit"]
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "counts_before", "counts_after", "rules_fired",
        "blocks_resynthesized", "frame",
    }
    assert payload["counts_before"] == {"H": 4, "Z": 1, "CX": 15, "CZ": 12}
    assert payload["frame"] == ["Z(4)"]
    assert pickle.loads(pickle.dumps(report)) == report == copy.deepcopy(report)
    # a mutable record: equal by fields, unhashable, fresh defaults
    small = OptimizationReport(
        {"CX": 2}, {"CX": 1}, {"cx_pair_cancellation": 1}, [],
        (Gate("Z", (2,)),),
    )
    assert small == OptimizationReport(
        {"CX": 2}, {"CX": 1}, {"cx_pair_cancellation": 1}, frame=(Gate("Z", (2,)),)
    )
    assert small != OptimizationReport({"CX": 2}, {"CX": 1})
    with pytest.raises(TypeError):
        hash(small)
    assert repr(small) == (
        "OptimizationReport(counts_before={'CX': 2}, counts_after={'CX': 1}, "
        "rules_fired={'cx_pair_cancellation': 1}, blocks_resynthesized=[], "
        "frame=(Gate(kind='Z', q=(2,)),))"
    )
    a, b = OptimizationReport({}, {}), OptimizationReport({}, {})
    assert a.rules_fired is not b.rules_fired
    assert a.blocks_resynthesized is not b.blocks_resynthesized


def test_rejects_unknown_level_and_target(forms):
    encoder = synthesize_encoder(forms["steane"], gate_set="cnot_cz")
    with pytest.raises(ValueError, match="unknown optimization level"):
        optimize(encoder, level="aggressive")


def test_search_budget_is_checked_at_every_level(forms):
    encoder = synthesize_encoder(forms["steane"], gate_set="cnot_cz")
    for level in ("rules", "full"):
        with pytest.raises(ValueError, match="must be non-negative, got -7"):
            optimize(encoder, level=level, search_budget=-7)


def test_witness_outside_the_register_is_rejected_before_any_pass(forms):
    encoder = synthesize_encoder(forms["steane"], gate_set="cnot_cz")
    with mock.patch.object(optimizer, "_pipeline",
                           side_effect=AssertionError("a pass ran")):
        for level in ("rules", "full"):
            with pytest.raises(ValueError, match=r"block witness 2: "
                               r"CX\(1,99\) acts outside qubits 1..7"):
                optimize(encoder, level=level,
                         block_witnesses=[[(1, 2)], [(2, 3), (1, 99)]])
            with pytest.raises(ValueError, match="block witness 1: CX "
                               "control equals target"):
                optimize(encoder, level=level, block_witnesses=[[(3, 3)]])


@pytest.mark.parametrize("n", [simulator.MAX_QUBITS + 1, 40])
def test_past_the_dense_limit_no_pass_runs(n):
    # The final proof holds dense states, so a circuit it cannot prove is
    # refused before the first pass, with the limit's own message.
    circuit = Circuit(
        n=n, gates=(Gate("CX", (1, 2)),),
        roles=("logical_input",) + ("ancilla_zero",) * (n - 1),
    )
    message = (
        f"^{n} qubits exceed the dense simulator's limit of "
        f"{simulator.MAX_QUBITS}$"
    )
    with mock.patch.object(optimizer, "_pipeline",
                           side_effect=AssertionError("a pass ran")):
        for level in ("rules", "full"):
            with pytest.raises(simulator.DenseLimitError, match=message):
                optimize(circuit, level=level)


def test_firing_an_unregistered_rule_raises():
    with pytest.raises(KeyError, match="firing unregistered rule 'no_such_rule'"):
        optimizer._Fires().hit("no_such_rule")


def test_a_pass_that_adds_a_two_qubit_gate_is_caught(monkeypatch):
    # A pass after the baseline count that appends a CX: optimize stops
    # at its gate-count guard, before the proof.
    fold = optimizer._pass_fold
    monkeypatch.setattr(
        optimizer, "_pass_fold",
        lambda gates, circuit, fires: [
            *fold(gates, circuit, fires), Gate("CX", (1, 2))
        ],
    )
    circuit = Circuit(
        n=2, gates=(Gate("H", (1,)), Gate("CX", (1, 2))),
        roles=("logical_input", "ancilla_zero"),
    )
    with mock.patch.object(simulator, "circuits_equivalent",
                           side_effect=AssertionError("the proof ran")):
        with pytest.raises(OptimizationError, match="increased the two-qubit "
                           "gate count past the retargeted baseline"):
            optimize(circuit)


def test_report_names_the_source_of_each_region():
    # An 8-gate CX block the rewrite passes leave alone: its Gaussian
    # circuit has 6 gates, the search finds 3.
    pairs = [(2, 1), (3, 2), (2, 1), (2, 3), (1, 2), (3, 1), (1, 2), (2, 3)]
    circuit = Circuit(
        n=3, gates=tuple(Gate("CX", q) for q in pairs),
        roles=("logical_input",) * 3,
    )
    _, report = optimize(circuit, level="full", search_budget=0)
    (block,) = report.blocks_resynthesized
    assert (block["method"], block["gates_after"]) == ("gaussian", 6)
    _, report = optimize(circuit, level="full", search_budget=1000)
    (block,) = report.blocks_resynthesized
    assert (block["method"], block["gates_after"]) == ("search", 3)


def test_witness_with_wrong_matrix_is_rejected(forms):
    encoder = synthesize_encoder(forms["eight_qubit"], gate_set="cnot_cz")
    bogus = [[(1, 2), (1, 2), (1, 2)]]
    optimized, report = optimize(
        encoder, level="full", search_budget=500, block_witnesses=bogus
    )
    # A witness that matches no block is simply never used; the result
    # stays correct and no worse than the rules level.
    assert report.counts_after["CX"] <= 19
    assert circuits_equivalent(_composed(optimized, report.frame), encoder)


@pytest.mark.parametrize("moved", [1, 2])
def test_ports_tries_each_position_where_a_label_changes(moved):
    # Wire 3 is fed e1 ^ e2 by two CX gates; only after the third gate
    # does one wire carry e1 ^ e2, so that last position must be solved
    # even though just one of the other wires changed there.
    other = 3 - moved
    gates = (Gate("CX", (1, 3)), Gate("CX", (2, 3)),
             Gate("CX", (other, moved)), Gate("H", (3,)))
    encoder = Circuit(3, gates, ("logical_input",) * 2 + ("ancilla_zero",))
    optimized, report = optimize(encoder, level="rules")
    assert optimized.gates == (gates[2], Gate("CX", (moved, 3)), gates[3])
    assert report.rules_fired == {"port_minimization": 1}


def _rules_outcome(encoder):
    optimized, report = optimize(encoder, level="rules")
    return to_json(optimized) + report.to_json(), report.rules_fired.get(
        "port_minimization", 0
    )


def test_port_prunes_are_exact(forms, monkeypatch):
    rng = np.random.default_rng(20261018)
    sfs = [forms["steane"], forms["thirteen_qubit"]] + [
        _random_code(rng, n, int(rng.integers(1, 4))).standard_form()
        for n in (5, 6, 6, 7, 7, 8, 8, 9, 9, 9)
    ]
    encoders = [synthesize_encoder(sf, gate_set="cnot_cz") for sf in sfs]
    shipped = [_rules_outcome(e) for e in encoders]
    monkeypatch.setattr(
        optimizer, "min_weight_solution",
        lambda columns, target, max_weight=None:
            gf2.min_weight_solution(columns, target),
    )
    uncapped = [_rules_outcome(e) for e in encoders]
    assert shipped == uncapped
    assert sum(fired for _out, fired in shipped) >= 10


def test_apply_rules_is_optimize_with_its_frame(forms):
    # Encoder-shaped inputs only: the rules level proves every one.
    rng = np.random.default_rng(4)
    sfs = list(forms.values()) + [
        _random_code(rng, n, int(rng.integers(1, 3))).standard_form()
        for n in (5, 6, 7, 8)
    ]
    for sf in sfs:
        for gate_set in ("mixed", "cnot_cz"):
            encoder = synthesize_encoder(sf, gate_set=gate_set)
            rewritten = apply_rules(encoder)
            optimized, report = optimize(encoder, level="rules")
            assert rewritten.gates == optimized.gates + report.frame
            assert circuits_equivalent(
                rewritten, encoder, up_to_global_phase=False
            )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, min(3, n - 1)))
    ),
)
def test_optimize_proves_random_encoders(seed, shape):
    # Both gate sets, both levels; "full" with a small search budget.
    n, k = shape
    sf = _random_code(np.random.default_rng(seed), n, k).standard_form()
    for gate_set in ("mixed", "cnot_cz"):
        encoder = synthesize_encoder(sf, gate_set=gate_set)
        for level in ("rules", "full"):
            optimized, report = optimize(
                encoder, level=level, search_budget=100
            )
            assert circuits_equivalent(
                _composed(optimized, report.frame), encoder,
                up_to_global_phase=False,
            )


def test_ports_keeps_feeders_behind_an_earlier_read():
    # Reduced from a random Clifford circuit.  After retarget, wire 2 is
    # fed by CX(1,2) and CX(4,2) with reads of wire 2 (CX(2,3), S(2))
    # before them; a port placed ahead of those reads changes what they
    # see, and the final proof used to fail.
    circuit = Circuit(
        n=4,
        gates=tuple(Gate(k, q) for k, q in [
            ("CX", (2, 1)), ("CY", (2, 3)), ("CY", (1, 4)), ("H", (2,)),
            ("CZ", (2, 1)), ("CY", (4, 2)),
        ]),
        roles=("ancilla_zero", "logical_input") * 2,
    )
    optimized, report = optimize(circuit, level="rules")
    assert circuits_equivalent(
        _composed(optimized, report.frame), circuit, up_to_global_phase=False
    )


# The two gate alphabets of the benchmark's rewrite workload.
_ALPHABETS = (
    ("H", "S", "X", "Y", "Z", "CX", "CY", "CZ"),
    ("H", "S", "Z", "CX", "CY", "CZ"),
)


def _random_clifford(rng, n, n_gates, alphabet):
    """A random circuit over ``alphabet`` with 2 or 3 logical inputs."""
    logical = set(rng.choice(n, size=int(rng.integers(2, 4)), replace=False))
    roles = tuple(
        "logical_input" if q in logical else "ancilla_zero" for q in range(n)
    )
    gates = []
    for _ in range(n_gates):
        kind = alphabet[int(rng.integers(len(alphabet)))]
        if kind.startswith("C"):
            q = tuple(int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        else:
            q = (int(rng.integers(n)) + 1,)
        gates.append(Gate(kind, q))
    return Circuit(n=n, gates=tuple(gates), roles=roles)


def test_rules_level_proves_random_clifford_circuits():
    # Both gate alphabets; circuits not shaped like an encoder exercise
    # reads between a wire's feeders.
    rng = np.random.default_rng(20261019)
    for k in range(60):
        circuit = _random_clifford(
            rng, int(rng.integers(4, 8)), int(rng.integers(20, 100)),
            _ALPHABETS[k % 2],
        )
        # optimize raises OptimizationError unless its strict proof holds.
        optimize(circuit, level="rules")


def test_ports_fire_across_an_x_or_y():
    # X and Y give their wire a fresh label, like H, so one of them no
    # longer hides the circuit from ports: CX(2,3) after CX(1,2) delivers
    # the same value as CX(1,3) CX(2,3).
    for kind in ("X", "Y"):
        circuit = Circuit(
            n=3,
            gates=(
                Gate(kind, (1,)), Gate("CX", (1, 3)), Gate("CX", (2, 3)),
                Gate("CX", (1, 2)), Gate("H", (3,)),
            ),
            roles=("logical_input", "logical_input", "ancilla_zero"),
        )
        optimized, report = optimize(circuit, level="rules")
        assert dict(report.rules_fired) == {"port_minimization": 1}
        assert [str(g) for g in optimized.gates] == [
            f"{kind}(1)", "CX(1,2)", "CX(2,3)", "H(3)",
        ]
        assert report.frame == ()
        assert circuits_equivalent(optimized, circuit, up_to_global_phase=False)


def _reference_fold(gates, circuit, fires):
    """The fold that tries every subset of every wire's CX fan-in."""
    n = circuit.n
    out = list(gates)
    while True:
        flow = optimizer._dataflow(out, circuit.roles)
        if flow is None:
            return out
        snapshots = flow[0]
        reads = {q: [] for q in range(1, n + 1)}
        adds = {q: [] for q in range(1, n + 1)}
        for p, g in enumerate(out):
            if g.kind == "CX":
                reads[g.q[0]].append(p)
                adds[g.q[1]].append(p)
            else:
                for q in g.q:
                    reads[q].append(p)

        best = None
        for t in range(1, n + 1):
            pos = adds[t]
            if len(pos) < 3:
                continue
            for size in range(len(pos), 2, -1):
                for subset in combinations(pos, size):
                    lo, hi = subset[0], subset[-1]
                    if any(lo < r < hi for r in reads[t]):
                        continue
                    delta = 0
                    for p in subset:
                        delta ^= snapshots[p][out[p].q[0]]
                    i_min = max(
                        (r for r in reads[t] if r < lo), default=-1
                    ) + 1
                    j_max = min(
                        (r for r in reads[t] if r > hi), default=len(out)
                    )
                    for i in range(lo, i_min - 1, -1):
                        for j in range(hi + 1, j_max + 1):
                            if delta == 0:
                                key = (-size, t, subset, 0, 0, 0)
                                if best is None or key < best:
                                    best = key
                                break
                            for s in range(1, n + 1):
                                if s == t:
                                    continue
                                if snapshots[i][s] ^ snapshots[j][s] != delta:
                                    continue
                                key = (
                                    -(size - 2), t, subset,
                                    lo - i, j - hi - 1, s,
                                )
                                if best is None or key < best:
                                    best = key
                        if delta == 0:
                            break
        if best is None:
            return out
        neg_gain, t, subset, di, dj, s = best
        members = set(subset)
        i = subset[0] - di
        j = subset[-1] + 1 + dj
        rebuilt = []
        for k, g in enumerate(out):
            if k == i and neg_gain != -len(subset):
                rebuilt.append(Gate("CX", (s, t)))
            if k == j and neg_gain != -len(subset):
                rebuilt.append(Gate("CX", (s, t)))
            if k not in members:
                rebuilt.append(g)
        if j == len(out) and neg_gain != -len(subset):
            rebuilt.append(Gate("CX", (s, t)))
        out = rebuilt
        fires.hit("fanin_fold")


def _fold_steps(fold, gates, circuit):
    """The gate lists ``fold`` goes through, and its firing count."""
    steps = []
    dataflow = optimizer._dataflow

    def spy(out, roles):
        steps.append(list(out))
        return dataflow(out, roles)

    fires = optimizer._Fires()
    with mock.patch.object(optimizer, "_dataflow", spy):
        steps.append(fold(gates, circuit, fires))
    return steps, fires.get("fanin_fold", 0)


def _fan_in(rng, n, m):
    """Wire n fed m times from the other wires, which CX and H mix between."""
    gates = []
    for _ in range(m):
        gates.append(Gate("CX", (int(rng.integers(1, n)), n)))
        a, b = (int(v) + 1 for v in rng.choice(n - 1, size=2, replace=False))
        gates.append(
            Gate("CX", (a, b)) if rng.integers(2) else Gate("H", (a,))
        )
    roles = ("logical_input",) * (n - 1) + ("ancilla_zero",)
    return Circuit(n, tuple(gates), roles)


def _first_gain(steps):
    return len(steps[0]) - len(steps[1])


def test_fold_matches_the_subset_reference(forms, monkeypatch):
    # What the pipeline hands the fold for shipped and seeded random
    # encoders folds exactly as the reference folds it.  On single-wire
    # fan-ins, where equal deliveries make drop sets tie, the first fold
    # must still have the reference's gain.
    seen = []
    fold = optimizer._pass_fold

    def record(gates, circuit, fires):
        seen.append((list(gates), circuit))
        return fold(gates, circuit, fires)

    monkeypatch.setattr(optimizer, "_pass_fold", record)
    rng = np.random.default_rng(20261020)
    sfs = list(forms.values()) + [
        _random_code(rng, n, int(rng.integers(1, 4))).standard_form()
        for n in (5, 6, 7, 8, 9, 10)
    ]
    for sf in sfs:
        for gate_set in ("mixed", "cnot_cz"):
            apply_rules(synthesize_encoder(sf, gate_set=gate_set))
    monkeypatch.undo()
    fired = 0
    for gates, circuit in seen:
        got, count = _fold_steps(fold, gates, circuit)
        want, want_count = _fold_steps(_reference_fold, gates, circuit)
        assert (got[-1], count) == (want[-1], want_count)
        fired += count
    assert fired >= 1

    for m in range(3, 15):
        circuit = _fan_in(rng, 8, m)
        got, _ = _fold_steps(fold, circuit.gates, circuit)
        want, _ = _fold_steps(_reference_fold, circuit.gates, circuit)
        assert _first_gain(got) == _first_gain(want)


_FOLD_GATES = st.one_of(
    st.tuples(
        st.just("CX"), st.permutations(range(1, 6)).map(lambda p: p[:2])
    ),
    st.tuples(
        st.sampled_from(["H", "S"]), st.integers(1, 5).map(lambda q: (q,))
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_FOLD_GATES, max_size=24),
    st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_fold_first_gain_is_the_reference_maximum(gates, logical):
    roles = tuple("logical_input" if b else "ancilla_zero" for b in logical)
    circuit = Circuit(5, tuple(Gate(k, q) for k, q in gates), roles)
    got, _ = _fold_steps(optimizer._pass_fold, circuit.gates, circuit)
    want, _ = _fold_steps(_reference_fold, circuit.gates, circuit)
    assert _first_gain(got) == _first_gain(want)
    assert circuits_equivalent(
        circuit.replace_gates(got[-1]), circuit, up_to_global_phase=False
    )


def test_fold_clears_a_thirty_fold_fan_in():
    circuit = _fan_in(np.random.default_rng(0), 8, 30)
    start = time.perf_counter()
    out = optimizer._pass_fold(circuit.gates, circuit, optimizer._Fires())
    assert time.perf_counter() - start < 2
    assert len(out) < len(circuit.gates)
    assert circuits_equivalent(
        circuit.replace_gates(out), circuit, up_to_global_phase=False
    )


# ---------------------------------------------------------------------------
# cancel and frame passes against their restart-from-0 references


def _reference_cancel(gates, fires):
    """``_pass_cancel`` as a fixed point that rescans from 0 after each firing."""
    out = list(gates)
    changed = True
    while changed:
        changed = False
        for i in range(len(out)):
            g = out[i]
            if g.kind not in optimizer._PAIR_RULE:
                continue
            for j in range(i + 1, len(out)):
                if out[j] == g:
                    del out[j]
                    out[i:i + 1] = fires.apply(optimizer._PAIR_RULE[g.kind], *g.q)
                    changed = True
                    break
                if not optimizer.gates_commute(g, out[j]):
                    break
            if changed:
                break
    return out


def _reference_collect_frame(gates, fires):
    """``_pass_collect_frame`` as a fixed point that rescans from 0."""
    out = list(gates)
    powers = {}
    moved = True
    while moved:
        moved = False
        for i, g in enumerate(out):
            if g.kind not in ("S", "Z"):
                continue
            if all(optimizer.gates_commute(g, later) for later in out[i + 1:]):
                powers[g.q[0]] = (
                    powers.get(g.q[0], 0) + (1 if g.kind == "S" else 2)
                ) % 4
                if i + 1 < len(out):
                    fires.hit("gate_commutation_move", len(out) - i - 1)
                del out[i]
                moved = True
                break
    frame = []
    for q in sorted(powers):
        if powers[q] >= 2:
            frame.append(Gate("Z", (q,)))
        if powers[q] % 2:
            frame.append(Gate("S", (q,)))
    return out, tuple(frame)


def _random_gates(rng, n, size, alphabet):
    """Random gates, three in ten a repeat of one of the last four."""
    gates = []
    for _ in range(size):
        if gates and rng.random() < 0.3:
            gates.append(gates[-1 - int(rng.integers(min(4, len(gates))))])
        else:
            kind = str(alphabet[int(rng.integers(len(alphabet)))])
            width = 2 if kind.startswith("C") else 1
            q = (int(v) + 1 for v in rng.choice(n, size=width, replace=False))
            gates.append(Gate(kind, tuple(q)))
    return gates


def _cancel_then_frame(cancel, collect_frame, gates):
    fires = optimizer._Fires()
    kept = cancel(gates, fires)
    return kept, collect_frame(kept, fires), dict(fires)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 8), st.sampled_from(_ALPHABETS), st.integers(0, 160),
    st.integers(0, 2**32 - 1),
)
def test_cancel_and_frame_match_their_rescan_references(n, alphabet, size, seed):
    gates = _random_gates(np.random.default_rng(seed), n, size, alphabet)
    got = _cancel_then_frame(
        optimizer._pass_cancel, optimizer._pass_collect_frame, gates
    )
    want = _cancel_then_frame(_reference_cancel, _reference_collect_frame, gates)
    assert got == want


def test_cancel_and_frame_commutation_tests_stay_few(monkeypatch):
    # A timing-free guard on the resumed scans: on this 160-gate circuit
    # they make 463 commutation tests, the rescans from 0 make 9,790.
    # On the CX-only circuit below, with four contractions, the resumed
    # triangles pass makes 612; restarting from 0 after each contraction,
    # with the same mask test, makes 1,886.
    calls = 0
    commute = optimizer.gates_commute

    def counting(a, b):
        nonlocal calls
        calls += 1
        return commute(a, b)

    monkeypatch.setattr(optimizer, "gates_commute", counting)
    gates = _random_gates(np.random.default_rng(5), 8, 160, _ALPHABETS[0])
    _cancel_then_frame(
        optimizer._pass_cancel, optimizer._pass_collect_frame, gates
    )
    assert calls <= 3000
    calls = 0
    cx_only = _random_gates(np.random.default_rng(5), 5, 160, ("CX",))
    assert _run_pass(optimizer._pass_triangles, cx_only)[1] == {
        "triangle_contraction": 4
    }
    assert calls <= 1000


# ---------------------------------------------------------------------------
# _bubble_singles against the swap-until-nothing-moves loop it replaced


def _reference_bubble_singles(gates):
    out = list(gates)
    moved = True
    while moved:
        moved = False
        for i in range(1, len(out)):
            g, prev = out[i], out[i - 1]
            if (len(g.q) == 1 and len(prev.q) == 2
                    and optimizer.gates_commute(prev, g)):
                out[i - 1], out[i] = g, prev
                moved = True
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 8), st.sampled_from(_ALPHABETS), st.integers(0, 120),
    st.integers(0, 2**32 - 1),
)
def test_bubble_singles_matches_the_swap_loop(n, alphabet, size, seed):
    gates = _random_gates(np.random.default_rng(seed), n, size, alphabet)
    assert optimizer._bubble_singles(gates) == _reference_bubble_singles(gates)


# ---------------------------------------------------------------------------
# retarget and triangle passes against their copies that test every gate


def _reference_retarget(gates, fires):
    """``_pass_retarget`` calling ``gates_commute`` on every gate it passes."""
    out = []
    for g in gates:
        if g.kind == "CY":
            out += fires.apply("cy_to_cz_cx_s", *g.q)
        else:
            out.append(g)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(out):
            g = out[i]
            if g.kind != "CZ":
                i += 1
                continue
            j = i
            while j > 0:
                prev = out[j - 1]
                if prev.kind == "H" and prev.q[0] in g.q:
                    leg = prev.q[0]
                    other = g.q[0] if g.q[1] == leg else g.q[1]
                    if g.q[1] == leg:
                        fires.hit("cz_control_target_swap")
                    out[j - 1:j + 1] = fires.apply(
                        "cz_from_cx_conjugation", leg, other
                    )
                    changed = True
                    break
                if optimizer.gates_commute(prev, g):
                    out[j - 1], out[j] = g, prev
                    fires.hit("gate_commutation_move")
                    j -= 1
                    continue
                break
            i += 1
    expanded = []
    for g in out:
        if g.kind == "CZ":
            expanded += fires.apply("cz_via_hadamards", *g.q)
        else:
            expanded.append(g)
    return expanded


def _reference_triangles(gates, fires):
    """``_pass_triangles`` calling ``gates_commute`` on every gate it passes."""
    out = list(gates)
    changed = True
    while changed:
        changed = False
        for k in range(len(out)):
            g3 = out[k]
            if g3.kind != "CX":
                continue
            a, b = g3.q
            j = k - 1
            while j >= 0:
                g2 = out[j]
                if g2.kind == "CX" and g2.q[0] == a and g2.q[1] != b:
                    c = g2.q[1]
                    want = Gate("CX", (b, c))
                    i = j - 1
                    while i >= 0:
                        g1 = out[i]
                        if g1 == want:
                            out[i:k + 1] = out[i + 1:j] + fires.apply(
                                "triangle_contraction", a, b, c
                            ) + out[j + 1:k]
                            changed = True
                            break
                        if not optimizer.gates_commute(g1, want):
                            break
                        i -= 1
                    if changed:
                        break
                if not optimizer.gates_commute(g2, g3):
                    break
                j -= 1
            if changed:
                break
    return out


def _run_pass(fn, gates):
    fires = optimizer._Fires()
    return fn(gates, fires), dict(fires)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 8), st.integers(0, 120), st.integers(0, 2**32 - 1),
)
def test_retarget_and_triangles_match_their_every_gate_copies(n, size, seed):
    gates = _random_gates(np.random.default_rng(seed), n, size, _ALPHABETS[0])
    for fn, reference in (
        (optimizer._pass_retarget, _reference_retarget),
        (optimizer._pass_triangles, _reference_triangles),
    ):
        assert _run_pass(fn, gates) == _run_pass(reference, gates)
    # Triangles fire mostly on CX-only circuits.
    cx_only = _random_gates(np.random.default_rng(seed), n, size, ("CX",))
    got = _run_pass(optimizer._pass_triangles, cx_only)
    assert got == _run_pass(_reference_triangles, cx_only)


def test_retarget_and_triangles_test_commutation_only_on_shared_qubits(
    monkeypatch,
):
    commute = optimizer.gates_commute

    def shared_only(a, b):
        assert set(a.q) & set(b.q), (a, b)
        return commute(a, b)

    monkeypatch.setattr(optimizer, "gates_commute", shared_only)
    rng = np.random.default_rng(3)
    for alphabet in (_ALPHABETS[0], ("CX",)):
        gates = _random_gates(rng, 8, 160, alphabet)
        fires = optimizer._Fires()
        optimizer._pass_triangles(optimizer._pass_retarget(gates, fires), fires)
