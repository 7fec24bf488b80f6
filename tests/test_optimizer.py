"""Optimizer pipeline: frozen results per level, equivalence, reporting."""

import json

import numpy as np
import pytest

from conftest import random_code as _random_code
from stabsynth import gf2, optimizer
from stabsynth.circuit import Circuit, Gate, gate_counts, to_json
from stabsynth.encoder import synthesize_encoder
from stabsynth.optimizer import (
    OptimizationError,
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


def test_rejects_unknown_level_and_target(forms):
    encoder = synthesize_encoder(forms["steane"], gate_set="cnot_cz")
    with pytest.raises(ValueError, match="unknown optimization level"):
        optimize(encoder, level="aggressive")
    with pytest.raises(ValueError, match="unknown target gate set"):
        optimize(encoder, target_gates="toffoli")


def test_search_budget_is_checked_at_every_level(forms):
    encoder = synthesize_encoder(forms["steane"], gate_set="cnot_cz")
    for level in ("rules", "full"):
        with pytest.raises(ValueError, match="must be non-negative, got -7"):
            optimize(encoder, level=level, search_budget=-7)


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
