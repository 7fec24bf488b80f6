"""Rule-driven circuit optimization with exact equivalence checking.

The pipeline rewrites an encoder circuit toward the {H, CX} gate set and
shrinks its CNOT count in several passes:

1. retarget   — controlled-Y gates are expanded exactly into CZ + CX + S,
                and every CZ slides left until it merges with a Hadamard
                (becoming a CX) or, failing that, is expanded with a
                Hadamard pair.
2. strip      — gates that provably act on |0> wires are elided.
3. cancel     — adjacent involutive pairs (modulo commuting interleavers)
                cancel, and S pairs merge into Z.
4. frame      — diagonal Pauli gates that commute to the end of the
                circuit are collected into a trailing "Pauli frame".
5. ports      — for each Hadamard, the CX gates feeding its wire since
                the wire was last read are re-realised as a minimum-weight
                combination of the labels carried by the other wires.
6. triangles  — the CNOT-distribution identity applied in reverse
                contracts triple patterns to two gates.
7. fold       — CX gates feeding a wire between two of its reads
                collapse to two gates bracketing a span when another
                wire's change across that span is their GF(2) sum.

``apply_rules`` runs the passes and returns a self-contained circuit (the
frame stays in the gate list).  ``optimize`` additionally resynthesizes
extracted CNOT blocks at ``level="full"``, splits the frame into the
report, and re-simulates the result against the input — a mismatch is a
hard error, never a silent fallback.

Window rewrites are applied from the registry: each replacement is
instantiated from a registered, registration-verified rule of
:mod:`stabsynth.rules`.  The strip pass is the encoder's proven-|0> scan
(:func:`stabsynth.encoder.scan_trivial_gates`); gate moves and the two
dataflow passes (ports, fold), which rest on exact GF(2) label algebra,
have no rule template and are covered by the final equivalence proof.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass, field

from .circuit import Circuit, Gate, gate_counts
from .encoder import scan_trivial_gates
from .gf2 import min_weight_solution
from .linear import (
    DEFAULT_SEARCH_BUDGET,
    block_to_matrix,
    care_mask,
    gaussian_ops,
    search_ops,
)
from .rules import REGISTRY, gates_commute
from .simulator import circuits_equivalent

__all__ = [
    "OptimizationError",
    "OptimizationReport",
    "apply_rules",
    "frame_from_notes",
    "optimize",
]

LEVELS = ("rules", "full")

_FRAME_NOTE = re.compile(r"^pauli frame: (.+)$")


class OptimizationError(RuntimeError):
    """The optimizer's internal equivalence check failed."""


@dataclass
class OptimizationReport:
    """What the optimizer did: gate counts, rule firings, block rewrites."""

    counts_before: dict[str, int]
    counts_after: dict[str, int]
    rules_fired: dict[str, int] = field(default_factory=dict)
    blocks_resynthesized: list[dict] = field(default_factory=list)
    frame: tuple[Gate, ...] = ()

    def to_json(self) -> str:
        payload = {
            "counts_before": self.counts_before,
            "counts_after": self.counts_after,
            "rules_fired": dict(sorted(self.rules_fired.items())),
            "blocks_resynthesized": self.blocks_resynthesized,
            "frame": [str(g) for g in self.frame],
        }
        return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# passes

# Firings that are not window rewrites: gate moves and the two dataflow
# passes.  They have no registered template; the final equivalence proof
# in ``optimize`` covers them.
_UNTEMPLATED = ("gate_commutation_move", "port_minimization", "fanin_fold")


class _Fires(dict):
    def hit(self, name: str, times: int = 1) -> None:
        if name not in REGISTRY and name not in _UNTEMPLATED:
            raise KeyError(f"firing unregistered rule {name!r}")
        self[name] = self.get(name, 0) + times

    def apply(self, name: str, *wires: int) -> list[Gate]:
        """Count rule ``name`` and return its replacement, slot i on wires[i-1]."""
        self.hit(name)
        return list(REGISTRY[name].instantiate(dict(enumerate(wires, start=1))))


def _pass_strip(gates, circuit, fires):
    """Drop gates that provably act trivially on |0> wires."""
    kept, dropped = scan_trivial_gates(gates, circuit.roles)
    for name in dropped:
        fires.hit(name)
    return kept


def _walk(gates, g, j, step, stop=None):
    """First index from ``j``, moving by ``step`` (±1), that stops ``g``.

    A gate stops the walk if it is ``stop`` or ``g`` does not commute with
    it; a gate that shares no qubit with ``g`` commutes, so one mask test
    steps past it before any ``gates_commute`` call.  Returns -1 or
    ``len(gates)`` when the walk runs off the list.
    """
    end = len(gates) if step > 0 else -1
    m = g.support
    while j != end:
        h = gates[j]
        if h is stop or h.support & m and not gates_commute(g, h):
            return j
        j += step
    return end


def _pass_retarget(gates, fires):
    """Expand CY gates and eliminate CZ gates in favour of CX and H.

    Each CZ walks left (:func:`_walk`) past the gates it commutes with and
    merges into CX if it stops at a Hadamard on one of its qubits.  Sweeps
    repeat until one merges nothing; a later sweep may move a CZ again,
    and every move counts as one ``gate_commutation_move``.
    """
    out = []
    for g in gates:
        if g.kind == "CY":
            out += fires.apply("cy_to_cz_cx_s", *g.q)
        else:
            out.append(g)

    merged = True
    while merged:
        merged = False
        for i in range(len(out)):
            g = out[i]
            if g.kind != "CZ":
                continue
            j = _walk(out, g, i - 1, -1)
            if j + 1 < i:
                out[j + 1:i + 1] = [g, *out[j + 1:i]]
                fires.hit("gate_commutation_move", i - j - 1)
            if j >= 0 and out[j].kind == "H":  # it shares a qubit with g
                leg = out[j].q[0]
                other = g.q[0] if g.q[1] == leg else g.q[1]
                if g.q[1] == leg:
                    fires.hit("cz_control_target_swap")
                out[j:j + 2] = fires.apply(
                    "cz_from_cx_conjugation", leg, other
                )
                merged = True

    # Any CZ still present cannot reach a Hadamard: expand it with its own.
    expanded = []
    for g in out:
        if g.kind == "CZ":
            expanded += fires.apply("cz_via_hadamards", *g.q)
        else:
            expanded.append(g)
    return expanded


_PAIR_RULE = {
    "H": "h_pair_cancellation",
    "CX": "cx_pair_cancellation",
    "CZ": "cz_pair_cancellation",
    "Z": "z_pair_cancellation",
    "S": "s_pair_merge",
}


def _resume(reach: list[int], i: int) -> int:
    """Where a left-to-right rescan must restart after a change at ``i``.

    ``reach[p]`` is the last index the scan from position ``p`` read.  A
    scan that stopped before ``i`` read nothing that changed, so it would
    end the same way again: the rescan restarts at the first position
    whose scan reached ``i``, and the records from there on are dropped.
    """
    p = next((p for p, r in enumerate(reach) if r >= i), i)
    del reach[p:]
    return p


def _pass_cancel(gates, fires):
    """Cancel equal involutive pairs and merge S pairs, modulo commuters.

    Each position walks right (:func:`_walk`) for its partner.  The first
    position whose walk finds a partner fires, and the scan resumes
    (:func:`_resume`) where a rescan from position 0 would first see a
    difference, so the firings are the same as that rescan's.
    """
    out = list(gates)
    reach: list[int] = []
    i = 0
    while i < len(out):
        g = out[i]
        j = i
        if g.kind in _PAIR_RULE:
            j = _walk(out, g, i + 1, 1, stop=g)
            if j < len(out) and out[j] is g:
                del out[j]
                out[i:i + 1] = fires.apply(_PAIR_RULE[g.kind], *g.q)
                i = _resume(reach, i)
                continue
        reach.append(j)
        i += 1
    return out


def _pass_collect_frame(gates, fires):
    """Move diagonal Pauli-axis gates (S, Z) to the end where possible.

    Returns (remaining gates, frame gates).  The frame is reported per
    qubit as the net power of S — S, Z, or Z then S — in qubit order.
    The first S or Z whose walk right (:func:`_walk`) runs off the end
    moves, and the scan resumes as in :func:`_pass_cancel`.
    """
    out = list(gates)
    powers: dict[int, int] = {}
    reach: list[int] = []
    i = 0
    while i < len(out):
        g = out[i]
        j = i
        if g.kind in ("S", "Z"):
            j = _walk(out, g, i + 1, 1)
            if j == len(out):
                powers[g.q[0]] = (
                    powers.get(g.q[0], 0) + (1 if g.kind == "S" else 2)
                ) % 4
                if i + 1 < len(out):
                    fires.hit("gate_commutation_move", len(out) - i - 1)
                del out[i]
                i = _resume(reach, i)
                continue
        reach.append(j)
        i += 1
    frame = []
    for q in sorted(powers):
        p = powers[q]
        if p >= 2:
            frame.append(Gate("Z", (q,)))
        if p % 2:
            frame.append(Gate("S", (q,)))
    return out, tuple(frame)


def _dataflow(gates, roles):
    """Each wire's GF(2) labels and read-free runs, in one forward scan.

    Wires carry labels over a growing basis: logical inputs contribute one
    column each, every H, X or Y output is a fresh column, and a CX XORs
    its control's label into its target's.  Returns ``(snapshots, runs)``:
    ``snapshots[i][w]`` is wire ``w``'s label before gate ``i`` (one more
    entry holds the labels after the last gate).  A read-free run ``(t,
    a, b, adds)`` lists the CX gates targeting wire ``t`` strictly between
    consecutive reads of ``t`` (H, X, Y, CX control, S, Z, CZ) at ``a`` and
    ``b``, with ``a = -1`` before the first read and ``b = len(gates)``
    after the last.  Nothing inside a run sees ``t``, so its adds may
    change anywhere in ``(a, b]``: this is the one window of both dataflow
    passes.  Runs with adds come in order of ``b``.  Returns ``None`` if a
    CY occurs.  A fresh column after X or Y stands for any value of the
    wire, so every label identity the passes use holds for the flipped
    value too.
    """
    if any(g.kind == "CY" for g in gates):
        return None
    n = len(roles)
    labels = [0] * (n + 1)
    n_cols = 0
    for q, role in enumerate(roles, start=1):
        if role == "logical_input":
            labels[q] = 1 << n_cols
            n_cols += 1
    snapshots = [labels[:]]
    last_read = [-1] * (n + 1)
    pending: list[list[int]] = [[] for _ in range(n + 1)]
    runs = []
    for i, g in enumerate(gates):
        # A CX reads its control; H, X and Y read their wire, and S, Z
        # and CZ read their wires' values through phases.
        for q in g.q[:1] if g.kind == "CX" else g.q:
            if pending[q]:
                runs.append((q, last_read[q], i, pending[q]))
                pending[q] = []
            last_read[q] = i
        if g.kind in ("H", "X", "Y"):
            labels[g.q[0]] = 1 << n_cols
            n_cols += 1
        elif g.kind == "CX":
            c, t = g.q
            pending[t].append(i)
            labels[t] ^= labels[c]
        snapshots.append(labels[:])
    runs += [(q, last_read[q], len(gates), pending[q])
             for q in range(1, n + 1) if pending[q]]
    return snapshots, runs


def _pass_ports(gates, circuit, fires):
    """Re-realise each Hadamard's feeding CX gates at minimum weight.

    The read-free run of :func:`_dataflow` that ends at a Hadamard on wire
    ``q`` builds the label the Hadamard reads.  When strictly fewer gates
    suffice, this pass replaces the run's CX gates with CX gates from
    other wires whose labels sum to the same value, inserted at one
    position in ``(a, b]``.  Every such position is considered, because
    other wires' labels evolve and the cheapest realisation may only exist
    at particular points; among equally cheap realisations the earliest
    insertion point wins, which packs ports toward the front and leaves
    the remaining CX gates contiguous.  Adds to ``q`` before an earlier
    read of ``q`` belong to an earlier run and stay: moving them past that
    read would change what it sees.

    The winner is the least key (weight, position, wires), and two prunes
    leave it unchanged.  The solver's weight cap starts one below the
    current gate count, because a realisation that is not lighter is never
    used, and after each hit drops to one below the best weight so far,
    because a later position of equal weight loses on position.  A
    position whose other-wire labels equal the previous position's is
    skipped: it would yield the same wires at a later position.
    """
    n = circuit.n
    out = list(gates)
    while True:
        flow = _dataflow(out, circuit.roles)
        if flow is None:
            return out
        snapshots, runs = flow
        for q, a, b, old in runs:
            if b == len(out) or out[b].kind != "H":
                continue
            delta = snapshots[b][q] ^ snapshots[a + 1][q]
            wires = [w for w in range(1, n + 1) if w != q]
            best = None
            cap = len(old) - 1
            prev_rows = None
            for pos in range(a + 1, b + 1):
                snap = snapshots[pos]
                rows = [snap[w] for w in wires]
                if rows == prev_rows:
                    continue
                prev_rows = rows
                sol = min_weight_solution(rows, delta, cap)
                if sol is None:
                    continue
                key = (len(sol), pos, sol)
                if best is None or key < best:
                    best = key
                cap = best[0] - 1
            if best is not None and best[0] < len(old):
                _weight, pos, sol = best
                out = [None if k in old else g for k, g in enumerate(out)]
                out[pos:pos] = [Gate("CX", (wires[s], q)) for s in sol]
                out = [g for g in out if g is not None]
                fires.hit("port_minimization")
                break
        else:
            return out


def _pass_fold(gates, circuit, fires):
    """Fold a wire's CX fan-in through another wire's evolution.

    In a read-free run of wire ``t`` (see :func:`_dataflow`), three or
    more CX adds whose delivered values XOR to how another wire ``s``
    changes across a span ``[i, j)`` collapse to CX(s, t) before gate
    ``i`` and before gate ``j``; adds whose values XOR to zero are
    deleted.  Folding the most adds of ``U``, the run's adds in ``[i,
    j)``, is dropping the fewest: one ``min_weight_solution`` call over
    ``U``'s values with target ``xor(U) ^ change(s)``, or, for the zero
    case, over the whole run with target ``xor(run)``.

    The firing is the least key ``(-gain, t, folded, lo - i, j - hi - 1,
    s)``, with ``lo`` and ``hi`` the first and last folded positions.  Per
    span and wire only the complement of the solver's lexicographically
    least drop set is tried, so when drop sets tie in size (two adds that
    deliver equal values, say) the folded set can differ from the least
    one that trying every subset would pick; the gain cannot.  The cap is
    only a prune: it asks for three folded adds and, once a fold is found,
    at least its gain.
    """
    n = circuit.n
    out = list(gates)
    while True:
        flow = _dataflow(out, circuit.roles)
        if flow is None:
            return out
        snapshots, runs = flow
        best = None
        for t, a, b, run in runs:
            if len(run) < 3:
                continue
            gives = [snapshots[p][out[p].q[0]] for p in run]
            xor = [0]
            for v in gives:
                xor.append(xor[-1] ^ v)
            # One solve per (adds run[lo:hi], target); of the spans [i, j)
            # and wires s sharing it, the key prefers the latest i, then
            # the earliest j and the least s.  s = 0 is the zero case.
            spans = {(0, len(run), xor[-1]): (run[0], run[-1] + 1, 0)}
            for i in range(a + 1, b):
                lo = bisect_left(run, i)
                for j in range(i + 1, b + 1):
                    hi = bisect_left(run, j)
                    if hi - lo < 3:
                        continue
                    for s in range(1, n + 1):
                        change = snapshots[i][s] ^ snapshots[j][s]
                        at = (lo, hi, xor[hi] ^ xor[lo] ^ change)
                        if s != t and change and spans.get(at, (-1,))[0] < i:
                            spans[at] = (i, j, s)
            for (lo, hi, target), (i, j, s) in spans.items():
                bracket = 2 if s else 0
                cap = hi - lo - 3
                if best is not None:
                    cap = min(cap, hi - lo - bracket + best[0])
                if cap < 0:
                    continue
                drop = min_weight_solution(gives[lo:hi], target, cap)
                if drop is None:
                    continue
                folded = tuple(
                    run[lo + k] for k in range(hi - lo) if k not in drop
                )
                if len(folded) < 3:
                    continue
                key = (bracket - len(folded), t, folded,
                       folded[0] - i, j - folded[-1] - 1, s)
                if best is None or key < best:
                    best = key
        if best is None:
            return out
        _gain, t, folded, di, dj, s = best
        i, j = folded[0] - di, folded[-1] + 1 + dj
        bracket = [Gate("CX", (s, t))] if s else []
        out = [None if k in folded else g for k, g in enumerate(out)]
        out[j:j] = bracket
        out[i:i] = bracket
        out = [g for g in out if g is not None]
        fires.hit("fanin_fold")


def _pass_triangles(gates, fires):
    """Contract CNOT-distribution triples back to two gates.

    For each CX(a, b), one walk left (:func:`_walk`) bounds the gates it
    commutes with; among them, from the nearest, each CX(a, c) walks left
    once more for a CX(b, c) it meets first.  The first triple found
    contracts.  Every scan reads only gates to its left, so the scans
    before the first changed position would find nothing again: the pass
    resumes there, and fires exactly as a rescan from 0 would.
    """
    out = list(gates)
    k = 0
    while k < len(out):
        g3 = out[k]
        if g3.kind == "CX":
            a, b = g3.q
            blocked = _walk(out, g3, k - 1, -1)
            for j in range(k - 1, blocked, -1):
                g2 = out[j]
                if g2.kind != "CX" or g2.q[0] != a or g2.q[1] == b:
                    continue
                c = g2.q[1]
                want = Gate("CX", (b, c))
                i = _walk(out, want, j - 1, -1, stop=want)
                if i >= 0 and out[i] is want:
                    out[i:k + 1] = out[i + 1:j] + fires.apply(
                        "triangle_contraction", a, b, c
                    ) + out[j + 1:k]
                    k = i - 1  # the step below resumes at i
                    break
        k += 1
    return out


# ---------------------------------------------------------------------------
# block extraction and resynthesis


def _bubble_singles(gates):
    """Move single-qubit gates left past two-qubit gates they commute with.

    One insertion pass: each single-qubit gate sinks left until a
    single-qubit gate or a two-qubit gate it does not commute with stops
    it.  The adjacent swaps never overlap, so this is the one fixed point
    that swapping until nothing moves would reach.
    """
    out = []
    for g in gates:
        i = len(out)
        if len(g.q) == 1:
            while (i and len(out[i - 1].q) == 2
                   and gates_commute(out[i - 1], g)):
                i -= 1
        out.insert(i, g)
    return out


def _resynthesize_blocks(gates, n, budget, report):
    out = _bubble_singles(gates)
    spans = []
    start = None
    for i in range(len(out) + 1):
        if i < len(out) and out[i].kind == "CX":
            if start is None:
                start = i
        elif start is not None:
            spans.append((start, i))
            start = None
    for s, e in reversed(spans):
        block = out[s:e]
        if len(block) < 2:
            continue
        m = block_to_matrix(block, n)
        better = search_ops(m, budget=budget, witness=block)
        if len(better) < len(block):
            report.blocks_resynthesized.append({
                "span": [s, e],
                "gates_before": len(block),
                "gates_after": len(better),
                "method": _source(better, m, block),
            })
            out[s:e] = list(better)
    return out


def _best_witness(candidates, matrix, n, zero_columns):
    """Shortest candidate realising ``matrix`` up to the don't-care columns."""
    mask = care_mask(n, zero_columns)
    best = None
    for cand in candidates:
        cand = tuple(cand)
        if any(g.kind != "CX" for g in cand):
            continue
        got = block_to_matrix(cand, n)
        if any((a ^ b) & mask for a, b in zip(got, matrix)):
            continue
        key = (len(cand), tuple(g.q for g in cand))
        if best is None or key < best[0]:
            best = (key, cand)
    return None if best is None else best[1]


def _source(found, matrix, witness):
    """Which realisation ``search_ops`` returned: its fallbacks or a hit.

    A search hit is always strictly shorter than both fallbacks, so a
    result equal to the witness or to the Gaussian circuit came from them.
    """
    if witness is not None and tuple(found) == tuple(witness):
        return "witness"
    if tuple(found) == gaussian_ops(matrix):
        return "gaussian"
    return "search"


def _staged_resynthesis(gates, circuit, budget, witnesses, report):
    """Hadamard-deferred region resynthesis for encoder-shaped circuits.

    After the rewrite passes, an encoder circuit bubbles into a leading CX
    run, a stack of Hadamards, and a trailing CX run.  Deferring a suffix
    of the stack — moving each deferred wire's Hadamard and fan-out gates
    behind the trailing run, and its feeding gates into it — leaves one
    wide CX region whose still-|0⟩ input wires turn whole matrix columns
    into don't-cares.  Every suffix split is scored with the budgeted
    search over that masked target and the lowest total CX count wins.
    Returns the rebuilt gate list, or ``None`` when the circuit does not
    match the three-section shape.
    """
    out = _bubble_singles(gates)
    n = circuit.n
    i = 0
    while i < len(out) and out[i].kind == "CX":
        i += 1
    j = i
    while j < len(out) and out[j].kind == "H":
        j += 1
    if j == i or any(g.kind != "CX" for g in out[j:]):
        return None
    ports, stack, tail = out[:i], out[i:j], out[j:]
    pivots = [g.q[0] for g in stack]
    if len(set(pivots)) != len(pivots):
        return None

    best = None
    for defer in range(len(pivots) + 1):
        front = set(pivots[:len(pivots) - defer])
        back = pivots[len(pivots) - defer:]
        back_set = set(back)

        front_ports, region = [], []
        if any(g.q[1] in back_set and g.q[0] in front for g in ports):
            continue  # a deferred wire is fed from behind a kept Hadamard
        for g in ports:
            (region if g.q[1] in back_set else front_ports).append(g)

        # Fan-out gates of deferred wires move behind their Hadamard; each
        # must commute past every region gate it jumps over.
        fanout = {b: [] for b in back}
        movable = True
        for p, g in enumerate(tail):
            if g.q[0] in back_set:
                if all(
                    later.q[0] in back_set or gates_commute(g, later)
                    for later in tail[p + 1:]
                ):
                    fanout[g.q[0]].append(g)
                else:
                    movable = False
                    break
            else:
                region.append(g)
        if not movable:
            continue

        written = {g.q[1] for g in front_ports}
        zero_columns = tuple(
            w for w in range(1, n + 1)
            if circuit.roles[w - 1] != "logical_input"
            and w not in front and w not in written
        )
        matrix = block_to_matrix(region, n)
        witness = _best_witness(
            [region, *witnesses], matrix, n, zero_columns
        )
        searched = search_ops(
            matrix, budget=budget, witness=witness, zero_columns=zero_columns
        )
        total = len(front_ports) + len(searched) + sum(
            len(v) for v in fanout.values()
        )
        if best is None or total < best[0]:
            rebuilt = list(front_ports)
            rebuilt += [g for g in stack if g.q[0] in front]
            start = len(rebuilt)
            rebuilt += list(searched)
            for b in back:
                rebuilt.append(Gate("H", (b,)))
                rebuilt += fanout[b]
            best = (total, start, region, searched, matrix, witness, back,
                    rebuilt)

    if best is None:
        return None
    _total, start, region, searched, matrix, witness, back, rebuilt = best
    if len(searched) < len(region):
        report.blocks_resynthesized.append({
            "span": [start, start + len(searched)],
            "gates_before": len(region),
            "gates_after": len(searched),
            "method": _source(searched, matrix, witness),
            "deferred_hadamards": list(back),
        })
    return rebuilt


# ---------------------------------------------------------------------------
# entry points


def _pipeline(circuit: Circuit, fires: _Fires):
    gates = _pass_strip(circuit.gates, circuit, fires)
    gates = _pass_retarget(gates, fires)
    gates = _pass_strip(gates, circuit, fires)
    gates = _pass_cancel(gates, fires)
    gates, frame = _pass_collect_frame(gates, fires)
    baseline = sum(1 for g in gates if len(g.q) == 2)
    gates = _pass_ports(gates, circuit, fires)
    gates = _pass_cancel(gates, fires)
    gates = _pass_triangles(gates, fires)
    gates = _pass_fold(gates, circuit, fires)
    gates = _pass_triangles(gates, fires)
    gates = _pass_strip(gates, circuit, fires)
    return gates, frame, baseline


def apply_rules(circuit: Circuit) -> Circuit:
    """Rewrite ``circuit`` toward the {H, CX} gate set using registered rules.

    The result is a self-contained exact equivalent of the input: any
    residual diagonal Pauli frame stays in the gate list, at the end.
    """
    fires = _Fires()
    gates, frame, _ = _pipeline(circuit, fires)
    return circuit.replace_gates(
        tuple(gates) + frame, note="rewritten toward the cnot-h gate set"
    )


def frame_from_notes(circuit: Circuit) -> tuple[Gate, ...]:
    """Parse the trailing Pauli frame recorded in a circuit's notes."""
    for note in circuit.notes:
        m = _FRAME_NOTE.match(note)
        if m:
            gates = []
            for chunk in m.group(1).split():
                kind, q = chunk[0], chunk[2:-1]
                gates.append(Gate(kind, (int(q),)))
            return tuple(gates)
    return ()


def optimize(
    circuit: Circuit,
    *,
    level: str = "rules",
    search_budget: int = DEFAULT_SEARCH_BUDGET,
    block_witnesses=None,
) -> tuple[Circuit, OptimizationReport]:
    """Optimize ``circuit`` and prove the result equivalent to the input.

    At ``level="rules"`` only the rewrite passes run; ``level="full"``
    additionally resynthesizes CNOT regions with the budgeted search —
    staged Hadamard-deferred regions when the circuit has the encoder
    shape, falling back to per-block resynthesis otherwise.  Known short
    realisations can be supplied as ``block_witnesses`` (sequences of CX
    gates); a witness is used whenever its matrix matches a region's on
    the columns that matter.  The returned circuit holds no CY or CZ:
    retarget rewrites them into H, CX and S.  The single-qubit X, Y, Z
    and S gates that do not cancel, merge or move into the frame pass
    through, so the result is over {H, CX, X, Y, Z, S}.  Any residual
    diagonal Pauli frame is split into the
    report (and recorded in the circuit notes), and the circuit composed
    with its frame is re-simulated against the input on every ancilla-
    restricted basis state.  A mismatch raises ``OptimizationError``.
    An unknown level, a negative ``search_budget``, or a witness pair
    that is not a CX on qubits 1..n raises ``ValueError`` at every level,
    before any pass runs.  Each entry of
    ``report.blocks_resynthesized`` names the ``method`` whose gates
    replaced the region: ``"search"``, ``"witness"`` or ``"gaussian"``.
    """
    if level not in LEVELS:
        raise ValueError(
            f"unknown optimization level {level!r}; "
            f"choose from {', '.join(LEVELS)}"
        )
    if search_budget < 0:
        raise ValueError(
            f"search budget must be non-negative, got {search_budget}"
        )
    witnesses = []
    for i, pairs in enumerate(block_witnesses or (), 1):
        try:
            w = tuple(Gate("CX", (int(c), int(t))) for c, t in pairs)
            block_to_matrix(w, circuit.n)
        except ValueError as exc:
            raise ValueError(f"block witness {i}: {exc}") from None
        witnesses.append(w)

    fires = _Fires()
    report = OptimizationReport(
        counts_before=gate_counts(circuit), counts_after={}
    )
    gates, frame, baseline = _pipeline(circuit, fires)
    if level == "full":
        staged = _staged_resynthesis(
            gates, circuit, search_budget, witnesses, report
        )
        if staged is not None:
            gates = staged
        else:
            gates = _resynthesize_blocks(
                gates, circuit.n, search_budget, report
            )

    if sum(1 for g in gates if len(g.q) == 2) > baseline:
        raise OptimizationError(
            "optimization increased the two-qubit gate count past the "
            "retargeted baseline; this is a bug in the rewrite passes"
        )

    notes = circuit.notes + (f"optimized: level={level}",)
    if frame:
        notes += ("pauli frame: " + " ".join(str(g) for g in frame),)
    result = Circuit(
        circuit.n, gates, circuit.roles, name=circuit.name, notes=notes,
        measurements=circuit.measurements,
    )

    with_frame = Circuit(
        result.n, result.gates + frame, result.roles, name=result.name,
    )
    bare_input = Circuit(circuit.n, circuit.gates, circuit.roles)
    if not circuits_equivalent(
        with_frame, bare_input, scope="ancilla_restricted",
        up_to_global_phase=False,
    ):
        raise OptimizationError(
            "optimized circuit (with its Pauli frame) is not equivalent to "
            "the input on the ancilla-restricted state space"
        )

    report.counts_after = gate_counts(result)
    report.rules_fired = dict(fires)
    report.frame = frame
    return result, report
