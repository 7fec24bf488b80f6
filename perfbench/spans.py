"""Outside-in tracing of the program's public functions.

``Tracer.install`` wraps each function named in ``TARGETS`` and rebinds
every ``stabsynth.*`` module attribute that is that function object.  The
rebinding is needed because modules import by name: ``optimizer`` holds
its own references to ``min_weight_solution``, ``resynthesize`` and
``circuits_equivalent``, and ``cli`` to ``run`` and ``projector_encode``.
Spans live in memory as ``[name, start, end, parent, op, info]`` lists; a
span's self time is its duration minus the part of it that its child
spans cover.  ``rules.gates_commute`` is only counted, because a span per
call would cost more than the call.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

_NOW = time.perf_counter


def _info_min_weight(args, kwargs, result, tracer):
    return {"solved": result is not None}


def _info_gaussian(args, kwargs, result, tracer):
    tracer.last_gaussian_len = len(result)
    return None


def _info_search(args, kwargs, result, tracer):
    witness = kwargs.get("witness")
    return {
        "improved": len(result) < tracer.last_gaussian_len,
        "witness": witness is not None and tuple(result) == tuple(witness),
    }


def _info_run(args, kwargs, result, tracer):
    c = args[0]
    return {"amp_gate_ops": (1 << c.n) * len(c.gates)}


def _info_optimize(args, kwargs, result, tracer):
    circuit = args[0]
    optimized, report = result
    return {
        "gates_in": len(circuit.gates),
        "gates_out": len(optimized.gates) + len(report.frame),
        "cx_out": sum(1 for g in optimized.gates if g.kind == "CX"),
        "rules_fired": sum(report.rules_fired.values()),
        "cx_saved_resynth": sum(
            b["gates_before"] - b["gates_after"]
            for b in report.blocks_resynthesized
        ),
    }


def _info_encoder(args, kwargs, result, tracer):
    return {"gates_out": len(result.gates)}


# (module, function, info hook); the span is named "module.function".
TARGETS = (
    ("gf2", "min_weight_solution", _info_min_weight),
    ("linear", "gaussian_ops", _info_gaussian),
    ("linear", "search_ops", _info_search),
    ("simulator", "circuits_equivalent", None),
    ("simulator", "run", _info_run),
    ("simulator", "projector_encode", None),
    ("simulator", "apply_pauli", None),
    ("cli", "main", None),
    ("optimizer", "optimize", _info_optimize),
    ("library", "load_code", None),
    ("symplectic", "standard_form", None),
    ("encoder", "synthesize_encoder", _info_encoder),
    ("circuit", "from_json", None),
)
COUNTED = (("rules", "gates_commute"),)


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.last_gaussian_len = 0
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "stabsynth" or mod_name.startswith("stabsynth.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._rebound.append((mod, attr, original))

    def install(self) -> None:
        import importlib

        for mod_name, fn_name, hook in TARGETS:
            mod = importlib.import_module(f"stabsynth.{mod_name}")
            original = getattr(mod, fn_name)
            self._rebind(original, self._span_wrapper(
                f"{mod_name}.{fn_name}", original, hook))
        for mod_name, fn_name in COUNTED:
            mod = importlib.import_module(f"stabsynth.{mod_name}")
            original = getattr(mod, fn_name)
            self._rebind(original, self._count_wrapper(
                f"{mod_name}.{fn_name}", original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def _span_wrapper(self, name, fn, hook):
        spans, stack, calls = self.spans, self.stack, self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            span = [name, _NOW(), None, stack[-1] if stack else None, tracer.op, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _NOW()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result, tracer)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- ops ----------------------------------------------------------

    def begin_op(self, op: int, label: str) -> None:
        """Open the root span of one op; layer spans nest under it."""
        self.op = op
        self.stack.clear()
        self.spans.append([f"op:{label}", _NOW(), None, None, op, None])
        self.stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        """Close the op's root span, also after an aborted op."""
        root = self.stack[0]
        self.spans[root][2] = _NOW()
        for i in self.stack[1:]:
            if self.spans[i][2] is None:
                self.spans[i][2] = self.spans[root][2]
        self.stack.clear()

    # -- analysis -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op, _info) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += (end - start) - covered
        return totals

    def info_sum(self, name: str, key: str) -> int:
        return sum(
            span[5][key] for span in self.spans
            if span[0] == name and span[5] is not None
        )

    def info_share(self, name: str, key: str) -> float:
        infos = [s[5][key] for s in self.spans if s[0] == name and s[5] is not None]
        return sum(infos) / len(infos) if infos else 0.0


def per_layer(passes: list["Tracer"]) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    first = passes[0]
    selfs = [t.self_times() for t in passes]

    def self_s(name):
        return statistics.median(s.get(name, 0.0) for s in selfs)

    def calls(name):
        return first.calls.get(name, 0)

    return {
        "gf2.min_weight_solution.calls": calls("gf2.min_weight_solution"),
        "gf2.min_weight_solution.self_s": self_s("gf2.min_weight_solution"),
        "gf2.min_weight_solution.solved_frac":
            first.info_share("gf2.min_weight_solution", "solved"),
        "linear.search_ops.calls": calls("linear.search_ops"),
        "linear.search_ops.self_s": self_s("linear.search_ops"),
        "linear.search_ops.improved_frac":
            first.info_share("linear.search_ops", "improved"),
        "linear.search_ops.witness_frac":
            first.info_share("linear.search_ops", "witness"),
        "linear.gaussian_ops.self_s": self_s("linear.gaussian_ops"),
        "simulator.circuits_equivalent.calls": calls("simulator.circuits_equivalent"),
        "simulator.circuits_equivalent.self_s": self_s("simulator.circuits_equivalent"),
        "simulator.run.calls": calls("simulator.run"),
        "simulator.run.self_s": self_s("simulator.run"),
        "simulator.run.amp_gate_ops": first.info_sum("simulator.run", "amp_gate_ops"),
        "simulator.projector_encode.self_s": self_s("simulator.projector_encode"),
        "simulator.apply_pauli.self_s": self_s("simulator.apply_pauli"),
        "cli.main.self_s": self_s("cli.main"),
        "optimizer.optimize.calls": calls("optimizer.optimize"),
        "optimizer.optimize.self_s": self_s("optimizer.optimize"),
        "rules.gates_commute.calls": calls("rules.gates_commute"),
        "optimizer.gates_in": first.info_sum("optimizer.optimize", "gates_in"),
        "optimizer.gates_out": first.info_sum("optimizer.optimize", "gates_out"),
        "optimizer.cx_out": first.info_sum("optimizer.optimize", "cx_out"),
        "optimizer.rules_fired": first.info_sum("optimizer.optimize", "rules_fired"),
        "optimizer.cx_saved_resynth":
            first.info_sum("optimizer.optimize", "cx_saved_resynth"),
        "library.load_code.self_s": self_s("library.load_code"),
        "symplectic.standard_form.self_s": self_s("symplectic.standard_form"),
        "encoder.synthesize_encoder.self_s": self_s("encoder.synthesize_encoder"),
        "encoder.gates_out": first.info_sum("encoder.synthesize_encoder", "gates_out"),
        "circuit.from_json.self_s": self_s("circuit.from_json"),
    }
