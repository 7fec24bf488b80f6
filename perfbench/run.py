"""stabsynth benchmark: one workload, one seed, one process, one thread.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ports --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  Set-up times cold
imports in fresh interpreters and builds the workload's inputs from the
seed.  The workload's fixed op list is then run in passes until
``--seconds`` is used up (at least one pass).  With ``--trace 0`` every
pass is timed untraced and the end-to-end metrics are printed; with
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics plus the tracing overhead are printed.  Outputs are checked after
timing.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

from __future__ import annotations

import os

# Pin native thread pools before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# Any single op running longer than this counts as failed and is aborted.
OP_LIMIT_S = 30.0
# No op starts after this point of the run, so the process ends within
# the 180 s the caller allows.
RUN_DEADLINE_S = 150.0
SETUP_REPEATS = 11
# Set-up times are reported in seconds at a fixed host speed: the import's
# time over the probe's, measured in the same interpreter, times this.
PROBE_NOMINAL_S = 0.00025
# Host-speed probes: this many right before and right after each op, and
# one per PROBE_INTERVAL_S of CPU time while it runs (untraced passes).
PROBES_AROUND = 5
PROBE_INTERVAL_S = 0.02
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "op_ref.p50": "ref",
    "op_ref.tail": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cx_total": "count",
    "gates_total": "count",
    "ok_frac": "ratio",
}


class OpTimeout(BaseException):
    """Raised inside an op that ran past its time limit.

    A BaseException, so that no ``except Exception`` in the program
    swallows it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


_PROBE_STATE = np.ones(1 << 12, dtype=np.complex128)


def probe() -> float:
    """Seconds taken by a fixed computation that does not use the program,
    with the program's mix of work: an interpreter loop, small objects
    made and dropped, small numpy operations and a pass over a 64 KB
    array, about 0.2 ms.  Sampled before, during and after every op, it
    measures how fast the host is while the op runs (NOTES.md)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) & 0xFFFF
    objs = [(i, str(i)) for i in range(100)]
    del objs
    rows = np.arange(64, dtype=np.int64)
    for _ in range(10):
        rows = rows ^ (rows >> 1)
    np.multiply(_PROBE_STATE, 1.0, out=_PROBE_STATE)
    return time.perf_counter() - t0


class Sampler:
    """SIGPROF handler that runs ``probe`` inside an op and keeps the
    samples and the time they took, which is not the op's time.

    The probe runs twice and only the second run is kept: the first finds
    its code and data evicted by the op and ran 1.2 to 1.5 times slower
    than a probe between ops, by an amount that depends on the op.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def __call__(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up


def _import_seconds(module: str) -> tuple[float, float]:
    """Time a cold ``import module`` in a fresh interpreter, and the median
    probe time in that interpreter right after the import."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"import {module}\n"
        "seconds = time.perf_counter() - t\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import statistics\n"
        "from run import probe\n"
        "print(seconds, statistics.median(probe() for _ in range("
        f"{2 * PROBES_AROUND})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=str(ROOT),
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, probe_s = out.stdout.split()[-2:]
    return float(seconds), float(probe_s)


def import_times(modules) -> dict[str, tuple[float, float]]:
    """Per module, over interleaved repeats: the fastest cold import in
    seconds, and the fastest in seconds at a fixed host speed (import
    time / probe time x PROBE_NOMINAL_S).

    The fastest, not the median: a busy host only ever adds time, and
    the fastest of many imports moves least from run to run.
    """
    _import_seconds("stabsynth.cli")  # writes the bytecode cache, untimed
    samples: dict[str, list[tuple[float, float]]] = {m: [] for m in modules}
    for _ in range(SETUP_REPEATS):
        for m in modules:
            samples[m].append(_import_seconds(m))
    return {
        m: (min(s for s, _ in v), min(s / p for s, p in v) * PROBE_NOMINAL_S)
        for m, v in samples.items()
    }


# ---------------------------------------------------------------------------
# passes


class Outcome(NamedTuple):
    seconds: float
    ref: float  # median probe() seconds before, during and after the op
    result: Any
    error: str | None


class Pass(NamedTuple):
    outcomes: list[Outcome]

    @property
    def seconds(self) -> float:
        """Time spent inside the ops, without the untimed work between them."""
        return sum(o.seconds for o in self.outcomes)

    @property
    def in_ref(self) -> list[float]:
        """Each op's time over the median probe time measured with it."""
        return [o.seconds / o.ref for o in self.outcomes]


def run_pass(ops, deadline: float, tracer=None) -> Pass:
    """Run every op once."""
    outcomes = []
    for i, op in enumerate(ops):
        limit = min(OP_LIMIT_S, deadline - time.perf_counter())
        if limit <= 0:
            outcomes.append(Outcome(0.0, probe(), None,
                                    "not started: run deadline"))
            continue
        # Each op starts from an empty young generation, and what the run
        # keeps alive (inputs, earlier outputs) is frozen out of the
        # collector's reach, so an op pays only for its own garbage.
        gc.collect()
        gc.freeze()
        probes = [probe() for _ in range(PROBES_AROUND)]
        sampler = Sampler()
        if tracer is None:
            signal.signal(signal.SIGPROF, sampler)
            signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S,
                             PROBE_INTERVAL_S)
        else:
            tracer.begin_op(i, op.name)
        signal.setitimer(signal.ITIMER_REAL, limit)
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except OpTimeout:
            result, error = None, f"time limit {limit:.0f} s exceeded"
        except Exception as exc:  # every program error is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.setitimer(signal.ITIMER_PROF, 0)
        seconds = time.perf_counter() - t0 - sampler.spent
        if tracer is not None:
            tracer.end_op()
        probes += sampler.samples
        probes += [probe() for _ in range(PROBES_AROUND)]
        outcomes.append(Outcome(seconds, statistics.median(probes), result,
                                error))
    return Pass(outcomes)


def tail_percentile(n_ops: int) -> int:
    """Highest whole percentile with at least TAIL_SAMPLES ops beyond it.

    The samples are the ops' fastest passes, one per op, not every pass
    pooled, so that the percentile does not move with the number of
    passes that fit in a run.  Below 2 * TAIL_SAMPLES ops it is the
    median: search, with 3 ops, has no tail of its own.
    """
    return max(50, math.floor(100 * (1 - TAIL_SAMPLES / n_ops)))


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# checks


def judge(ops, passes) -> tuple[int, list[str], bool]:
    """Failed ops over all passes, the reasons, and whether every output
    was right and equal to the first pass's."""
    failed = 0
    notes: list[str] = []
    correct = True
    verdicts: dict[tuple[int, object], str | None] = {}
    first = passes[0]
    for p, outcomes in enumerate(passes):
        for i, (op, out) in enumerate(zip(ops, outcomes)):
            if out.error is not None:
                failed += 1
                note = f"{op.name}: {out.error}"
                if note not in notes:
                    notes.append(note)
                continue
            key = (i, op.fingerprint(out.result))
            if key not in verdicts:
                verdicts[key] = op.check(out.result)
            reason = verdicts[key]
            if reason is None and first[i].result is not None and key != (
                i, op.fingerprint(first[i].result)
            ):
                reason = "output differs from the first pass"
            if reason is not None:
                failed += 1
                correct = False
                notes.append(f"{op.name} (pass {p}): {reason}")
    return failed, notes, correct


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stabsynth" / "optimizer.py").is_file():
        print(f"error: no stabsynth sources under {SRC}", file=sys.stderr)
        return 2
    run_start = time.perf_counter()
    deadline = run_start + RUN_DEADLINE_S

    imports = import_times(
        ["stabsynth.simulator", "stabsynth.rules"] if args.trace
        else ["stabsynth.cli"]
    )

    # Import in-process before any timing: import-time rule verification
    # belongs to set-up, not to the first op.
    sys.path.insert(0, str(SRC))
    import stabsynth.cli  # noqa: F401

    if not stabsynth.cli.__file__.startswith(str(SRC)):
        print("error: stabsynth was not imported from the checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, SRC, work)
        untraced: list[Pass] = []
        traced: list[Pass] = []
        tracers: list[spans.Tracer] = []
        measure_start = time.perf_counter()
        while True:
            untraced.append(run_pass(ops, deadline))
            if args.trace:
                tracer = spans.Tracer()
                tracer.install()
                try:
                    traced.append(run_pass(ops, deadline, tracer))
                finally:
                    tracer.uninstall()
                tracers.append(tracer)
            used = time.perf_counter() - measure_start
            per_round = used / len(untraced)
            if used + per_round > args.seconds or (
                time.perf_counter() + per_round > deadline
            ):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = [p.outcomes for p in untraced + traced]
        failed, notes, correct = judge(ops, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    attempted = len(ops) * len(passes)
    first = untraced[0].outcomes
    cx_total = gates_total = 0
    for op, out in zip(ops, first):
        if out.error is None:
            cx, gates = op.size(out.result)
            cx_total += cx
            gates_total += gates
    # Each op's time is divided by the probe time measured with it,
    # and each op keeps its fastest pass: the shared host changes speed
    # by up to half for minutes at a time and only ever adds time (NOTES.md).
    op_refs = [min(p.in_ref[i] for p in untraced) for i in range(len(ops))]
    wall_ref = min(sum(p.in_ref) for p in untraced)
    op_times = [min(p.outcomes[i].seconds for p in untraced)
                for i in range(len(ops))]
    wall_s = min(p.seconds for p in untraced)
    tail_p = tail_percentile(len(ops))

    if args.trace:
        metrics = spans.per_layer(tracers)
        metrics["rules.import_s"] = (
            imports["stabsynth.rules"][1] - imports["stabsynth.simulator"][1]
        )
        # In reference units, so that the host's speed between the two
        # passes cancels, then in seconds at the run's median probe time.
        metrics["trace.overhead_s"] = (
            min(sum(p.in_ref) for p in traced) - wall_ref
        ) * statistics.median(o.ref for p in untraced for o in p.outcomes)
        units = {
            name: ("s" if name.endswith("_s") else
                   "ratio" if name.endswith("_frac") else "count")
            for name in metrics
        }
    else:
        metrics = {
            "wall_ref": wall_ref,
            "op_ref.p50": percentile(op_refs, 50),
            "op_ref.tail": percentile(op_refs, tail_p),
            "setup_s": imports["stabsynth.cli"][1],
            "peak_rss_mb": peak_rss_mb,
            "cx_total": cx_total,
            "gates_total": gates_total,
            "ok_frac": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops x "
          f"{len(passes)} passes, {failed} failed, correct={correct}")
    print(f"op_ref.tail is p{tail_p} of {len(ops)} op samples "
          f"(each op's fastest of {len(untraced)} untraced passes); "
          f"failed_frac {failed / attempted:.4f} of {attempted} attempted")
    print(f"in seconds: wall_s {wall_s:.4f}, op_s.p50 "
          f"{percentile(op_times, 50):.4f}, op_s.tail "
          f"{percentile(op_times, tail_p):.4f}; one reference unit is "
          f"{statistics.median(o.ref for o in first):.6f} s")
    print(f"fastest of {SETUP_REPEATS} cold imports, as measured: " + ", ".join(
        f"{m} {raw:.4f} s" for m, (raw, _) in imports.items()))
    for note in notes:
        print(f"failed: {note}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
