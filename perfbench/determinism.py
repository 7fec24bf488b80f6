"""Check that two runs with the same seed give exactly equal counts.

Usage, from the root of a source checkout:

    python3 perfbench/determinism.py

Runs ``run.py`` on every workload with seed ``SEED``, twice per trace
mode with ``--seconds 1`` (one pass; one untraced and one traced pass
with ``--trace 1``), each time under a different ``PYTHONHASHSEED``, and
compares every count metric: ``cx_total``, ``gates_total``, ``ok_frac``,
``attempted``, ``failed``, every ``.calls``, ``amp_gate_ops``,
``rules_fired`` and the other optimizer and encoder gate counts.  Exits 1
on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEED = 7


def counts(workload: str, seed: int, trace: int, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    picked = {"attempted": doc["attempted"], "failed": doc["failed"]}
    for name, metric in doc["metrics"].items():
        if metric["unit"] in ("count", "ratio"):
            picked[name] = metric["value"]
    return picked


def main() -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            a = counts(workload, SEED, trace, hash_seed=1)
            b = counts(workload, SEED, trace, hash_seed=2)
            diff = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
            verdict = "same" if not diff and a.keys() == b.keys() else f"DIFFER {diff}"
            print(f"{workload:8s} trace={trace}: {len(a)} counts {verdict}")
            if diff or a.keys() != b.keys():
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
