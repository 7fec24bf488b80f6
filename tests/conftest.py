"""Shared fixtures: parsed codes, standard forms, and pipeline runs.

The expensive objects (standard forms, encoders, full golden-pipeline
runs) are computed once per session and shared across test modules so
the whole suite stays fast.
"""

import numpy as np
import pytest

from stabsynth.encoder import synthesize_encoder
from stabsynth.library import SHIPPED_CODES, load_code, loads_stab, run_golden_pipeline


def random_code(rng, n, k):
    """An unsigned [[n, k]] code: Z on n - k qubits, conjugated by random
    H, S and CX gates acting on the rows' symplectic vectors."""
    x = np.zeros((n - k, n), dtype=np.uint8)
    z = np.eye(n - k, n, dtype=np.uint8)
    for _ in range(12 * n):
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        kind = rng.integers(3)
        if kind == 0:
            x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()
        elif kind == 1:
            z[:, a] ^= x[:, a]
        else:
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]
    rows = ["".join("IXZY"[xb + 2 * zb] for xb, zb in zip(xr, zr))
            for xr, zr in zip(x, z)]
    return loads_stab(f"name: random\nn: {n}\nk: {k}\n" + "\n".join(rows))


@pytest.fixture(scope="session")
def codes():
    """Mapping name -> CodeDefinition for every shipped code."""
    return {name: load_code(name) for name in SHIPPED_CODES}


@pytest.fixture(scope="session")
def forms(codes):
    """Mapping name -> StandardForm for every shipped code."""
    return {name: code.standard_form() for name, code in codes.items()}


@pytest.fixture(scope="session")
def eight_sf(forms):
    return forms["eight_qubit"]


@pytest.fixture(scope="session")
def steane_sf(forms):
    return forms["steane"]


@pytest.fixture(scope="session")
def thirteen_sf(forms):
    return forms["thirteen_qubit"]


@pytest.fixture(scope="session")
def mixed_encoders(forms):
    """Mapping name -> mixed-gate-set encoder circuit."""
    return {
        name: synthesize_encoder(sf, gate_set="mixed")
        for name, sf in forms.items()
    }


@pytest.fixture(scope="session")
def golden_runs():
    """Mapping name -> (optimized, report, encoder) from the golden configs."""
    return {name: run_golden_pipeline(name) for name in SHIPPED_CODES}
