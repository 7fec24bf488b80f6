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


def surface_stab(d):
    """The rotated surface code [[d^2, 1, d]] for odd d, as ``.stab`` text.

    Qubit (r, c) of the d x d grid is number d·r + c + 1.  The (d - 1)^2
    faces carry weight-4 checks, X where r + c is even and Z where it is
    odd; the faces just outside the grid that would be X give weight-2 X
    checks on the top and bottom edges, and those that would be Z give
    weight-2 Z checks on the left and right edges: d^2 - 1 rows.
    """
    def row(letter, cells):
        wires = {d * r + c for r, c in cells}
        return "".join(letter if q in wires else "I" for q in range(d * d))

    rows = []
    for r in range(-1, d):
        for c in range(-1, d):
            letter = "XZ"[(r + c) % 2]
            cells = [(r + a, c + b) for a in (0, 1) for b in (0, 1)]
            cells = [(i, j) for i, j in cells if 0 <= i < d and 0 <= j < d]
            inside = 0 <= r < d - 1 and 0 <= c < d - 1
            on_x_edge = letter == "X" and c in range(d - 1) and r in (-1, d - 1)
            on_z_edge = letter == "Z" and r in range(d - 1) and c in (-1, d - 1)
            if inside or on_x_edge or on_z_edge:
                rows.append(row(letter, cells))
    return f"name: surface{d}\nn: {d * d}\nk: 1\n" + "\n".join(rows) + "\n"


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
