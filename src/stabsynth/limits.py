"""The largest state a command builds, checked without numpy.

``simulator`` holds 2^n amplitudes per state.  ``verify`` holds none, but
it walks the 2^k logical inputs of an n-qubit code, and its exact decision
relies on every nonzero amplitude of a stabilizer state on at most
``MAX_QUBITS`` qubits (at least 2^-13) lying far above the 1e-10
tolerance that defines a match.  Both ask ``dense_size`` first, so an
input past the limit fails with one message naming n and the limit before
any memory is taken.  ``simulator`` re-exports all three names.
"""

from __future__ import annotations

__all__ = ["MAX_QUBITS", "DenseLimitError", "dense_size"]

# No state has more qubits.  A proof at the limit holds two 2^26-amplitude
# buffers of 1 GiB each and the H scratch halves of both.
MAX_QUBITS = 26


class DenseLimitError(ValueError):
    """A dense state would have more than ``MAX_QUBITS`` qubits."""


def dense_size(n: int) -> int:
    """2^n, the amplitudes of an n-qubit state; past ``MAX_QUBITS`` an error.

    Every allocation of 2^n amplitudes or table entries asks here first,
    so an input too large for dense simulation fails before any memory is
    taken, with one message naming n and the limit.
    """
    if n > MAX_QUBITS:
        raise DenseLimitError(
            f"{n} qubits exceed the dense simulator's limit of {MAX_QUBITS}"
        )
    return 1 << n
