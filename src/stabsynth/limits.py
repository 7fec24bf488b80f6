"""The largest state a command builds, checked without numpy.

``simulator`` holds 2^n amplitudes per state.  ``verify`` holds none and
walks no input: it decides all 2^k logical inputs in closed form, with an
exact test for a match, so it needs no limit of its own and keeps this
one as the command's contract.  ``simulate`` holds no array either, but
prints up to 2^n nonzero amplitudes of one state.  All three ask
``dense_size`` first, so an input past the limit fails with one message
naming n and the limit before any memory is taken.  ``simulator``
re-exports this module's three names.
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
