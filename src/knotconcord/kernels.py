"""The exact Hermitian inertia entry point.

`_inertia_py.hermitian_pivots` reduces the matrix over the cyclotomic
field with one pivot rule on its upper triangle; this module checks the
shape and counts the certified signs of the pivots.
"""

from . import _inertia_py
from .errors import InternalInvariantViolation, PreconditionError


def hermitian_inertia(field, packed_matrix):
    """Inertia (n_plus, n_minus, n_zero) of a Hermitian matrix over a
    cyclotomic field.  `packed_matrix` is a square list-of-lists of packed
    field elements; Hermitian-ness is the caller's responsibility."""
    size = len(packed_matrix)
    if any(len(row) != size for row in packed_matrix):
        raise PreconditionError("Hermitian matrix must be square")
    pivots, zero_dim = _inertia_py.hermitian_pivots(field, packed_matrix)
    plus = minus = 0
    for p in pivots:
        s = field.sign_real(p)
        if s > 0:
            plus += 1
        elif s < 0:
            minus += 1
        else:
            raise InternalInvariantViolation(
                "a nonzero pivot has certified sign 0")
    return (plus, minus, zero_dim)
