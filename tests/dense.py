"""Dense dim x dim view of an `ElementOp`, built on the test side only.

The library never forms one: an op is a chain of factors (a gather, then a
2x2 polarization block per OAM index), and `apply` runs them on one vector.
`dense(op)` runs the same factors over every column of the identity, with no
guard check, so a masked q-plate's edge columns are in the view too.
"""

import numpy as np


def dense_act(op, matrix):
    """U @ matrix for one factor: the structured gather and per-l einsum over all columns."""
    out = matrix[op.source]
    if op.blocks is not None:
        pairs = out.reshape(2, op.space.n_oam, matrix.shape[1])
        out = np.einsum("kpq,qk...->pk...", op.blocks, pairs).reshape(matrix.shape)
    return out


def dense(op):
    """The dense matrix of an element or a composite: each factor in turn on np.eye(dim)."""
    matrix = np.eye(op.space.dimension, dtype=complex)
    for factor in op.factors:
        matrix = dense_act(factor, matrix)
    return matrix
