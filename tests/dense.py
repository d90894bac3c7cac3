"""Dense dim x dim view of an `ElementOp`, built on the test side only.

The library never forms one: an op is a chain of factors (a gather, then one
2x2 polarization block on every OAM index, or a second one in its place at
l = 0), and `apply` runs them on one vector.  `dense(op)` runs the same
factors over every column of the identity, with no guard check, so a masked
q-plate's edge columns are in the view too.  It expands the blocks to one per
OAM index (`per_l_blocks`) and mixes each pair by the per-l `einsum`, so it
stays a reference apart from `state._mix`.
"""

import numpy as np


def per_l_blocks(op):
    """The op's blocks as one per OAM index, shape (n_oam, 2, 2): ``blocks[0]``
    on every l, then ``blocks[1]``, if there is one, at l = 0."""
    per_l = np.repeat(op.blocks[:1], op.space.n_oam, axis=0)
    per_l[op.space.l_max] = op.blocks[-1]
    return per_l


def dense_act(op, matrix):
    """U @ matrix for one factor: the structured gather and per-l einsum over all columns."""
    out = matrix[op.source]
    if op.blocks is not None:
        pairs = out.reshape(2, op.space.n_oam, matrix.shape[1])
        out = np.einsum("kpq,qk...->pk...", per_l_blocks(op), pairs).reshape(matrix.shape)
    return out


def dense(op):
    """The dense matrix of an element or a composite: each factor in turn on np.eye(dim)."""
    matrix = np.eye(op.space.dimension, dtype=complex)
    for factor in op.factors:
        matrix = dense_act(factor, matrix)
    return matrix
