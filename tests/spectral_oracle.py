"""Closed-form spectral differentiation matrices: a reference independent of the FFT."""

import numpy as np


def periodic_derivative_matrix(n, length):
    """Spectral first-derivative matrix on n periodic samples over ``length``.

    D_ij = (pi/L) (-1)^(i-j) cot(pi (i-j)/n) for even n, csc for odd n, and
    0 on the diagonal (Trefethen, *Spectral Methods in MATLAB*, 2000, ch. 3).
    """
    offset = np.subtract.outer(np.arange(n), np.arange(n))
    angle = np.pi * offset / n
    with np.errstate(divide="ignore"):
        edge = 1.0 / (np.tan(angle) if n % 2 == 0 else np.sin(angle))
    d = (np.pi / length) * (-1.0) ** offset * edge
    np.fill_diagonal(d, 0.0)
    return d


def _closed_form(grid, axis):
    return periodic_derivative_matrix(grid.counts[axis], grid.maxs[axis] - grid.mins[axis])


def lifted_derivative(grid, axis):
    """Kronecker lift of the closed-form derivative along ``axis`` to the flat grid."""
    left = int(np.prod(grid.counts[:axis]))
    right = int(np.prod(grid.counts[axis + 1:]))
    return np.kron(np.eye(left), np.kron(_closed_form(grid, axis), np.eye(right)))


def reference_apply(op, v):
    """``sum factor * field * D_axis v + scalar * v`` for a grid operator's terms.

    Each D_axis is the closed-form matrix contracted with one axis of the
    shaped flat vector ``v``, so no grid-sized square matrix is formed.
    """
    shaped = np.asarray(v, dtype=complex).reshape(op.grid.shape)
    out = np.zeros(op.grid.size, dtype=complex)
    for factor, field, axis in op.terms:
        derivative = np.tensordot(_closed_form(op.grid, axis), shaped, axes=(1, axis))
        out += factor * field * np.moveaxis(derivative, 0, axis).reshape(-1)
    if op.scalar is not None:
        out += op.scalar * shaped.reshape(-1)
    return out
