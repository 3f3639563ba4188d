"""Uniform cell-centered grids and first-order differential operators on them.

Both the phase-space grid of prequantization and the configuration grid of
half-form quantization are products of uniform axes with samples at cell
centers, spacing ``(max - min) / count``.  Their operators share one form,

    sum_k factor_k * field_k * d/dx_{axis_k}  +  scalar,

held by :class:`FirstOrderOperator`.  It applies matrix-free, one spectral
derivative by FFT along one axis of the shaped field at a time, or assembles
its matrix as a :class:`RowPatternMatrix`, whose rows hold the entries of
the Kronecker-lifted dense spectral derivative matrices; only the assembly
builds a derivative matrix.  Operators applied to the same field can share
its derivatives through a ``grads`` dict, so each axis of that field is
transformed once however many operators act on it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .linalg import GramMatrix
from .polynomials import Polynomial
from .stencil import derivative_matrix_1d, fft_apply, spectral_first_symbol

__all__ = [
    "UniformGrid",
    "FirstOrderOperator",
    "RowPatternMatrix",
    "lifted_derivatives",
    "interior_states",
    "diagonal_gram",
    "worst_residual",
    "worst_symmetry_defect",
]

#: distance in widths at which a Gaussian has fallen to machine epsilon
_EDGE_SIGMAS = float(np.sqrt(-2.0 * np.log(np.finfo(float).eps)))


class UniformGrid:
    """Shared core of the uniform cell-centered grids.

    Subclasses are frozen dataclasses that expose per-axis ``mins``,
    ``maxs`` and ``counts`` in flatten order, and call :meth:`_validate`
    after construction.  Being hashable, they key the lifted-derivative
    cache of this module.  Derivatives are spectral and differentiate the
    periodic extension of the box (see :mod:`geoquant.stencil`).
    """

    def _validate(self, min_count: int) -> None:
        if any(c < min_count for c in self.counts):
            raise ValueError(f"grids need at least {min_count} points per axis")
        if not np.all(np.isfinite(self.mins + self.maxs)):
            raise ValueError("grid extents must be finite")
        if any(hi <= lo for lo, hi in zip(self.mins, self.maxs)):
            raise ValueError("grid extents must have positive length")

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple((hi - lo) / c for lo, hi, c in zip(self.mins, self.maxs, self.counts))

    def axis(self, i: int) -> np.ndarray:
        return self.mins[i] + (np.arange(self.counts[i]) + 0.5) * self.spacings[i]

    def axes(self) -> list[np.ndarray]:
        return [self.axis(i) for i in range(len(self.counts))]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def size(self) -> int:
        return int(np.prod(self.counts))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def coordinate_fields(self) -> list[np.ndarray]:
        """Flattened coordinate samples, one array per axis."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return [m.reshape(-1) for m in mesh]

    def sample(self, polys: list[Polynomial]) -> list[np.ndarray]:
        """Flat complex samples of each :class:`Polynomial` in ``polys``."""
        coords = self.coordinate_fields()
        ones = np.ones(self.size)
        return [np.asarray(poly.evaluate(*coords), dtype=complex) * ones for poly in polys]


class RowPatternMatrix:
    """Square matrix with the same number of stored entries in every row.

    Row r holds ``vals[r, j]`` in column ``cols[r, j]``; repeated columns
    add.  Both arrays have shape (size, k), so storage grows with k times
    the size, never with its square.
    """

    ndim = 2

    def __init__(self, cols: np.ndarray, vals: np.ndarray):
        self.cols = cols
        self.vals = vals

    @property
    def shape(self) -> tuple[int, int]:
        return (self.cols.shape[0],) * 2

    def __matmul__(self, other) -> np.ndarray:
        """Product with a vector; anything else raises ``ValueError``."""
        v = np.asarray(other)
        if v.shape != (self.shape[1],):
            raise ValueError(f"cannot multiply a {self.shape} matrix by shape {v.shape}")
        return np.einsum("rk,rk->r", self.vals, v[self.cols])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        np.add.at(out, (np.arange(self.shape[0])[:, None], self.cols), self.vals)
        return out


@lru_cache(maxsize=64)
def lifted_derivatives(grid: UniformGrid) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Row pattern ``(cols, vals)`` of the derivative along each axis of the flat grid.

    The Kronecker lift of the 1D matrix D along an axis with ``count``
    points and flat stride ``stride`` gives flat row r, at axis index
    i = (r // stride) % count, the entries D[i, j] in columns
    r + (j - i) * stride, j = 0..count-1.  The arrays are read-only.
    """
    rows = np.arange(grid.size)
    out = []
    for axis, (count, spacing) in enumerate(zip(grid.counts, grid.spacings)):
        stride = int(np.prod(grid.counts[axis + 1:], dtype=int))
        index = rows // stride % count
        cols = rows[:, None] + (np.arange(count) - index[:, None]) * stride
        vals = derivative_matrix_1d(count, spacing)[index]
        cols.flags.writeable = vals.flags.writeable = False
        out.append((cols, vals))
    return tuple(out)


def _derivative_along(grid: UniformGrid, field: np.ndarray, axis: int) -> np.ndarray:
    """Spectral first derivative along one axis of a shaped field, by FFT."""
    symbol = spectral_first_symbol(grid.counts[axis], grid.spacings[axis])
    return fft_apply(field, symbol, axis)


class FirstOrderOperator:
    """``sum factor * field * d/dx_axis + scalar`` over ``terms`` on a grid.

    ``terms`` lists ``(factor, field, axis)`` with a complex number factor
    and flat complex samples as field; ``scalar`` is flat samples or None.
    :meth:`apply` forms ``factor * field`` per call, so an operator holds
    one grid-sized array per term.

    Operators applied to one field share its derivatives when each
    :meth:`apply` call on it gets the same ``grads`` dict: every axis is
    then transformed once, by the first call that needs it.
    """

    def __init__(self, grid: UniformGrid, terms: list, scalar: np.ndarray | None):
        self.grid = grid
        self.terms = terms
        self.scalar = scalar

    def apply(self, v: np.ndarray, grads: dict[int, np.ndarray] | None = None) -> np.ndarray:
        """Matrix-free action on a flat or shaped grid field.

        ``grads`` maps an axis to the shaped derivative of ``v`` along it and
        is filled on demand; it belongs to ``v`` alone.
        """
        shape = self.grid.shape
        field = np.asarray(v, dtype=complex).reshape(shape)
        grads = {} if grads is None else grads
        out = np.zeros_like(field)
        for factor, samples, axis in self.terms:
            if axis not in grads:
                grads[axis] = _derivative_along(self.grid, field, axis)
            out += (factor * samples.reshape(shape)) * grads[axis]
        if self.scalar is not None:
            out += self.scalar.reshape(shape) * field
        return out.reshape(np.asarray(v).shape)

    def matrix(self) -> RowPatternMatrix:
        """Matrix of the operator on the flattened grid.

        Each row stores the lifted derivative row of every term, scaled by
        ``factor * field`` at that row, and one diagonal entry for ``scalar``.
        """
        size = self.grid.size
        derivs = lifted_derivatives(self.grid)
        cols = [np.zeros((size, 0), dtype=int)]
        vals = [np.zeros((size, 0), dtype=complex)]
        for factor, samples, axis in self.terms:
            cols.append(derivs[axis][0])
            vals.append((factor * samples)[:, None] * derivs[axis][1])
        if self.scalar is not None:
            cols.append(np.arange(size)[:, None])
            vals.append(self.scalar[:, None])
        return RowPatternMatrix(np.concatenate(cols, axis=1), np.concatenate(vals, axis=1))


def interior_states(grid: UniformGrid, count: int = 4, seed: int = 7,
                    modulated: bool = True) -> list[np.ndarray]:
    """Normalized smooth bumps centred in the inner 40 percent of each axis.

    Gaussian envelopes with width about 0.1 of the half-extent and centers
    within 0.2 of it.  A width is capped at the distance to the nearer edge
    over ``_EDGE_SIGMAS``, so every envelope has fallen to machine epsilon
    of its peak at the box edge and residual checks see no edge artifacts.
    Optional gentle plane-wave modulation exercises complex data.
    """
    rng = np.random.default_rng(seed)
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    states = []
    for _ in range(count):
        psi = np.ones(grid.shape, dtype=complex)
        for x, lo, hi in zip(mesh, grid.mins, grid.maxs):
            half = (hi - lo) / 2
            mid = (hi + lo) / 2
            sigma = half * rng.uniform(0.09, 0.11)
            center = mid + half * rng.uniform(-0.2, 0.2)
            sigma = min(sigma, (half - abs(center - mid)) / _EDGE_SIGMAS)
            psi = psi * np.exp(-((x - center) ** 2) / (2.0 * sigma**2))
            if modulated:
                k = rng.uniform(-2.0, 2.0) * np.pi / half
                psi = psi * np.exp(1j * k * (x - mid))
        flat = psi.reshape(-1)
        states.append(flat / np.linalg.norm(flat))
    return states


def diagonal_gram(grid: UniformGrid, weight: float) -> GramMatrix:
    """Diagonal Gram of the grid quadrature with a constant weight."""
    return GramMatrix(np.full(grid.size, weight, dtype=complex), grid.basis_id)


def _worst(values: list[float]) -> float:
    """Largest value, 0 for none; a NaN anywhere makes the result NaN."""
    return float(np.max(values, initial=0.0))


def worst_residual(residual: Callable[[np.ndarray], np.ndarray],
                   states: list[np.ndarray]) -> float:
    """Largest ``||residual(v)|| / ||v||`` over the states (NaN if any is NaN)."""
    return _worst([np.linalg.norm(residual(v)) / np.linalg.norm(v) for v in states])


def worst_symmetry_defect(op: Callable[[np.ndarray], np.ndarray],
                          states: list[np.ndarray]) -> float:
    """Largest normalized ``|<u, op v> - <op u, v>|`` over state pairs.

    The pairs include each state with itself, so a genuine asymmetry cannot
    hide behind small overlaps.  ``op`` is applied once per state and the
    images are reused across pairs; a NaN defect makes the result NaN.
    """
    images = [op(v) for v in states]
    norms = [np.linalg.norm(v) for v in states]
    return _worst([abs(np.vdot(states[i], images[j]) - np.vdot(images[i], states[j]))
                   / (norms[i] * norms[j])
                   for i in range(len(states)) for j in range(i, len(states))])
