"""Uniform cell-centered grids and first-order differential operators on them.

Both the phase-space grid of prequantization and the configuration grid of
half-form quantization are products of uniform axes with samples at cell
centers, spacing ``(max - min) / count``.  Their operators share one form,

    sum_k factor_k * field_k * d/dx_{axis_k}  +  scalar,

held by :class:`FirstOrderOperator`.  It is the operator's matrix on the
flattened grid and acts matrix-free: one spectral derivative by FFT along
one axis of the shaped field at a time.  No derivative matrix is built;
``toarray()`` densifies it for small grids in one batched application.
Operators applied to the same field can share its derivatives through a
``grads`` dict, so each axis of that field is transformed once however many
operators act on it.

The residual checks evaluate a panel of test states.  On large states each
panel opens a thread pool with up to one worker per core the process may
run on, and shuts it before it returns: numpy's FFTs and ufuncs release the
interpreter lock.  Results are gathered in state order, so the checks give
the same bits on any number of cores.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from .linalg import GramMatrix
from .polynomials import Polynomial
from .stencil import fft_apply, spectral_first_symbol

__all__ = [
    "UniformGrid",
    "FirstOrderOperator",
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
    after construction.  Derivatives are spectral and differentiate the
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

    def sample(self, polys: list[Polynomial]) -> list[np.ndarray]:
        """Flat samples of each :class:`Polynomial` in ``polys``.

        Each polynomial is evaluated on the axes broadcast against each
        other, so no coordinate field is built.  A real polynomial gives
        float64 samples, a complex one complex samples.
        """
        ndim = len(self.counts)
        axes = [np.reshape(x, (-1,) + (1,) * (ndim - 1 - i)) for i, x in enumerate(self.axes())]
        fields = []
        for poly in polys:
            values = np.asarray(poly.evaluate(*axes))
            field = np.empty(self.shape, dtype=values.dtype)
            field[...] = values
            fields.append(field.reshape(-1))
        return fields


def _derivative_along(grid: UniformGrid, field: np.ndarray, axis: int) -> np.ndarray:
    """Spectral first derivative by FFT along a grid axis, one of the field's last axes."""
    symbol = spectral_first_symbol(grid.counts[axis], grid.spacings[axis])
    return fft_apply(field, symbol, axis - len(grid.counts))


class FirstOrderOperator:
    """``sum factor * field * d/dx_axis + scalar`` over ``terms`` on a grid.

    ``terms`` lists ``(factor, field, axis)`` with a complex number factor
    and flat real or complex samples as field; ``scalar`` is flat real or
    complex samples, or None.  :meth:`apply` forms ``factor * field`` per
    call, so an operator holds one grid-sized array per term; real samples
    take half the memory and give the same bits, since numpy multiplies a
    complex factor by a real field as by ``field + 0j``.

    Operators applied to one field share its derivatives when each
    :meth:`apply` call on it gets the same ``grads`` dict: every axis is
    then transformed once, by the first call that needs it.  Without a
    shared dict a call keeps one derivative at a time.

    The operator is also its own square matrix on the flattened grid, the
    ``entries`` of an :class:`~geoquant.linalg.OperatorMatrix`: ``op @ v``
    applies it to a flat vector and :meth:`toarray` densifies it.
    """

    ndim = 2

    def __init__(self, grid: UniformGrid, terms: list, scalar: np.ndarray | None):
        self.grid = grid
        self.terms = terms
        self.scalar = scalar

    @property
    def shape(self) -> tuple[int, int]:
        return (self.grid.size,) * 2

    def apply(self, v: np.ndarray, grads: dict[int, np.ndarray] | None = None) -> np.ndarray:
        """Matrix-free action on a flat or shaped grid field, or a stack of flat ones.

        ``grads`` maps an axis to the shaped derivative of ``v`` along it and
        is filled on demand; it belongs to ``v`` alone.  Without it each
        derivative is dropped once its term is added.
        """
        shape = self.grid.shape
        # one field keeps the grid's shape: a leading batch axis of 1 slows apply 1.5x at 256^2
        batch = () if np.size(v) == self.grid.size else (-1,)
        field = np.asarray(v, dtype=complex).reshape(batch + shape)
        out = np.zeros_like(field)
        for factor, samples, axis in self.terms:
            if grads is None:
                grad = _derivative_along(self.grid, field, axis)
            elif axis in grads:
                grad = grads[axis]
            else:
                grad = grads[axis] = _derivative_along(self.grid, field, axis)
            out += (factor * samples.reshape(shape)) * grad
            del grad  # free an unshared derivative before the next term makes its own
        if self.scalar is not None:
            out += self.scalar.reshape(shape) * field
        return out.reshape(np.asarray(v).shape)

    def __matmul__(self, other) -> np.ndarray:
        """Product with a flat vector; anything else raises ``ValueError``."""
        v = np.asarray(other)
        if v.shape != (self.grid.size,):
            raise ValueError(f"cannot multiply a {self.shape} operator by shape {v.shape}")
        return self.apply(v)

    def toarray(self) -> np.ndarray:
        """Dense matrix on the flattened grid, for small grids: the identity's
        rows are applied as one stack, and the image of row j is column j."""
        return self.apply(np.eye(self.grid.size)).T


def interior_states(grid: UniformGrid, count: int = 4, seed: int = 7) -> list[np.ndarray]:
    """Normalized smooth bumps centred in the inner 40 percent of each axis.

    Gaussian envelopes with width about 0.1 of the half-extent and centers
    within 0.2 of it.  A width is capped at the distance to the nearer edge
    over ``_EDGE_SIGMAS``, so every envelope has fallen to machine epsilon
    of its peak at the box edge and residual checks see no edge artifacts.
    A gentle plane-wave modulation on each axis exercises complex data.
    """
    rng = np.random.default_rng(seed)
    ndim = len(grid.counts)
    # each factor is evaluated on its axis; it is materialized before the product
    # because numpy multiplies by a broadcast view in another loop, with other bits
    spread = lambda i, x: np.broadcast_to(x.reshape((-1,) + (1,) * (ndim - 1 - i)),
                                          grid.shape).copy()
    states = []
    for _ in range(count):
        psi = np.ones(grid.shape, dtype=complex)
        for i, (x, lo, hi) in enumerate(zip(grid.axes(), grid.mins, grid.maxs)):
            half = (hi - lo) / 2
            mid = (hi + lo) / 2
            sigma = half * rng.uniform(0.09, 0.11)
            center = mid + half * rng.uniform(-0.2, 0.2)
            sigma = min(sigma, (half - abs(center - mid)) / _EDGE_SIGMAS)
            psi = psi * spread(i, np.exp(-((x - center) ** 2) / (2.0 * sigma**2)))
            k = rng.uniform(-2.0, 2.0) * np.pi / half
            psi = psi * spread(i, np.exp(1j * k * (x - mid)))
        flat = psi.reshape(-1)
        states.append(flat / np.linalg.norm(flat))
    return states


def diagonal_gram(grid: UniformGrid, weight: float) -> GramMatrix:
    """Diagonal Gram of the grid quadrature with a constant weight."""
    return GramMatrix(np.full(grid.size, weight), grid.basis_id)


#: samples per state below which a panel runs serially: a 4-state map of
#: no-ops on a two-worker pool takes about 0.13 ms on a 2-core x86 VM, more
#: than the whole check of a small state
_PARALLEL_MIN_SIZE = 1 << 14


def _worker_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_states(fn: Callable[[np.ndarray], object], states: list[np.ndarray]) -> list:
    """``[fn(v) for v in states]``, with the states run concurrently where it pays.

    Serial with one worker, one state, or a state under
    ``_PARALLEL_MIN_SIZE`` samples.  Otherwise the call opens its own pool,
    one thread per state up to the core count, and shuts it on return, so
    no thread outlives the call and a nested panel never waits on the pool
    running it.  Results come back in state order either way.
    """
    workers = min(_worker_count(), len(states))
    if workers < 2 or min(np.size(v) for v in states) < _PARALLEL_MIN_SIZE:
        return [fn(v) for v in states]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers, thread_name_prefix="geoquant-panel") as pool:
        return list(pool.map(fn, states))


def _worst(values: list[float]) -> float:
    """Largest value; a NaN anywhere makes the result NaN.  An empty panel is a ``ValueError``."""
    if not values:
        raise ValueError("the test panel is empty")
    return float(np.max(values))


def worst_residual(residual: Callable[[np.ndarray], np.ndarray],
                   states: list[np.ndarray]) -> float:
    """Largest ``||residual(v)|| / ||v||`` over the states (NaN if any is NaN).

    The states run concurrently, one per core the process may run on, when
    there are several cores and states of at least ``_PARALLEL_MIN_SIZE``
    samples.  The ratios are gathered in state order, so the result has the
    same bits either way.
    An error raised by ``residual`` keeps its type; an empty panel raises ``ValueError``.
    """
    return _worst(_map_states(lambda v: np.linalg.norm(residual(v)) / np.linalg.norm(v),
                              states))


def worst_symmetry_defect(op: Callable[[np.ndarray], np.ndarray],
                          states: list[np.ndarray]) -> float:
    """Largest normalized ``|<u, op v> - <op u, v>|`` over state pairs.

    The pairs include each state with itself, so a genuine asymmetry cannot
    hide behind small overlaps.  ``op`` is applied once per state, with the
    states run as in :func:`worst_residual`, and the images are reused
    across pairs in state order, so the result has the same bits on any
    number of cores.  A NaN defect makes the result NaN.
    """
    images = _map_states(op, states)
    norms = [np.linalg.norm(v) for v in states]
    return _worst([abs(np.vdot(states[i], images[j]) - np.vdot(images[i], states[j]))
                   / (norms[i] * norms[j])
                   for i in range(len(states)) for j in range(i, len(states))])
