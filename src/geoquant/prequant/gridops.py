"""Prequantization operators on a truncated (q, p) grid.

The gauge is fixed to the canonical potential ``theta = p . dq`` throughout,
so the operator assigned to f is

    P_f = -i*hbar * X_f  -  p . (df/dp)  +  f,

discretized with the spectral derivative of :mod:`geoquant.stencil`.
The operator is a :class:`PrequantApplier`, which acts matrix-free by FFT
and stores one grid-sized field per term; :func:`prequantize` returns it
as the entries of an :class:`~geoquant.linalg.OperatorMatrix`.  The
commutation residuals are evaluated by applying operators to interior test
vectors rather than by materializing matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UnsupportedObservable
from ..grid import (FirstOrderOperator, UniformGrid, diagonal_gram, interior_states,
                    worst_residual, worst_symmetry_defect)
from ..linalg import GramMatrix, OperatorMatrix
from ..polynomials import Polynomial
from .observables import Observable, poisson_bracket

__all__ = [
    "PhaseSpaceGrid",
    "PrequantApplier",
    "prequantize",
    "liouville_gram",
    "check_dirac",
    "selfadjoint_residual",
]


@dataclass(frozen=True)
class PhaseSpaceGrid(UniformGrid):
    """Uniform cell-centered grid over (q, p) in n = 1 or 2 degrees of freedom.

    For n = 2 both q axes share the q extents and both p axes the p extents.
    Spacing is ``(max - min) / count`` and samples sit at cell centers; the
    axes are flattened in the order q_1..q_n, p_1..p_n.
    """

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    n_q: int
    n_p: int
    n: int = 1
    # the only scheme; kept as a field while perfbench/workloads.py passes it
    scheme: str = "spectral"

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only n = 1 or 2 degrees of freedom are supported")
        if self.scheme != "spectral":
            raise ValueError(f"unknown scheme {self.scheme!r}; the only one is 'spectral'")
        self._validate(min_count=8)

    @property
    def mins(self) -> tuple:
        return (self.q_min,) * self.n + (self.p_min,) * self.n

    @property
    def maxs(self) -> tuple:
        return (self.q_max,) * self.n + (self.p_max,) * self.n

    @property
    def counts(self) -> tuple[int, ...]:
        return (self.n_q,) * self.n + (self.n_p,) * self.n

    @property
    def h_q(self) -> float:
        return self.spacings[0]

    @property
    def h_p(self) -> float:
        return self.spacings[-1]

    @property
    def q_axis(self) -> np.ndarray:
        return self.axis(0)

    @property
    def p_axis(self) -> np.ndarray:
        return self.axis(self.n)

    @property
    def basis_id(self) -> str:
        return (f"psgrid/n{self.n}/q[{float(self.q_min)!r},{float(self.q_max)!r}]x{self.n_q}"
                f"/p[{float(self.p_min)!r},{float(self.p_max)!r}]x{self.n_p}")


def _prequant_parts(f: Observable, hbar: float) -> tuple[list, Polynomial]:
    """First-order parts of P_f = -i*hbar*X_f - p.(df/dp) + f, symbolically.

    Returns the ``(factor, coefficient polynomial, axis)`` terms, one per
    nonzero partial derivative of f, and the scalar f - p.(df/dp).  Raises
    ``ValueError`` unless ``hbar`` is positive and finite; prequantization and
    the half-form quantization both build through here.
    """
    if not 0 < hbar < np.inf:
        raise ValueError("hbar must be positive and finite")
    n = f.n
    parts = []
    scalar = Polynomial(2 * n, dict(f.poly.coeffs))
    for a in range(n):
        fp = f.dp(a)
        fq = f.dq(a)
        if not fp.is_zero:
            parts.append((-1j * hbar, fp, a))
            # theta contraction in the p.dq gauge: subtract p_a * df/dp_a
            scalar = scalar - Polynomial.variable(2 * n, n + a) * fp
        if not fq.is_zero:
            parts.append((1j * hbar, fq, n + a))
    return parts, scalar


def _prequant_terms(f: Observable, grid: PhaseSpaceGrid, hbar: float) -> tuple:
    """Terms and scalar of P_f = -i*hbar*X_f - p.(df/dp) + f on the grid."""
    if f.n != grid.n:
        raise UnsupportedObservable(f"observable has n={f.n} but grid has n={grid.n}")
    parts, scalar = _prequant_parts(f, hbar)
    *fields, scalar_field = grid.sample([poly for _, poly, _ in parts] + [scalar])
    terms = [(factor, field, axis) for (factor, _, axis), field in zip(parts, fields)]
    return terms, None if scalar.is_zero else scalar_field


class PrequantApplier(FirstOrderOperator):
    """Matrix-free action of P_f on flat or shaped grid fields.

    Calling it is ``prequantize(...).entries @ v`` on any field shape; both
    apply the 1D derivatives axis by axis, which keeps the commutation
    checks fast at full grid sizes.
    """

    def __init__(self, f: Observable, grid: PhaseSpaceGrid, hbar: float):
        super().__init__(grid, *_prequant_terms(f, grid, hbar))

    def __call__(self, v: np.ndarray, grads: dict[int, np.ndarray] | None = None) -> np.ndarray:
        return self.apply(v, grads)


def prequantize(f: Observable, grid: PhaseSpaceGrid, hbar: float) -> OperatorMatrix:
    """P_f = -i*hbar*X_f - p.(df/dp) + f on the grid, as an operator matrix.

    Entries are the matrix-free :class:`PrequantApplier`; ``entries @ v``
    applies it to a flat vector and ``.dense()`` materializes it for small
    grids.
    """
    return OperatorMatrix(PrequantApplier(f, grid, hbar), grid.basis_id)


def liouville_gram(grid: PhaseSpaceGrid, hbar: float) -> GramMatrix:
    """Diagonal Gram of the grid quadrature with Liouville normalization."""
    if not 0 < hbar < np.inf:
        raise ValueError("hbar must be positive and finite")
    return diagonal_gram(grid, (grid.h_q * grid.h_p / (2.0 * np.pi * hbar)) ** grid.n)


interior_test_states = interior_states  # kept while perfbench/workloads.py calls it


def check_dirac(f: Observable, g: Observable, grid: PhaseSpaceGrid, hbar: float,
                states: list[np.ndarray] | None = None) -> float:
    """Residual of [P_f, P_g] + i*hbar*P_{f,g} on interior test vectors.

    Returns the worst ratio ||R v|| / ||v|| over the panel.  The commutator
    is evaluated by operator application, never as a matrix product, so the
    check runs at full grid sizes.  P_g v, P_f v and P_{f,g} v share one
    set of derivatives of v, so each state costs one derivative of v per
    axis plus those of P_g v and P_f v.

    Memory: on large grids the states run concurrently (see
    :func:`~geoquant.grid.worst_residual`), so each state holds little.
    v's derivatives are freed before the compositions, P_g v once
    P_f(P_g v) is formed, each composition keeps one derivative at a
    time, and the operators' fields of real observables are real.  Four
    states at 256² on two workers peak at 16.8 MiB traced, under the
    17.0 MiB of one state at a time with complex fields.

    On spectral grids the residual has a round-off floor that grows as N²:
    FFT round-off spreads evenly over the box and is then multiplied by the
    coefficient fields, largest at the corners.  For random quadratics on
    [-8, 8]² it reads about 1.6e-11 at 256² and 6.7e-11 at 512², far below
    ``Tolerances.grid``.
    """
    pf = PrequantApplier(f, grid, hbar)
    pg = PrequantApplier(g, grid, hbar)
    pfg = PrequantApplier(poisson_bracket(f, g), grid, hbar)
    if states is None:
        states = interior_states(grid, seed=7)

    def residual(v: np.ndarray) -> np.ndarray:
        grads = {}
        gv, fv, fgv = pg(v, grads), pf(v, grads), pfg(v, grads)
        del grads  # free v's derivatives before the compositions make their own
        r = pf(gv)
        del gv
        r -= pg(fv)
        r += 1j * hbar * fgv
        return r

    return worst_residual(residual, states)


def selfadjoint_residual(f: Observable, grid: PhaseSpaceGrid, hbar: float,
                         states: list[np.ndarray] | None = None) -> float:
    """Symmetry defect |<u, P_f v> - <P_f u, v>| on interior pairs, normalized.

    The Liouville weight is constant on the grid, so it cancels from the
    normalized defect and the plain Euclidean inner product is used.
    """
    if states is None:
        states = interior_states(grid, count=4, seed=11)
    return worst_symmetry_defect(PrequantApplier(f, grid, hbar), states)
