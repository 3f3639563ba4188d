"""Half-form quantization on the vertical polarization of T*R^n.

States are functions of q alone with the grid measure playing the role of
the squared half-form; no explicit square-root bundle object is needed on
flat configuration space.  An observable at most linear in momentum,
f = u(q) + v(q).p, quantizes to

    Q_f = -i*hbar * v.d/dq + u - (i*hbar/2) div(v),

and the divergence term is exactly what makes Q_f symmetric for real u, v.
Q_f is one :class:`~geoquant.grid.FirstOrderOperator`:
:func:`quantize_halfform` assembles its sparse matrix, and the commutator
and symmetry checks apply it matrix-free.  Observables with any p-degree
>= 2 do not preserve the polarization and are rejected; their evolution
belongs to the pairing machinery in :mod:`geoquant.bks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PolarizationViolation
from .grid import (FirstOrderOperator, UniformGrid, _derivative_along, diagonal_gram,
                   interior_states, worst_residual, worst_symmetry_defect)
from .linalg import GramMatrix, OperatorMatrix
from .polynomials import Polynomial
from .prequant.observables import Observable

__all__ = [
    "ConfigGrid",
    "LinearInP",
    "quantize_halfform",
    "divergence",
    "config_gram",
    "check_canonical_commutator",
    "check_selfadjoint",
    "reject_nonlinear",
]


@dataclass(frozen=True)
class ConfigGrid(UniformGrid):
    """Uniform cell-centered grid over configuration space, n = 1 or 2."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    counts: tuple[int, ...]
    scheme: str = "fd4"

    def __post_init__(self):
        object.__setattr__(self, "mins", tuple(float(x) for x in self.mins))
        object.__setattr__(self, "maxs", tuple(float(x) for x in self.maxs))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if not 1 <= self.n <= 2:
            raise ValueError("configuration dimension must be 1 or 2")
        if len(self.maxs) != self.n or len(self.counts) != self.n:
            raise ValueError("mins/maxs/counts must have equal length")
        self._validate(min_count=16)

    @classmethod
    def line(cls, lo: float, hi: float, count: int, scheme: str = "fd4") -> "ConfigGrid":
        return cls((lo,), (hi,), (count,), scheme)

    @property
    def n(self) -> int:
        return len(self.mins)

    @property
    def basis_id(self) -> str:
        spans = "x".join(f"[{lo:g},{hi:g}]{c}"
                         for lo, hi, c in zip(self.mins, self.maxs, self.counts))
        return f"cfggrid/n{self.n}/{spans}/{self.scheme}"


@dataclass(frozen=True)
class LinearInP:
    """Observable f = u(q) + v(q).p with u and per-axis v polynomial or callable."""

    n: int
    u: object
    v: tuple

    def __post_init__(self):
        if len(self.v) != self.n:
            raise ValueError("v must supply one component per axis")
        for comp in (self.u, *self.v):
            if not (comp is None or isinstance(comp, Polynomial) or callable(comp)):
                raise TypeError("coefficients must be Polynomial, callable or None")
            if isinstance(comp, Polynomial) and comp.nvars != self.n:
                raise ValueError("coefficient polynomial has wrong variable count")

    @classmethod
    def from_parts(cls, n: int, u=None, v: Sequence | None = None) -> "LinearInP":
        v = tuple(v) if v is not None else (None,) * n
        return cls(n, u, v)


def divergence(f: LinearInP, grid: ConfigGrid) -> tuple[np.ndarray, str]:
    """div(v) sampled on the grid and the evaluation path used.

    Only v enters.  Polynomial (or absent) components are differentiated
    exactly ("analytic"); a callable component sends the whole divergence
    through the grid's matrix-free derivative ("stencil").
    """
    if all(comp is None or isinstance(comp, Polynomial) for comp in f.v):
        total = Polynomial.zero(grid.n)
        for a, comp in enumerate(f.v):
            if comp is not None:
                total = total + comp.differentiate(a)
        return grid.sample([total])[0].real, "analytic"
    total = np.zeros(grid.shape, dtype=complex)
    for a, field in enumerate(grid.sample(f.v)):
        if f.v[a] is not None:
            total = total + _derivative_along(grid, field.reshape(grid.shape), a)
    return total.reshape(-1).real, "stencil"


def _halfform_operator(f: LinearInP, grid: ConfigGrid, hbar: float,
                       include_divergence_term: bool = True) -> FirstOrderOperator:
    """-i*hbar v.d/dq + u - (i*hbar/2) div(v) as a grid operator description."""
    if f.n != grid.n:
        raise ValueError(f"observable has n={f.n} but grid has n={grid.n}")
    scalar, *fields = grid.sample([f.u, *f.v])
    terms = [(-1j * hbar, va, a) for a, va in enumerate(fields) if np.any(va)]
    if include_divergence_term:
        div, _ = divergence(f, grid)
        scalar = scalar - 0.5j * hbar * div
    return FirstOrderOperator(grid, terms, scalar)


def quantize_halfform(f: LinearInP, grid: ConfigGrid, hbar: float,
                      include_divergence_term: bool = True) -> OperatorMatrix:
    """Sparse matrix of -i*hbar v.d/dq + u - (i*hbar/2) div(v).

    ``include_divergence_term=False`` drops the half-form correction; it
    exists as a negative control for the self-adjointness checks and is not
    a physically meaningful operator.  ``.dense()`` materializes the entries
    for small grids.
    """
    op = _halfform_operator(f, grid, hbar, include_divergence_term)
    return OperatorMatrix(op.matrix(), grid.basis_id)


def config_gram(grid: ConfigGrid) -> GramMatrix:
    """Sparse diagonal Gram of the grid quadrature (measure d^n q)."""
    return diagonal_gram(grid, grid.cell_volume)


def check_canonical_commutator(grid: ConfigGrid, hbar: float, a: int = 0, b: int = 0,
                               states: list[np.ndarray] | None = None,
                               seed: int = 5) -> float:
    """Residual of [q^a, p^b] - i*hbar*delta_ab on interior test vectors.

    Both operators act matrix-free, so the check runs at full grid sizes.
    """
    n = grid.n
    q_op = _halfform_operator(
        LinearInP.from_parts(n, u=Polynomial.variable(n, a)), grid, hbar).apply
    p_op = _halfform_operator(
        LinearInP.from_parts(n, v=[Polynomial.constant(n, 1) if i == b else None
                                   for i in range(n)]), grid, hbar).apply
    if states is None:
        states = interior_states(grid, seed=seed)
    delta = 1.0 if a == b else 0.0
    return worst_residual(
        lambda v: q_op(p_op(v)) - p_op(q_op(v)) - 1j * hbar * delta * v, states)


def check_selfadjoint(f: LinearInP, grid: ConfigGrid, hbar: float,
                      states: list[np.ndarray] | None = None, seed: int = 5,
                      include_divergence_term: bool = True) -> float:
    """Normalized symmetry defect max |<u, Q v> - <Q u, v>| over a test panel.

    The operator acts matrix-free, as in :func:`check_canonical_commutator`.
    """
    op = _halfform_operator(f, grid, hbar, include_divergence_term)
    if states is None:
        states = interior_states(grid, seed=seed)
    return worst_symmetry_defect(op.apply, states)


def reject_nonlinear(f: Observable) -> LinearInP:
    """Split a phase-space observable into u(q) + v(q).p or refuse.

    Any p-degree >= 2 content breaks the vertical polarization: no operator
    is constructed and the caller is pointed at the pairing-based evolution
    in :mod:`geoquant.bks`.
    """
    poly = f.poly
    n = f.n
    u = Polynomial.zero(n)
    v = [Polynomial.zero(n) for _ in range(n)]
    for expo, c in poly.coeffs.items():
        q_part, p_part = expo[:n], expo[n:]
        p_degree = sum(p_part)
        if p_degree == 0:
            u = u + Polynomial.monomial(n, q_part, c)
        elif p_degree == 1:
            axis = next(i for i, e in enumerate(p_part) if e == 1)
            v[axis] = v[axis] + Polynomial.monomial(n, q_part, c)
        else:
            raise PolarizationViolation(
                "p-degree >= 2 does not preserve the vertical polarization; "
                "quantize through the geoquant.bks pairing instead")
    return LinearInP.from_parts(
        n,
        u=None if u.is_zero else u,
        v=[None if comp.is_zero else comp for comp in v])
