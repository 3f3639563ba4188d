"""Half-form quantization on the vertical polarization of T*R^n.

States are functions of q alone with the grid measure playing the role of
the squared half-form; no explicit square-root bundle object is needed on
flat configuration space.  An observable at most linear in momentum,
f = u(q) + v(q).p, quantizes to

    Q_f = P_f on p-independent sections - (i*hbar/2) div(v)
        = -i*hbar * v.d/dq + u - (i*hbar/2) div(v),

with P_f the prequantum operator, whose symbolic split of f in
:mod:`geoquant.prequant.gridops` gives both operators their first-order
parts.  The divergence term is exactly what makes Q_f symmetric for real u,
v.  Q_f is one :class:`~geoquant.grid.FirstOrderOperator`, which acts
matrix-free by FFT: :func:`quantize_halfform` returns it as the entries of
an operator matrix, and the commutator and symmetry checks apply it
directly.  Observables with any p-degree >= 2 do not preserve the
polarization and are rejected; their evolution belongs to the pairing
machinery in :mod:`geoquant.bks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PolarizationViolation, UnsupportedObservable
from .grid import (FirstOrderOperator, UniformGrid, interior_states, worst_residual,
                   worst_symmetry_defect)
from .linalg import OperatorMatrix
from .polynomials import Polynomial
from .prequant.gridops import _prequant_parts
from .prequant.observables import Observable

__all__ = [
    "ConfigGrid",
    "quantize_halfform",
    "check_canonical_commutator",
    "check_selfadjoint",
]


@dataclass(frozen=True)
class ConfigGrid(UniformGrid):
    """Uniform cell-centered grid over configuration space, n = 1 or 2."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    counts: tuple[int, ...]

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
    def line(cls, lo: float, hi: float, count: int) -> "ConfigGrid":
        return cls((lo,), (hi,), (count,))

    @property
    def n(self) -> int:
        return len(self.mins)

    @property
    def basis_id(self) -> str:
        spans = "x".join(f"[{lo!r},{hi!r}]{c}"
                         for lo, hi, c in zip(self.mins, self.maxs, self.counts))
        return f"cfggrid/n{self.n}/{spans}"


def _on_q(poly: Polynomial, n: int) -> Polynomial:
    """A p-independent phase-space polynomial as a polynomial in q alone."""
    return Polynomial(n, {expo[:n]: c for expo, c in poly.coeffs.items()})


def _halfform_operator(f: Observable, grid: ConfigGrid, hbar: float,
                       include_divergence_term: bool = True) -> FirstOrderOperator:
    """-i*hbar v.d/dq + u - (i*hbar/2) div(v) as a grid operator."""
    if f.n != grid.n:
        raise UnsupportedObservable(f"observable has n={f.n} but grid has n={grid.n}")
    n = grid.n
    if any(sum(expo[n:]) >= 2 for expo in f.poly.coeffs):
        raise PolarizationViolation(
            "p-degree >= 2 does not preserve the vertical polarization; "
            "quantize through the geoquant.bks pairing instead")
    parts, scalar = _prequant_parts(f, hbar)
    # the i*hbar df/dq_a d/dp_a terms annihilate p-independent sections
    parts = [(factor, _on_q(poly, n), axis) for factor, poly, axis in parts if axis < n]
    *fields, scalar_field = grid.sample([poly for _, poly, _ in parts] + [_on_q(scalar, n)])
    if include_divergence_term:
        div = sum((poly.differentiate(axis) for _, poly, axis in parts), Polynomial.zero(n))
        scalar_field = scalar_field - 0.5j * hbar * grid.sample([div])[0].real
    terms = [(factor, field, axis) for (factor, _, axis), field in zip(parts, fields)]
    return FirstOrderOperator(grid, terms, scalar_field)


def quantize_halfform(f: Observable, grid: ConfigGrid, hbar: float) -> OperatorMatrix:
    """-i*hbar v.d/dq + u - (i*hbar/2) div(v) on the grid, as an operator matrix.

    Entries are the matrix-free
    :class:`~geoquant.grid.FirstOrderOperator`; ``.dense()`` materializes
    them for small grids.  Raises :class:`PolarizationViolation` for any
    p-degree >= 2 and :class:`UnsupportedObservable` when the observable's
    n is not the grid's.
    """
    return OperatorMatrix(_halfform_operator(f, grid, hbar), grid.basis_id)


def check_canonical_commutator(grid: ConfigGrid, hbar: float, a: int = 0, b: int = 0,
                               states: list[np.ndarray] | None = None) -> float:
    """Residual of [q^a, p^b] - i*hbar*delta_ab on interior test vectors.

    Both operators act matrix-free, so the check runs at full grid sizes.
    """
    q_op = _halfform_operator(Observable.coordinate(grid.n, a), grid, hbar).apply
    p_op = _halfform_operator(Observable.momentum(grid.n, b), grid, hbar).apply
    if states is None:
        states = interior_states(grid, seed=5)
    delta = 1.0 if a == b else 0.0
    return worst_residual(
        lambda v: q_op(p_op(v)) - p_op(q_op(v)) - 1j * hbar * delta * v, states)


def check_selfadjoint(f: Observable, grid: ConfigGrid, hbar: float,
                      states: list[np.ndarray] | None = None,
                      include_divergence_term: bool = True) -> float:
    """Normalized symmetry defect max |<u, Q v> - <Q u, v>| over a test panel.

    The operator acts matrix-free, as in :func:`check_canonical_commutator`.
    ``include_divergence_term=False`` drops the half-form correction; it is a
    negative control, not a physically meaningful operator.
    """
    op = _halfform_operator(f, grid, hbar, include_divergence_term)
    if states is None:
        states = interior_states(grid, seed=5)
    return worst_symmetry_defect(op.apply, states)
