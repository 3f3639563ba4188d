"""Classical observables on flat phase space and their symbolic calculus.

Phase-space polynomials use variable order ``(q_1..q_n, p_1..p_n)``.  The
sign conventions are locked together: the Hamiltonian field of f is
``X_f = (df/dp_a) d/dq^a - (df/dq^a) d/dp_a``, so ``X_q = -d/dp`` and the
bracket ``{f, g} = X_f[g]`` gives ``{q, p} = -1``.  Downstream, the
quantization rule ``[Q(f), Q(g)] = -i*hbar*Q({f,g})`` then produces the
canonical commutator ``[q^, p^] = +i*hbar``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from ..errors import DegreeOverflow, UnsupportedObservable
from ..polynomials import Polynomial

__all__ = [
    "Observable",
    "poisson_bracket",
    "DEGREE_CAP",
]

#: largest total degree a phase-space polynomial observable may carry
DEGREE_CAP = 4


@dataclass(frozen=True)
class Observable:
    """Real polynomial ``poly`` in (q_1..q_n, p_1..p_n) of degree <= DEGREE_CAP.

    The sphere and cylinder models enter through the functions of
    :mod:`geoquant.prequant.sectors` and :mod:`geoquant.spin`.
    """

    n: int
    poly: Polynomial

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("half-dimension n must be >= 1")
        if self.poly.nvars != 2 * self.n:
            raise ValueError("observable needs a polynomial in 2n variables")
        if not all(isinstance(c, numbers.Real) for c in self.poly.coeffs.values()):
            raise ValueError("classical observables are real-valued")
        if not all(math.isfinite(float(c)) for c in self.poly.coeffs.values()):
            raise ValueError("coefficients must be finite")
        if self.poly.total_degree() > DEGREE_CAP:
            raise DegreeOverflow(
                f"total degree {self.poly.total_degree()} exceeds cap {DEGREE_CAP}")

    # -- convenience constructors -------------------------------------------

    @classmethod
    def from_terms(cls, n: int, terms: dict[tuple, object]) -> "Observable":
        return cls(n, Polynomial(2 * n, terms))

    @classmethod
    def coordinate(cls, n: int = 1, axis: int = 0) -> "Observable":
        if not 0 <= axis < n:
            raise ValueError(f"axis {axis} out of range for n={n}")
        return cls(n, Polynomial.variable(2 * n, axis))

    @classmethod
    def momentum(cls, n: int = 1, axis: int = 0) -> "Observable":
        if not 0 <= axis < n:
            raise ValueError(f"axis {axis} out of range for n={n}")
        return cls(n, Polynomial.variable(2 * n, n + axis))

    @classmethod
    def constant(cls, n: int, value) -> "Observable":
        return cls(n, Polynomial.constant(2 * n, value))

    # -- polynomial views ----------------------------------------------------

    def dq(self, axis: int) -> Polynomial:
        """df/dq^axis."""
        return self.poly.differentiate(axis)

    def dp(self, axis: int) -> Polynomial:
        """df/dp_axis."""
        return self.poly.differentiate(self.n + axis)


def poisson_bracket(f: Observable, g: Observable) -> Observable:
    """{f, g} = X_f[g]; antisymmetric, with {q, p} = -1 in these conventions."""
    if f.n != g.n:
        raise UnsupportedObservable("observables live on different phase spaces")
    out = Polynomial.zero(2 * f.n)
    for a in range(f.n):
        out = out + f.dp(a) * g.poly.differentiate(a)
        out = out + (-f.dq(a)) * g.poly.differentiate(f.n + a)
    if out.total_degree() > DEGREE_CAP:
        raise DegreeOverflow(
            f"bracket degree {out.total_degree()} exceeds cap {DEGREE_CAP}")
    return Observable(f.n, out)

