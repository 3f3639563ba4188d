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
from dataclasses import dataclass

from ..errors import DegreeOverflow, UnsupportedObservable
from ..polynomials import Polynomial

__all__ = [
    "Observable",
    "HamiltonianField",
    "hamiltonian_vector_field",
    "poisson_bracket",
    "lie_bracket",
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
        if not self.poly.is_real():
            raise ValueError("classical observables are real-valued")
        if not all(math.isfinite(float(c)) for c in self.poly.coeffs.values()):
            raise ValueError("coefficients must be finite")
        if self.poly.total_degree() > DEGREE_CAP:
            raise DegreeOverflow(
                f"total degree {self.poly.total_degree()} exceeds cap {DEGREE_CAP}")

    # -- convenience constructors -------------------------------------------

    @classmethod
    def from_poly(cls, poly: Polynomial, n: int | None = None) -> "Observable":
        n = poly.nvars // 2 if n is None else n
        return cls(n, poly)

    @classmethod
    def from_terms(cls, n: int, terms: dict[tuple, object]) -> "Observable":
        return cls.from_poly(Polynomial(2 * n, terms), n)

    @classmethod
    def coordinate(cls, n: int = 1, axis: int = 0) -> "Observable":
        if not 0 <= axis < n:
            raise ValueError(f"axis {axis} out of range for n={n}")
        return cls.from_poly(Polynomial.variable(2 * n, axis), n)

    @classmethod
    def momentum(cls, n: int = 1, axis: int = 0) -> "Observable":
        if not 0 <= axis < n:
            raise ValueError(f"axis {axis} out of range for n={n}")
        return cls.from_poly(Polynomial.variable(2 * n, n + axis), n)

    @classmethod
    def constant(cls, n: int, value) -> "Observable":
        return cls.from_poly(Polynomial.constant(2 * n, value), n)

    # -- polynomial views ----------------------------------------------------

    def dq(self, axis: int) -> Polynomial:
        """df/dq^axis."""
        return self.poly.differentiate(axis)

    def dp(self, axis: int) -> Polynomial:
        """df/dp_axis."""
        return self.poly.differentiate(self.n + axis)


@dataclass(frozen=True)
class HamiltonianField:
    """Components of X_f: ``dq[a] = df/dp_a`` and ``dp[a] = -df/dq^a``."""

    n: int
    dq: tuple
    dp: tuple

    def apply(self, g: Polynomial) -> Polynomial:
        """Directional derivative X_f[g] of a phase-space polynomial."""
        out = Polynomial.zero(2 * self.n)
        for a in range(self.n):
            out = out + self.dq[a] * g.differentiate(a)
            out = out + self.dp[a] * g.differentiate(self.n + a)
        return out

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.dq) and all(c.is_zero for c in self.dp)


def hamiltonian_vector_field(f: Observable) -> HamiltonianField:
    """Hamiltonian vector field of a polynomial observable, by exact differentiation."""
    dq = tuple(f.dp(a) for a in range(f.n))
    dp = tuple(-f.dq(a) for a in range(f.n))
    return HamiltonianField(f.n, dq, dp)


def poisson_bracket(f: Observable, g: Observable) -> Observable:
    """{f, g} = X_f[g]; antisymmetric, with {q, p} = -1 in these conventions."""
    if f.n != g.n:
        raise UnsupportedObservable("observables live on different phase spaces")
    out = hamiltonian_vector_field(f).apply(g.poly)
    if out.total_degree() > DEGREE_CAP:
        raise DegreeOverflow(
            f"bracket degree {out.total_degree()} exceeds cap {DEGREE_CAP}")
    return Observable.from_poly(out, f.n)


def lie_bracket(x: HamiltonianField, y: HamiltonianField) -> HamiltonianField:
    """Lie bracket [X, Y] of two polynomial vector fields, componentwise."""
    if x.n != y.n:
        raise ValueError("vector fields live on different phase spaces")
    dq = tuple(x.apply(y.dq[a]) - y.apply(x.dq[a]) for a in range(x.n))
    dp = tuple(x.apply(y.dp[a]) - y.apply(x.dp[a]) for a in range(x.n))
    return HamiltonianField(x.n, dq, dp)
