"""Sparse multivariate polynomials with exact coefficient arithmetic.

Coefficients may be ints, :class:`fractions.Fraction` or floats; arithmetic
never converts them, so symbolic identities (Jacobi, Leibniz) can be checked
exactly by feeding Fractions.  Monomials are keyed by exponent tuples.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

__all__ = ["Polynomial"]


class Polynomial:
    """Polynomial in ``nvars`` variables stored as {exponent tuple: coefficient}."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Mapping[tuple, object] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = int(nvars)
        clean: dict[tuple, object] = {}
        for expo, c in (coeffs or {}).items():
            key = tuple(int(e) for e in expo)
            if len(key) != self.nvars or any(e < 0 for e in key):
                raise ValueError(f"bad exponent tuple {expo!r} for nvars={nvars}")
            if c != 0:
                clean[key] = clean.get(key, 0) + c
                if clean[key] == 0:
                    del clean[key]
        self.coeffs = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): 1})

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            out[expo] = out.get(expo, 0) + c
        return Polynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial(self.nvars, {e: c * other for e, c in self.coeffs.items()})
        if other.nvars != self.nvars:
            raise ValueError("nvars mismatch in product")
        out: dict[tuple, object] = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return Polynomial(self.nvars, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("nvars mismatch")
            return other
        return Polynomial.constant(self.nvars, other)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.coeffs == other.coeffs
        return self.coeffs == self._coerce(other).coeffs

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    # -- calculus ------------------------------------------------------------

    def differentiate(self, index: int) -> "Polynomial":
        out: dict[tuple, object] = {}
        for expo, c in self.coeffs.items():
            e = expo[index]
            if e == 0:
                continue
            key = expo[:index] + (e - 1,) + expo[index + 1:]
            out[key] = out.get(key, 0) + e * c
        return Polynomial(self.nvars, out)

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def total_degree(self) -> int:
        """Total degree; zero polynomial reports 0."""
        if not self.coeffs:
            return 0
        return max(sum(e) for e in self.coeffs)

    def evaluate(self, *values) -> np.ndarray | float:
        """Evaluate on scalars or broadcastable arrays, one per variable."""
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} arguments, got {len(values)}")
        total = None
        for expo, c in self.coeffs.items():
            term = float(c) if not isinstance(c, complex) else complex(c)
            for v, e in zip(values, expo):
                if e:
                    term = term * np.asarray(v) ** e
            total = term if total is None else total + term
        if total is None:
            shape = np.broadcast(*[np.asarray(v) for v in values]).shape if values else ()
            return np.zeros(shape) if shape else 0.0
        return total

    def __repr__(self):
        if not self.coeffs:
            return f"Polynomial({self.nvars}, 0)"
        parts = [f"{c!r}*x^{e}" for e, c in sorted(self.coeffs.items())]
        return f"Polynomial({self.nvars}, {' + '.join(parts)})"
