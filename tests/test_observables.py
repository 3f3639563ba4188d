from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoquant.errors import DegreeOverflow
from geoquant.polynomials import Polynomial
from geoquant.prequant import Observable, poisson_bracket


def obs(n, terms):
    return Observable.from_terms(n, terms)


def test_bracket_of_q_and_p_is_minus_one():
    br = poisson_bracket(Observable.coordinate(), Observable.momentum())
    assert br.poly == Polynomial.constant(2, -1)


def test_bracket_with_itself_vanishes():
    f = obs(1, {(2, 0): 1, (1, 1): 2, (0, 1): 3})
    assert poisson_bracket(f, f).poly.is_zero


def test_bracket_qsquared_p():
    # {q^2, p} = X_{q^2}[p] = -2q
    br = poisson_bracket(obs(1, {(2, 0): 1}), Observable.momentum())
    assert br.poly == Polynomial(2, {(1, 0): -2})


def test_two_degrees_of_freedom_brackets():
    q1 = Observable.coordinate(n=2, axis=0)
    p2 = Observable.momentum(n=2, axis=1)
    assert poisson_bracket(q1, p2).poly.is_zero
    p1 = Observable.momentum(n=2, axis=0)
    assert poisson_bracket(q1, p1).poly == Polynomial.constant(4, -1)


def _coeff():
    return st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _quadratic(n=1):
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    return st.fixed_dictionaries({e: _coeff() for e in exps}).map(
        lambda terms: Observable.from_terms(n, terms))


@settings(max_examples=30, deadline=None)
@given(_quadratic(), _quadratic())
def test_bracket_antisymmetry_exact(f, g):
    lhs = poisson_bracket(f, g).poly
    rhs = poisson_bracket(g, f).poly
    assert lhs == -rhs


@settings(max_examples=25, deadline=None)
@given(_quadratic(), _quadratic(), _quadratic())
def test_jacobi_identity_exact(f, g, h):
    total = (poisson_bracket(f, poisson_bracket(g, h)).poly
             + poisson_bracket(g, poisson_bracket(h, f)).poly
             + poisson_bracket(h, poisson_bracket(f, g)).poly)
    assert total.is_zero


def test_degree_cap_on_construction():
    with pytest.raises(DegreeOverflow):
        obs(1, {(5, 0): 1})


def test_degree_cap_on_bracket():
    quartic_q = obs(1, {(4, 0): 1})
    quartic_p = obs(1, {(0, 4): 1})
    with pytest.raises(DegreeOverflow):
        poisson_bracket(quartic_q, quartic_p)  # degree 6 result


def test_complex_coefficients_rejected():
    """A complex-typed coefficient is refused even when its imaginary part is 0."""
    for value in (1j, 1 + 0j, np.complex128(2)):
        with pytest.raises(ValueError, match="classical observables are real-valued"):
            obs(1, {(1, 0): value})


@pytest.mark.parametrize("value", [2, 2.5, Fraction(1, 3), np.float64(2)])
def test_real_coefficient_types_accepted(value):
    assert obs(1, {(1, 0): value}).poly.coeffs == {(1, 0): value}


@pytest.mark.parametrize("n, axis", [(1, 1), (1, -1), (2, 2), (2, -1)])
def test_axis_out_of_range_rejected(n, axis):
    for make in (Observable.coordinate, Observable.momentum):
        with pytest.raises(ValueError, match="out of range"):
            make(n, axis)


@pytest.mark.parametrize("index", [-1, 4])
def test_variable_index_out_of_range_rejected(index):
    with pytest.raises(ValueError, match="out of range"):
        Polynomial.variable(4, index)
