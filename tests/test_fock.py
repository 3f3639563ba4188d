import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoquant import fock
from geoquant.config import DEFAULT_TOLERANCES
from geoquant.demos import RunConfig, run_demo
from geoquant.errors import (BasisMismatch, DegenerateGram, PolarizationViolation,
                             QuadratureFailure)
from geoquant.fock import (FockBasis, fock_gram, fock_gram_quadrature,
                           op_lower, op_raise, oscillator_hamiltonian,
                           polarization_preserving)
from geoquant.linalg import GramMatrix, adjoint_wrt, commutator, real_spectrum


def test_dimension_is_stars_and_bars():
    for n, d in [(1, 8), (2, 4), (3, 3)]:
        assert FockBasis(n, d).dim == math.comb(n + d, n)


def test_indices_are_the_filtered_product_in_graded_order():
    for n in range(1, 5):
        for d in range(7):
            expected = sorted((m for m in product(range(d + 1), repeat=n) if sum(m) <= d),
                              key=lambda m: (sum(m), m))
            assert [tuple(m) for m in FockBasis(n, d).indices.tolist()] == expected


def test_many_axes_build_without_walking_the_product():
    """n = 12, D = 6 keeps 18,564 of the product's 7^12, about 1.4e10, tuples."""
    basis = FockBasis(12, 6)
    assert basis.dim == math.comb(18, 6)
    assert basis.index_of((6,) + (0,) * 11) == basis.dim - 1


def test_gram_monomial_norms():
    basis = FockBasis(1, 3, hbar=1.0)
    diag = fock_gram(basis).diagonal().real
    assert np.allclose(diag, [1.0, 2.0, 8.0, 48.0])  # (2 hbar)^m m!


def test_gram_scales_with_hbar():
    basis = FockBasis(1, 2, hbar=0.5)
    diag = fock_gram(basis).diagonal().real
    assert np.allclose(diag, [1.0, 1.0, 2.0])


def test_gram_quadrature_oracle_matches_closed_form():
    """Radial Gaussian quadrature pins the closed form, including <1,1> = 1."""
    for hbar in (1.0, 0.5):
        basis = FockBasis(1, 4, hbar=hbar)
        closed = fock_gram(basis).diagonal().real
        quad = fock_gram_quadrature(basis).diagonal().real
        assert np.max(np.abs(quad - closed) / closed) < 1e-10
        assert quad[0] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("hbar", [0.01, 0.001])
def test_gram_quadrature_holds_at_small_hbar(hbar):
    """Entries (2 hbar)^m m! are tiny; the oracle has no absolute floor."""
    basis = FockBasis(1, 8, hbar=hbar)
    closed = fock_gram(basis).diagonal().real
    quad = fock_gram_quadrature(basis).diagonal().real
    assert np.max(np.abs(quad - closed) / closed) < 1e-12
    report = run_demo(RunConfig(demo="fock", hbar=hbar))
    assert {c.name: c.passed for c in report.checks}["gram-quadrature"]


def test_demo_gram_quadrature_check_covers_the_whole_basis(monkeypatch):
    """A closed-form entry off by 1e-6 at m = 8, the default top degree, fails the check."""
    closed_form = fock.fock_gram

    def perturbed(basis):
        entries = closed_form(basis).diagonal().copy()
        if basis.max_degree >= 8:
            entries[basis.index_of((8,))] *= 1 + 1e-6
        return GramMatrix(entries, basis.basis_id)
    monkeypatch.setattr(fock, "fock_gram", perturbed)
    report = run_demo(RunConfig(demo="fock", degree=8))
    assert not {c.name: c.passed for c in report.checks}["gram-quadrature"]


def test_gram_quadrature_two_axes():
    basis = FockBasis(2, 2)
    closed = fock_gram(basis).diagonal().real
    quad = fock_gram_quadrature(basis).diagonal().real
    assert np.max(np.abs(quad - closed) / closed) < 1e-10


def test_raise_moves_monomials_up_with_unit_elements():
    basis = FockBasis(1, 3)
    mat = op_raise(basis).entries
    assert mat[basis.index_of((1,)), basis.index_of((0,))] == 1.0
    assert mat[basis.index_of((3,)), basis.index_of((2,))] == 1.0


def test_raise_truncates_top_shell():
    basis = FockBasis(1, 3)
    mat = op_raise(basis).entries
    assert not np.any(mat[:, basis.index_of((3,))])
    assert basis.top_shell().tolist() == [basis.index_of((3,))]


def test_lower_examples():
    basis = FockBasis(1, 3, hbar=0.5)
    mat = op_lower(basis).entries
    assert not np.any(mat[:, basis.index_of((0,))])  # constants die
    assert mat[basis.index_of((0,)), basis.index_of((1,))] == 2 * 0.5
    assert mat[basis.index_of((2,)), basis.index_of((3,))] == pytest.approx(3.0)


def test_raise_matrix_element_under_gram():
    # <z^2, z^ z^1> / <z^2, z^2> = 1
    basis = FockBasis(1, 3)
    gram = np.diag(fock_gram(basis).diagonal())
    v1 = np.zeros(basis.dim)
    v1[basis.index_of((1,))] = 1.0
    raised = op_raise(basis).entries @ v1
    z2 = np.zeros(basis.dim)
    z2[basis.index_of((2,))] = 1.0
    num = np.vdot(z2, gram @ raised)
    den = np.vdot(z2, gram @ z2)
    assert num / den == pytest.approx(1.0)


def test_oscillator_eigenvalues():
    basis = FockBasis(1, 4, hbar=1.0)
    ham = oscillator_hamiltonian(basis).entries
    assert ham[basis.index_of((0,)), basis.index_of((0,))] == pytest.approx(0.5)
    assert ham[basis.index_of((3,)), basis.index_of((3,))] == pytest.approx(3.5)
    two = FockBasis(2, 3, hbar=1.0)
    h2 = oscillator_hamiltonian(two).entries
    assert h2[two.index_of((1, 1)), two.index_of((1, 1))] == pytest.approx(3.0)


def test_oscillator_spectrum_and_multiplicities():
    basis = FockBasis(2, 4)
    vals = real_spectrum(oscillator_hamiltonian(basis), fock_gram(basis))
    expected = sorted(sum(m) + 1.0 for m in basis.indices)
    assert np.allclose(vals, expected, atol=1e-12)
    counts = [int(np.sum(np.isclose(vals, k + 1.0))) for k in range(5)]
    assert counts == [1, 2, 3, 4, 5]  # C(k + 1, 1)


def test_ladder_commutators_below_top_shell():
    basis = FockBasis(1, 6, hbar=0.5)
    ham = oscillator_hamiltonian(basis)
    up = op_raise(basis)
    down = op_lower(basis)
    below = basis.below_top_mask()
    raise_rel = commutator(ham, up).entries - 0.5 * up.entries
    lower_rel = commutator(ham, down).entries + 0.5 * down.entries
    pair_rel = commutator(down, up).entries - 2 * 0.5 * np.eye(basis.dim)
    assert np.linalg.norm(raise_rel * below) < 1e-12
    assert np.linalg.norm(lower_rel * below) < 1e-12
    assert np.linalg.norm(pair_rel * below) < 1e-12


def test_ladder_adjointness_below_top_shell():
    basis = FockBasis(1, 6)
    gram = fock_gram(basis)
    below = basis.below_top_mask()
    diff = adjoint_wrt(op_raise(basis), gram).entries - op_lower(basis).entries
    assert np.linalg.norm(diff * below) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(1, 8), st.floats(0.1, 3.0), st.data())
def test_ladder_algebra_below_top_shell_for_every_axis(n, degree, hbar, data):
    a, c = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    basis = FockBasis(n, degree, hbar)
    below = basis.below_top_mask()
    up, down_a, down_c = op_raise(basis, a), op_lower(basis, a), op_lower(basis, c)
    adj = adjoint_wrt(up, fock_gram(basis)).entries - down_a.entries
    assert np.linalg.norm(adj * below) < 1e-13 * np.linalg.norm(down_a.entries)
    pair = commutator(down_c, up).entries - 2.0 * hbar * (a == c) * np.eye(basis.dim)
    assert np.linalg.norm(pair * below) < 1e-13 * np.linalg.norm(down_c.entries)


def test_constant_observable_quantizes_to_identity():
    basis = FockBasis(1, 3)
    out = polarization_preserving(basis, f0=2.5)
    assert np.allclose(out.entries, 2.5 * np.eye(basis.dim))


def test_number_coefficient_matches_oscillator():
    # f = z zbar has c = [[1]] and equals twice the oscillator generator
    basis = FockBasis(1, 5)
    out = polarization_preserving(basis, c=np.array([[1.0]]))
    ham = oscillator_hamiltonian(basis)
    assert np.allclose(out.entries, 2.0 * ham.entries)


def test_linear_part_is_gram_hermitian():
    basis = FockBasis(1, 5)
    gram = fock_gram(basis)
    out = polarization_preserving(basis, w=np.array([1.0 + 0.5j]))
    below = basis.below_top_mask()
    diff = adjoint_wrt(out, gram).entries - out.entries
    assert np.linalg.norm(below[:, np.newaxis] * diff * below) < 1e-10


def test_polarization_violations():
    basis = FockBasis(1, 3)
    with pytest.raises(PolarizationViolation):
        polarization_preserving(basis, zz=np.array([[1.0]]))
    with pytest.raises(PolarizationViolation):
        polarization_preserving(basis, zbarzbar=np.array([[0.5]]))
    with pytest.raises(PolarizationViolation):
        polarization_preserving(basis, c=np.array([[1j]]))
    with pytest.raises(PolarizationViolation):
        polarization_preserving(basis, f0=1j)


def test_hermitian_c_two_axes():
    basis = FockBasis(2, 3)
    c = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 2.0]])
    out = polarization_preserving(basis, c=c)
    gram = fock_gram(basis)
    diff = adjoint_wrt(out, gram).entries - out.entries
    assert np.linalg.norm(diff) < 1e-10  # number-type block never truncates


@pytest.mark.parametrize("n, degree", [(1, 6), (2, 4)])
def test_gram_quadrature_tabulates_one_radial_integral_per_k(monkeypatch, n, degree):
    tables = []
    oracle = fock.polar_gram_oracle

    def recording(indices, radial, *args):
        def tabulate(points):
            table = radial(points)
            tables.append((points, table.shape))
            return table
        return oracle(indices, tabulate, *args)

    monkeypatch.setattr(fock, "polar_gram_oracle", recording)
    basis = FockBasis(n, degree)
    quad = fock_gram_quadrature(basis).diagonal().real
    assert tables == [(128, (2 * degree + 1,)), (256, (2 * degree + 1,))]
    closed = fock_gram(basis).diagonal().real
    assert np.max(np.abs(quad - closed) / closed) < 1e-8


@pytest.mark.parametrize("n, degree", [(1, 5), (1, 40), (2, 4)])
def test_gram_quadrature_refuses_off_diagonal_entries_past_quadrature_zero(n, degree):
    """Off-diagonal round-off is about 1e-16 of sqrt(G_mm G_m'm'); a bound of 0 refuses it."""
    strict = DEFAULT_TOLERANCES.override(quadrature_zero=0.0)
    basis = FockBasis(n, degree)
    with pytest.raises(QuadratureFailure, match=rf"^fock/n{n}/D{degree}/hbar1\.0: \|G_mm'\|"):
        fock_gram_quadrature(basis, tolerances=strict)
    assert fock_gram_quadrature(basis).entries.shape == (basis.dim,)


@pytest.mark.parametrize("hbar", [np.nan, np.inf, -np.inf, 0.0])
def test_basis_rejects_hbar_that_is_not_positive_and_finite(hbar):
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        FockBasis(1, 3, hbar)


def test_gram_quadrature_doubling_guard_fires_on_too_few_nodes(monkeypatch):
    monkeypatch.setattr(fock, "_RADIAL_POINTS", 16)
    with pytest.raises(QuadratureFailure) as err:
        fock_gram_quadrature(FockBasis(1, 40))
    assert err.value.doubling_delta > DEFAULT_TOLERANCES.quadrature_goal


@settings(max_examples=30, deadline=None)
@given(degree=st.integers(min_value=0, max_value=40),
       hbar=st.floats(min_value=1e-3, max_value=4.0))
def test_gram_quadrature_matches_gamma_closed_form(degree, hbar):
    basis = FockBasis(1, degree, hbar=hbar)
    closed = fock_gram(basis).diagonal().real
    quad = fock_gram_quadrature(basis)
    assert np.max(np.abs(quad.diagonal().real - closed) / closed) <= 1e-12


def test_indices_are_one_read_only_int_array():
    basis = FockBasis(2, 3)
    assert basis.indices.shape == (basis.dim, 2) and basis.indices.dtype.kind == "i"
    assert not basis.indices.flags.writeable
    assert basis.indices[:4].tolist() == [[0, 0], [0, 1], [1, 0], [0, 2]]
    assert basis.index_of(tuple(basis.indices[5])) == 5


@pytest.mark.parametrize("n, degree", [(1, 40), (2, 24), (3, 12)])
@pytest.mark.parametrize("hbar", [0.5, 0.7, 1.0, 2.0])
def test_gram_is_the_python_float_product_bit_for_bit(n, degree, hbar):
    # each factor (2*hbar)^k k! is a Python float; numpy's array power rounds some otherwise
    basis = FockBasis(n, degree, hbar)
    expected = [math.prod((2.0 * hbar) ** k * math.factorial(k) for k in m)
                for m in basis.indices.tolist()]
    assert fock_gram(basis).diagonal().real.tolist() == expected


@pytest.mark.parametrize("n, degree, hbar, first", [
    (1, 171, 1.0, r"inf at m = \(151,\)"),        # 171! no longer converts to a float
    (1, 150, 4.0, r"inf at m = \(121,\)"),        # a finite factor times a finite factor
    (2, 171, 1.0, r"inf at m = \(0, 151\)"),      # the first of the graded order
    (1, 200, 1e-3, r"0 at m = \(120,\)")])        # (2*hbar)^k underflows first
def test_gram_names_the_first_entry_that_is_not_finite_and_positive(n, degree, hbar, first):
    with pytest.raises(DegenerateGram, match=rf"^{FockBasis(n, degree, hbar).basis_id}: "
                                             rf"<z\^m, z\^m> = {first} is not finite"):
        fock_gram(FockBasis(n, degree, hbar))


def test_basis_id_tells_hbar_apart_past_six_digits():
    # the two values agree to six significant digits
    with pytest.raises(BasisMismatch):
        commutator(op_lower(FockBasis(1, 3, 1.0)), op_raise(FockBasis(1, 3, 1.0000001)))
    assert FockBasis(1, 3, 1).basis_id == FockBasis(1, 3, 1.0).basis_id
