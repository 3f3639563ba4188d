import math

import numpy as np
import pytest

from geoquant import fock
from geoquant.errors import PolarizationViolation
from geoquant.fock import (FockBasis, fock_gram, fock_gram_quadrature,
                           op_lower, op_raise, oscillator_hamiltonian,
                           polarization_preserving)
from geoquant.linalg import adjoint_wrt, commutator, real_spectrum


def test_dimension_is_stars_and_bars():
    for n, d in [(1, 8), (2, 4), (3, 3)]:
        assert FockBasis(n, d).dim == math.comb(n + d, n)


def test_gram_monomial_norms():
    basis = FockBasis(1, 3, hbar=1.0)
    diag = np.diag(fock_gram(basis).entries).real
    assert np.allclose(diag, [1.0, 2.0, 8.0, 48.0])  # (2 hbar)^m m!


def test_gram_scales_with_hbar():
    basis = FockBasis(1, 2, hbar=0.5)
    diag = np.diag(fock_gram(basis).entries).real
    assert np.allclose(diag, [1.0, 1.0, 2.0])


def test_gram_quadrature_oracle_matches_closed_form():
    """Radial Gaussian quadrature pins the closed form, including <1,1> = 1."""
    for hbar in (1.0, 0.5):
        basis = FockBasis(1, 4, hbar=hbar)
        closed = np.diag(fock_gram(basis).entries).real
        quad = fock_gram_quadrature(basis).entries
        offdiag = quad - np.diag(np.diag(quad))
        assert np.max(np.abs(offdiag)) < 1e-12 * closed.max()
        assert np.max(np.abs(np.diag(quad).real - closed) / closed) < 1e-10
        assert np.diag(quad).real[0] == pytest.approx(1.0, abs=1e-10)


def test_gram_quadrature_two_axes():
    basis = FockBasis(2, 2)
    closed = np.diag(fock_gram(basis).entries).real
    quad = np.diag(fock_gram_quadrature(basis).entries).real
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
    gram = fock_gram(basis).entries
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
    below = basis.below_top_projector()
    raise_rel = commutator(ham, up).entries - 0.5 * up.entries
    lower_rel = commutator(ham, down).entries + 0.5 * down.entries
    pair_rel = commutator(down, up).entries - 2 * 0.5 * np.eye(basis.dim)
    assert np.linalg.norm(raise_rel @ below) < 1e-12
    assert np.linalg.norm(lower_rel @ below) < 1e-12
    assert np.linalg.norm(pair_rel @ below) < 1e-12


def test_ladder_adjointness_below_top_shell():
    basis = FockBasis(1, 6)
    gram = fock_gram(basis)
    below = basis.below_top_projector()
    diff = adjoint_wrt(op_raise(basis), gram).entries - op_lower(basis).entries
    assert np.linalg.norm(diff @ below) < 1e-10


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
    below = basis.below_top_projector()
    diff = adjoint_wrt(out, gram).entries - out.entries
    assert np.linalg.norm(below @ diff @ below) < 1e-10


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
    calls = []
    original = fock.integrate.quad

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fock.integrate, "quad", counting)
    basis = FockBasis(n, degree)
    quad = np.diag(fock_gram_quadrature(basis).entries).real
    assert len(calls) == 2 * degree + 1
    closed = np.diag(fock_gram(basis).entries).real
    assert np.max(np.abs(quad - closed) / closed) < 1e-8


def test_gram_quadrature_rejects_aliasing_angular_rule():
    with pytest.raises(ValueError, match="n_angular"):
        fock_gram_quadrature(FockBasis(1, 4), n_angular=4)
