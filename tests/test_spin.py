import itertools
import math

import numpy as np
import pytest

from geoquant import spin
from geoquant.linalg import adjoint_wrt, real_spectrum
from geoquant.spin import (METAPLECTIC_CORRECTION_APPLIED, SpinBasis,
                           check_su2, orthonormal_basis, spin_gram,
                           spin_gram_quadrature, spin_operators)
from geoquant.spin_derivation import derive_operator_symbols


def test_dimension_is_n_plus_one():
    for n in range(21):
        assert SpinBasis(n).dim == n + 1


def test_gram_frozen_values():
    # Beta-integral closed form: m!(n-m)!/(n+1)!
    g2 = np.diag(spin_gram(SpinBasis(2)).entries).real
    assert g2[1] == pytest.approx(1.0 / 6.0)
    g1 = np.diag(spin_gram(SpinBasis(1)).entries).real
    assert g1[0] == pytest.approx(0.5)


def test_gram_positive_and_quadrature_matches():
    for n in range(11):
        basis = SpinBasis(n)
        closed = np.diag(spin_gram(basis).entries).real
        assert np.all(closed > 0)
        quad = spin_gram_quadrature(basis)
        offdiag = quad.entries - np.diag(np.diag(quad.entries))
        assert np.max(np.abs(offdiag)) < 1e-12
        rel = np.max(np.abs(np.diag(quad.entries).real - closed) / closed)
        assert rel < 1e-8


def test_orthonormal_constants():
    assert orthonormal_basis(SpinBasis(0))[0] == pytest.approx(1.0)
    assert orthonormal_basis(SpinBasis(2))[1] == pytest.approx(math.sqrt(6.0))
    assert orthonormal_basis(SpinBasis(1))[0] == pytest.approx(math.sqrt(2.0))


def test_orthonormal_constants_normalize_the_gram():
    for n in range(8):
        basis = SpinBasis(n)
        c = orthonormal_basis(basis)
        g = np.diag(spin_gram(basis).entries).real
        assert np.allclose(c**2 * g, 1.0)


def test_sector_zero_operators_vanish():
    ops = spin_operators(SpinBasis(0))
    for mat in ops.values():
        assert mat.dim == 1 and not np.any(mat.entries)


def test_j3_spectrum_spacing_and_range():
    for n in range(1, 8):
        basis = SpinBasis(n, hbar=0.5)
        vals = real_spectrum(spin_operators(basis)["J3"], spin_gram(basis))
        expected = 0.5 * (np.arange(n + 1) - n / 2.0)
        assert np.allclose(vals, expected, atol=1e-12)


def test_su2_relations_and_casimir():
    for n in range(7):
        rep = check_su2(SpinBasis(n))
        assert rep.ladder_plus < 1e-12
        assert rep.ladder_minus < 1e-12
        assert rep.pair < 1e-12
        assert rep.casimir_offdiag < 1e-12
        assert rep.casimir_residual < 1e-12
    assert check_su2(SpinBasis(1)).casimir_scalar.real == pytest.approx(0.75)
    assert check_su2(SpinBasis(2)).casimir_scalar.real == pytest.approx(2.0)


def test_casimir_scales_with_hbar():
    rep = check_su2(SpinBasis(3, hbar=2.0))
    assert rep.casimir_scalar.real == pytest.approx(4.0 * 1.5 * 2.5)


def test_gram_adjointness_of_ladders():
    for n in range(1, 7):
        basis = SpinBasis(n)
        gram = spin_gram(basis)
        ops = spin_operators(basis)
        assert np.linalg.norm(adjoint_wrt(ops["Jplus"], gram).entries
                              - ops["Jminus"].entries) < 1e-10
        assert np.linalg.norm(adjoint_wrt(ops["J3"], gram).entries
                              - ops["J3"].entries) < 1e-10


def test_symbolic_derivation_pins_hardcoded_forms():
    hardcoded = {
        "J3": ((0.0, 1.0), (-0.5,)),
        "Jplus": ((0.0, 0.0, 1.0), (0.0, -1.0)),
        "Jminus": ((-1.0,), (0.0,)),
    }
    derived = derive_operator_symbols(1, hbar=1.0)
    for name, (dc, sc) in hardcoded.items():
        assert derived[name][0] == pytest.approx(dc)
        assert derived[name][1] == pytest.approx(sc)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_derivation_matches_matrices(n):
    from geoquant.spin import _first_order_matrix

    basis = SpinBasis(n, hbar=0.5)
    symbols = derive_operator_symbols(n, hbar=0.5)
    ops = spin_operators(basis)
    for name in ("J3", "Jplus", "Jminus"):
        rebuilt = _first_order_matrix(basis, *symbols[name])
        assert np.allclose(rebuilt, ops[name].entries, atol=1e-12)


def test_sector_one_is_unitarily_the_standard_half_spin():
    """Brute-force intertwiner search after Gram orthonormalization."""
    basis = SpinBasis(1)
    ops = spin_operators(basis)
    c = orthonormal_basis(basis)
    d = np.diag(c)
    d_inv = np.diag(1.0 / c)
    j3, jp, jm = (d_inv @ ops[k].entries @ d for k in ("J3", "Jplus", "Jminus"))

    s3 = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
    sp_ = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)

    phases = [1, 1j, -1, -1j]
    found = False
    for perm in itertools.permutations(range(2)):
        p = np.eye(2)[list(perm)]
        for ph0, ph1 in itertools.product(phases, repeat=2):
            u = np.diag([ph0, ph1]) @ p
            close = (np.allclose(u @ j3 @ u.conj().T, s3, atol=1e-12)
                     and np.allclose(u @ jp @ u.conj().T, sp_, atol=1e-12)
                     and np.allclose(u @ jm @ u.conj().T, sm, atol=1e-12))
            if close:
                found = True
    assert found


def test_metaplectic_choice_is_recorded():
    assert METAPLECTIC_CORRECTION_APPLIED is False
    assert check_su2(SpinBasis(2)).metaplectic_correction_applied is False


@pytest.mark.parametrize("n", [28, 32, 48, 63])
def test_quadrature_matches_closed_form_in_large_sectors(n):
    # entries reach 6e-16 at n=48 and 2e-20 at n=63; an absolute quadrature
    # floor or a zeroing threshold relative to the largest entry loses them
    basis = SpinBasis(n)
    closed = np.diag(spin_gram(basis).entries).real
    quad = spin_gram_quadrature(basis)
    assert quad.is_diagonal
    rel = np.max(np.abs(np.diag(quad.entries).real - closed) / closed)
    assert rel < 1e-13


def test_quadrature_tabulates_one_radial_integral_per_k(monkeypatch):
    calls = []
    original = spin.integrate.quad

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spin.integrate, "quad", counting)
    for n in (0, 5, 12):
        calls.clear()
        spin_gram_quadrature(SpinBasis(n))
        assert len(calls) == 2 * n + 1


def test_quadrature_rejects_aliasing_angular_rule():
    with pytest.raises(ValueError, match="n_angular"):
        spin_gram_quadrature(SpinBasis(8), n_angular=8)
    assert spin_gram_quadrature(SpinBasis(8), n_angular=9).is_diagonal
