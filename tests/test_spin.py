import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoquant import spin
from geoquant.config import DEFAULT_TOLERANCES
from geoquant.errors import BasisMismatch, DegenerateGram, QuadratureFailure
from geoquant.linalg import adjoint_wrt, commutator, spectrum
from geoquant.spin import (SpinBasis, check_su2, spin_gram, spin_gram_quadrature,
                           spin_operators)
from spin_derivation import derive_operator_symbols


def test_dimension_is_n_plus_one():
    for n in range(21):
        assert SpinBasis(n).dim == n + 1


def test_gram_frozen_values():
    # Beta-integral closed form: m!(n-m)!/(n+1)!
    g2 = spin_gram(SpinBasis(2)).diagonal().real
    assert g2[1] == pytest.approx(1.0 / 6.0)
    g1 = spin_gram(SpinBasis(1)).diagonal().real
    assert g1[0] == pytest.approx(0.5)


def test_gram_positive_and_quadrature_matches():
    for n in range(11):
        basis = SpinBasis(n)
        closed = spin_gram(basis).diagonal().real
        assert np.all(closed > 0)
        quad = spin_gram_quadrature(basis)
        rel = np.max(np.abs(quad.diagonal().real - closed) / closed)
        assert rel < 1e-8


def test_sector_zero_operators_vanish():
    ops = spin_operators(SpinBasis(0))
    for mat in ops.values():
        assert mat.dim == 1 and not np.any(mat.entries)


def test_j3_spectrum_spacing_and_range():
    for n in range(1, 8):
        basis = SpinBasis(n, hbar=0.5)
        vals = spectrum(spin_operators(basis)["J3"], spin_gram(basis))
        expected = 0.5 * (np.arange(n + 1) - n / 2.0)
        assert np.allclose(vals, expected, atol=1e-12)


def test_su2_relations_and_casimir():
    for n in range(7):
        rep = check_su2(SpinBasis(n))
        assert rep.ladder_plus < 1e-12
        assert rep.ladder_minus < 1e-12
        assert rep.pair < 1e-12
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


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_derivation_matches_matrices(n):
    """sympy applies each derived first-order form to z^m; its coefficients are column m."""
    import sympy

    z = sympy.Symbol("z")
    ops = spin_operators(SpinBasis(n, hbar=0.5))
    for name, (dcoeffs, scalars) in derive_operator_symbols(n, hbar=0.5).items():
        # hbar = 1/2 makes every coefficient a binary fraction, so Rational is exact
        d_part = sum(sympy.Rational(c) * z**j for j, c in enumerate(dcoeffs))
        s_part = sum(sympy.Rational(c) * z**j for j, c in enumerate(scalars))
        rebuilt = np.zeros((n + 1, n + 1), dtype=complex)
        for m in range(n + 1):
            image = sympy.Poly(sympy.expand(d_part * sympy.diff(z**m, z) + s_part * z**m), z)
            assert image.degree() <= n, f"{name} sends z^{m} out of the sector span"
            for (power,), coeff in image.terms():
                rebuilt[power, m] = complex(coeff)
        np.testing.assert_array_equal(rebuilt, ops[name].entries)


def test_sector_one_is_unitarily_the_standard_half_spin():
    """Brute-force intertwiner search after Gram orthonormalization."""
    basis = SpinBasis(1)
    ops = spin_operators(basis)
    # C_m = sqrt((n + 1) C(n, m)) makes C_m^2 <z^m, z^m> = 1
    c = np.array([math.sqrt(2 * math.comb(1, m)) for m in range(2)])
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


@pytest.mark.parametrize("n", [28, 32, 48, 63])
def test_quadrature_matches_closed_form_in_large_sectors(n):
    # entries reach 6e-16 at n=48 and 2e-20 at n=63; an absolute quadrature
    # floor or an orthogonality bound relative to the largest entry loses them
    basis = SpinBasis(n)
    closed = spin_gram(basis).diagonal().real
    quad = spin_gram_quadrature(basis)
    rel = np.max(np.abs(quad.diagonal().real - closed) / closed)
    assert rel < 1e-13


def test_quadrature_tabulates_one_radial_integral_per_k(monkeypatch):
    tables = []
    oracle = spin.polar_gram_oracle

    def recording(indices, radial, *args):
        def tabulate(points):
            table = radial(points)
            tables.append((points, table.shape))
            return table
        return oracle(indices, tabulate, *args)

    monkeypatch.setattr(spin, "polar_gram_oracle", recording)
    for n in (0, 5, 12):
        tables.clear()
        spin_gram_quadrature(SpinBasis(n))
        assert tables == [(64, (2 * n + 1,)), (128, (2 * n + 1,))]


def test_quadrature_doubling_guard_fires_on_too_few_nodes(monkeypatch):
    monkeypatch.setattr(spin, "_RADIAL_POINTS", 8)
    with pytest.raises(QuadratureFailure) as err:
        spin_gram_quadrature(SpinBasis(48))
    assert err.value.doubling_delta > DEFAULT_TOLERANCES.quadrature_goal


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=0, max_value=119))
def test_quadrature_matches_beta_closed_form(n):
    basis = SpinBasis(n)
    closed = spin_gram(basis).diagonal().real
    quad = spin_gram_quadrature(basis)
    assert np.max(np.abs(quad.diagonal().real - closed) / closed) <= 1e-12


@pytest.mark.parametrize("n", [1, 4, 32, 119])
def test_quadrature_refuses_off_diagonal_entries_past_quadrature_zero(n):
    """Off-diagonal round-off reads 4e-17 to 2e-16 of sqrt(G_mm G_m'm'); a bound of 0 refuses it."""
    strict = DEFAULT_TOLERANCES.override(quadrature_zero=0.0)
    with pytest.raises(QuadratureFailure, match=rf"^spin/n{n}/hbar1\.0: \|G_mm'\| / sqrt"):
        spin_gram_quadrature(SpinBasis(n), tolerances=strict)
    assert spin_gram_quadrature(SpinBasis(n)).entries.shape == (n + 1,)


@pytest.mark.parametrize("hbar", [np.nan, np.inf, -np.inf, 0.0])
def test_basis_rejects_hbar_that_is_not_positive_and_finite(hbar):
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        SpinBasis(2, hbar)


def test_quadrature_fails_loudly_past_its_radial_rule():
    # the angular rule grows with the sector; the 64/128-node radial rule does not
    with pytest.raises(QuadratureFailure) as err:
        spin_gram_quadrature(SpinBasis(120))
    assert err.value.doubling_delta > DEFAULT_TOLERANCES.quadrature_goal


@pytest.mark.parametrize("n", [63, 64, 119])
def test_angular_rule_grows_past_each_power_of_two(n):
    # a 64-point rule aliases d = 64 onto d = 0, so sector 64 is the first to need 128
    basis = SpinBasis(n)
    quad = spin_gram_quadrature(basis)
    closed = spin_gram(basis).diagonal().real
    assert np.max(np.abs(quad.diagonal().real - closed) / closed) <= 1e-12


def test_gram_names_the_first_entry_past_float64():
    # (n + 1) C(1100, m) passes float64 first at m = 376; the CLI used to stop on OverflowError
    with pytest.raises(DegenerateGram,
                       match=r"spin/n1100/hbar1\.0: <z\^m, z\^m> = inf at m = \(376,\)"):
        spin_gram(SpinBasis(1100))
    assert spin_gram(SpinBasis(1000)).dim == 1001


def test_basis_id_tells_hbar_apart_past_six_digits():
    with pytest.raises(BasisMismatch):
        commutator(spin_operators(SpinBasis(2, 1.0))["J3"],
                   spin_operators(SpinBasis(2, 1.0000001))["J3"])
