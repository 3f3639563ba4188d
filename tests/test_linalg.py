import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from geoquant.errors import BasisMismatch, DegenerateGram, EigenFailure
from geoquant.linalg import (GramMatrix, OperatorMatrix, adjoint_wrt,
                             commutator, gram_inner, gram_norm,
                             prune_offdiagonal, real_spectrum, spectrum)
from geoquant.prequant import PhaseSpaceGrid, liouville_gram


def op(entries, basis="b"):
    return OperatorMatrix(np.asarray(entries, dtype=complex), basis)


def test_commutator_with_itself_is_zero():
    a = op([[1, 2], [3, 4]])
    assert not np.any(commutator(a, a).entries)


def test_identity_commutes():
    rng = np.random.default_rng(3)
    b = op(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    eye = op(np.eye(4))
    assert np.max(np.abs(commutator(eye, b).entries)) == 0.0


def test_pauli_commutator_frozen_value():
    # direct 2x2 multiplication: XY - YX = [[2i, 0], [0, -2i]]
    x = op([[0, 1], [1, 0]])
    y = op([[0, -1j], [1j, 0]])
    expected = np.array([[2j, 0], [0, -2j]])
    assert np.array_equal(commutator(x, y).entries, expected)


def test_commutator_antisymmetry_is_exact():
    rng = np.random.default_rng(11)
    a = op(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    b = op(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    assert np.array_equal(commutator(a, b).entries, -commutator(b, a).entries)


def test_commutator_basis_mismatch():
    with pytest.raises(BasisMismatch):
        commutator(op(np.eye(2), "one"), op(np.eye(2), "two"))


def test_adjoint_hermitian_euclidean():
    a = op([[1, 2 + 1j], [2 - 1j, 5]])
    g = GramMatrix.identity(2, "b")
    assert np.allclose(adjoint_wrt(a, g).entries, a.entries, atol=1e-14)


def test_adjoint_real_diagonal_under_diagonal_gram():
    a = op(np.diag([1.0, 2.0]))
    g = GramMatrix(np.diag([3.0, 7.0]).astype(complex), "b")
    assert np.allclose(adjoint_wrt(a, g).entries, a.entries, atol=1e-14)


def test_adjoint_weighted_frozen_value():
    # G^-1 A^H G by hand: [[0,1],[0,0]] under diag(1,2) -> [[0,0],[1/2,0]]
    a = op([[0, 1], [0, 0]])
    g = GramMatrix(np.diag([1.0, 2.0]).astype(complex), "b")
    assert np.allclose(adjoint_wrt(a, g).entries,
                       [[0, 0], [0.5, 0]], atol=1e-14)


def test_double_adjoint_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = op(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        g = GramMatrix(m @ m.conj().T + 6 * np.eye(6), "b")
        back = adjoint_wrt(adjoint_wrt(a, g), g)
        rel = np.linalg.norm(back.entries - a.entries) / np.linalg.norm(a.entries)
        assert rel < 1e-12


def test_spectrum_diagonal_sorted():
    g = GramMatrix.identity(3, "b")
    vals = spectrum(op(np.diag([3.0, 1.0, 2.0])), g)
    assert np.allclose(vals, [1, 2, 3])


def test_spectrum_zero_matrix():
    g = GramMatrix.identity(4, "b")
    assert np.allclose(spectrum(op(np.zeros((4, 4))), g), 0.0)


def test_spectrum_two_by_two_frozen_value():
    # characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 = 1 -> {1, 3}
    g = GramMatrix.identity(2, "b")
    assert np.allclose(real_spectrum(op([[2, 1], [1, 2]]), g), [1, 3])


def test_spectrum_invariant_under_gram_unitary_change_of_basis():
    rng = np.random.default_rng(7)
    for _ in range(8):
        dim = 5
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        g = GramMatrix(m @ m.conj().T + dim * np.eye(dim), "b")
        a = op(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        lo = np.linalg.cholesky(g.dense())
        w, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
        u = np.linalg.solve(lo.conj().T, w @ lo.conj().T)  # L^-H W L^H
        assert np.max(np.abs(u.conj().T @ g.dense() @ u - g.dense())) < 1e-9
        a_new = op(np.linalg.solve(u, a.entries @ u))
        drift = np.max(np.abs(spectrum(a_new, g) - spectrum(a, g)))
        assert drift < 1e-10 * max(1.0, np.max(np.abs(spectrum(a, g))))


def test_real_spectrum_rejects_complex_eigenvalues():
    g = GramMatrix.identity(2, "b")
    with pytest.raises(EigenFailure):
        real_spectrum(op([[0, 1], [-1, 0]]), g)  # eigenvalues +-i


def test_spectrum_rejects_non_finite():
    g = GramMatrix.identity(2, "b")
    with pytest.raises(EigenFailure):
        spectrum(op([[np.nan, 0], [0, 1]]), g)


def test_gram_rejects_non_hermitian():
    with pytest.raises(DegenerateGram):
        GramMatrix(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), "b")


def test_gram_rejects_indefinite():
    with pytest.raises(DegenerateGram):
        GramMatrix(np.diag([1.0, -2.0]).astype(complex), "b")


def test_gram_inner_and_norm():
    g = GramMatrix(np.diag([2.0, 3.0]).astype(complex), "b")
    u = np.array([1.0, 0.0], dtype=complex)
    v = np.array([0.0, 1.0], dtype=complex)
    assert gram_inner(u, u, g) == pytest.approx(2.0)
    assert gram_inner(u, v, g) == pytest.approx(0.0)
    assert gram_norm(v, g) == pytest.approx(np.sqrt(3.0))


def test_operator_requires_square():
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 3)), "b")


def test_hbar_power_tag_adds_in_commutators():
    a = OperatorMatrix(np.eye(2), "b", hbar_power=1)
    b = OperatorMatrix(np.ones((2, 2)), "b", hbar_power=2)
    assert commutator(a, b).hbar_power == 3


@pytest.fixture
def no_eigvalsh(monkeypatch):
    """Make any dense eigenvalue validation fail loudly."""
    def forbidden(*args, **kwargs):
        raise AssertionError("diagonal Gram must not call eigvalsh")
    monkeypatch.setattr(scipy.linalg, "eigvalsh", forbidden)


def test_diagonal_grams_are_validated_from_the_diagonal(no_eigvalsh):
    dense = GramMatrix(np.diag([3.0, 7.0, 0.5]).astype(complex), "b")
    small = GramMatrix(sp.diags(np.linspace(1.0, 2.0, 4096)).tocsr(), "b")
    assert dense.is_diagonal and small.is_diagonal
    assert adjoint_wrt(op(np.eye(3)), dense).entries.shape == (3, 3)


def test_liouville_gram_at_the_dense_limit_skips_eigvalsh(no_eigvalsh):
    grid = PhaseSpaceGrid(-8.0, 8.0, -8.0, 8.0, 64, 64)
    gram = liouville_gram(grid, 1.0)
    assert gram.dim == 4096 and gram.is_diagonal


@pytest.mark.parametrize("bad", [0.0, -2.0])
def test_diagonal_gram_with_nonpositive_entry_raises(no_eigvalsh, bad):
    with pytest.raises(DegenerateGram, match=r"not positive definite \(min eig"):
        GramMatrix(np.diag([1.0, bad, 3.0]).astype(complex), "b")
    with pytest.raises(DegenerateGram, match=r"not positive definite \(min eig"):
        GramMatrix(sp.diags([1.0, bad, 3.0]).tocsr(), "b")


def test_nondiagonal_indefinite_gram_raises_through_eigvalsh(monkeypatch):
    calls = []
    original = scipy.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh", counting)
    g = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)  # eigenvalues -1, 3
    with pytest.raises(DegenerateGram, match=r"min eig -1\.000e\+00"):
        GramMatrix(g, "b")
    assert len(calls) == 1
    assert not GramMatrix(g + 2 * np.eye(2), "b").is_diagonal


def test_large_nondiagonal_sparse_gram_is_rejected(no_eigvalsh):
    dim = 4097
    g = sp.diags([np.full(dim - 1, 0.1), np.full(dim, 2.0), np.full(dim - 1, 0.1)],
                 [-1, 0, 1]).tocsr()
    with pytest.raises(DegenerateGram, match="must be diagonal"):
        GramMatrix(g, "b")


def test_explicit_zeros_do_not_make_a_gram_nondiagonal(no_eigvalsh):
    g = sp.csr_matrix((np.array([1.0, 0.0, 2.0]), (np.array([0, 0, 1]),
                                                   np.array([0, 1, 1]))), shape=(2, 2))
    assert g.nnz == 3
    assert GramMatrix(g, "b").is_diagonal


def test_prune_offdiagonal_is_relative_to_the_diagonal():
    g = np.array([[1.0, 0.5, 1e-36], [0.5, 1.0, 1e-23], [1e-36, 1e-23, 1e-20]],
                 dtype=complex)
    pruned = prune_offdiagonal(g.copy(), 1e-14)
    assert np.array_equal(np.diag(pruned), np.diag(g))  # 1e-20 survives
    assert pruned[0, 2] == pruned[2, 0] == 0.0  # below 1e-14 * sqrt(1 * 1e-20)
    assert pruned[1, 2] == 1e-23 and pruned[0, 1] == 0.5
