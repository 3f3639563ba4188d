import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
import scipy.sparse as sp

from geoquant import fock, linalg
from geoquant.config import DEFAULT_TOLERANCES
from geoquant.errors import BasisMismatch, DegenerateGram, EigenFailure
from geoquant.linalg import (GramMatrix, OperatorMatrix, adjoint_wrt,
                             commutator, gram_inner, gram_norm, real_spectrum,
                             spectrum)
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
    g = GramMatrix(np.array([3.0, 7.0]), "b")
    assert np.allclose(adjoint_wrt(a, g).entries, a.entries, atol=1e-14)


def test_adjoint_weighted_frozen_value():
    # G^-1 A^H G by hand: [[0,1],[0,0]] under diag(1,2) -> [[0,0],[1/2,0]]
    a = op([[0, 1], [0, 0]])
    g = GramMatrix(np.array([1.0, 2.0]), "b")
    assert np.allclose(adjoint_wrt(a, g).entries,
                       [[0, 0], [0.5, 0]], atol=1e-14)


def test_double_adjoint_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = op(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        g = GramMatrix(rng.uniform(0.1, 10.0, 6), "b")
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
    """A = G^-1 H is G-self-adjoint, and so is U^-1 A U for a G-unitary U."""
    rng = np.random.default_rng(7)
    for _ in range(8):
        dim = 5
        g = GramMatrix(rng.uniform(0.1, 10.0, dim), "b")
        gram = np.diag(g.diagonal())
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = op(np.linalg.solve(gram, h + h.conj().T))
        lo = np.diag(np.sqrt(g.diagonal()))  # G = L L^H
        w, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
        u = np.linalg.solve(lo.conj().T, w @ lo.conj().T)  # L^-H W L^H
        assert np.max(np.abs(u.conj().T @ gram @ u - gram)) < 1e-9
        # U^-1 A U is G-self-adjoint to round-off, well inside the refusal bound
        a_new = op(np.linalg.solve(u, a.entries @ u))
        drift = np.max(np.abs(spectrum(a_new, g) - spectrum(a, g)))
        assert drift < 1e-10 * max(1.0, np.max(np.abs(spectrum(a, g))))


def test_real_spectrum_rejects_complex_eigenvalues(eigvalsh_calls):
    """The refusal names C's Hermitian defect and largest entry, and solves nothing."""
    assert real_spectrum is spectrum
    g = GramMatrix.identity(2, "b")
    with pytest.raises(EigenFailure, match=r"Hermitian defect 2\.000e\+00 .* 1e-10 times "
                       r"its largest entry 1\.000e\+00") as err:
        real_spectrum(op([[0, 1], [-1, 0]]), g)  # eigenvalues +-i
    assert err.value.solver == "" and err.value.dim == 2
    assert eigvalsh_calls == []


@pytest.mark.parametrize("scale", [1e-14, 1e-30, 1.0, 1e14])
def test_hermitian_routing_does_not_depend_on_the_gram_scale(eigvalsh_calls, scale):
    """G A = s A is skew for every s > 0; no s may let A reach the eigensolver."""
    g = GramMatrix(np.full(2, scale, dtype=complex), "b")
    with pytest.raises(EigenFailure, match="Hermitian defect 2.000e\\+00"):
        spectrum(op([[0, 1], [-1, 0]]), g)  # eigenvalues +-i
    assert eigvalsh_calls == []
    # a Hermitian A is solved at the same scales
    vals = real_spectrum(op([[2, 1], [1, 2]]), g)
    assert vals.dtype == np.float64
    assert np.allclose(vals, [1.0, 3.0], rtol=0, atol=1e-14)


def test_spectrum_rejects_non_finite(eigvalsh_calls):
    g = GramMatrix.identity(2, "b")
    with pytest.raises(EigenFailure, match="Hermitian defect nan") as err:
        spectrum(op([[np.nan, 0], [0, 1]]), g)
    assert err.value.solver == "" and eigvalsh_calls == []


def _complex_matrix(dim: int):
    part = hnp.arrays(float, (dim, dim), elements=st.floats(-1.0, 1.0))
    return st.tuples(part, part).map(lambda ri: ri[0] + 1j * ri[1])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(min_value=1, max_value=8))
def test_selfadjoint_spectrum_matches_scipy_eigh_oracle(data, dim):
    """A = G^-1 H is G-self-adjoint; its spectrum is that of the pencil (H, G)."""
    diag = data.draw(hnp.arrays(float, dim, elements=st.floats(0.1, 10.0)))
    h = data.draw(_complex_matrix(dim))
    h = h + h.conj().T
    vals = spectrum(op(np.linalg.solve(np.diag(diag), h)), GramMatrix(diag, "b"))
    assert vals.dtype == np.float64
    oracle = scipy.linalg.eigh(h, np.diag(diag), eigvals_only=True)
    assert np.max(np.abs(vals - oracle)) <= 1e-10 * max(1.0, np.max(np.abs(oracle)))


def test_selfadjoint_route_reduces_to_eigvalsh(eigvalsh_calls):
    diag = np.array([1.0, 2.0, 0.5])
    h = np.array([[1.0, 2.0 - 1j, 0.0], [2.0 + 1j, -1.0, 0.5], [0.0, 0.5, 3.0]])
    a = op(np.linalg.solve(np.diag(diag), h))
    vals = real_spectrum(a, GramMatrix(diag, "b"))
    assert len(eigvalsh_calls) == 1
    assert np.allclose(vals, scipy.linalg.eigh(h, np.diag(diag), eigvals_only=True),
                       rtol=0, atol=1e-12)


def test_selfadjoint_pencil_whose_weak_form_overflows_takes_eigvalsh(eigvalsh_calls):
    """G A reaches 1e310 here; C = root A / root does not, so A is solved, not refused."""
    g = GramMatrix(np.full(2, 1e300), "b")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = real_spectrum(op([[2e10, 1e10], [1e10, 2e10]]), g)
    assert len(eigvalsh_calls) == 1
    assert np.allclose(vals, [1e10, 3e10], rtol=1e-14, atol=0)


@pytest.mark.parametrize("failure", ["raise", "nan"])
def test_eigen_failure_names_the_hermitian_solver(monkeypatch, failure):
    def broken(*args, **kwargs):
        if failure == "raise":
            raise np.linalg.LinAlgError("did not converge")
        return np.array([np.nan, 1.0])

    monkeypatch.setattr(linalg.np.linalg, "eigvalsh", broken)
    with pytest.raises(EigenFailure) as err:
        real_spectrum(op([[2, 1], [1, 2]]), GramMatrix.identity(2, "b"))
    assert err.value.solver == "numpy.linalg.eigvalsh" and err.value.dim == 2


def test_eigen_failure_names_the_general_solver(eigvalsh_calls):
    """No general solver is left to name: both inputs are refused before any solve."""
    g = GramMatrix.identity(2, "b")
    with pytest.raises(EigenFailure) as err:
        real_spectrum(op([[0, 1], [-1, 0]]), g)  # eigenvalues +-i
    assert err.value.solver == ""
    with pytest.raises(EigenFailure) as err:
        spectrum(op([[np.nan, 0], [0, 1]]), g)
    assert err.value.solver == ""
    assert eigvalsh_calls == []


@pytest.mark.parametrize("tolerances",
                         [DEFAULT_TOLERANCES, DEFAULT_TOLERANCES.override(exact=1e-6)],
                         ids=["default", "override"])
def test_refusal_bound_is_exact_times_the_largest_entry(eigvalsh_calls, tolerances):
    """H plus a skew perturbation of 0.5 exact scale is solved; at 2 exact scale it is refused."""
    diag = np.array([0.5, 2.0, 8.0])
    h = np.array([[3.0, 1.0 - 0.5j, 0.25], [1.0 + 0.5j, -2.0, 0.5j], [0.25, -0.5j, 1.0]])
    skew = np.zeros((3, 3))
    skew[2, 0], skew[0, 2] = 0.5, -0.5  # C - C^H reads 1 at (2, 0) per unit of perturbation
    root = np.sqrt(diag)
    scale = 3.0  # the largest entry of C = H + perturbation
    for factor in (0.5, 2.0):
        c = h + factor * tolerances.exact * scale * skew
        a = op(c / root[:, np.newaxis] * root)
        if factor < 1.0:
            vals = spectrum(a, GramMatrix(diag, "b"), tolerances)
            assert np.max(np.abs(vals - scipy.linalg.eigh(h, eigvals_only=True))) \
                <= tolerances.exact * scale
        else:
            with pytest.raises(EigenFailure, match="Hermitian defect 6"):
                spectrum(a, GramMatrix(diag, "b"), tolerances)
    assert len(eigvalsh_calls) == 1


def test_gram_rejects_non_hermitian():
    with pytest.raises(DegenerateGram, match="not Hermitian"):
        GramMatrix(np.array([1.0, 1.0 + 1e-9j]), "b")


@pytest.mark.parametrize("offdiag", [0.5, 1e-300, np.nan, 0.0])
def test_square_gram_with_a_nonzero_off_diagonal_entry_is_refused(offdiag):
    """A Gram is its 1-D diagonal: any 2-D input is refused, a diagonal one too."""
    g = np.diag([2.0, 3.0, 4.0]).astype(complex)
    g[2, 0] = offdiag
    with pytest.raises(ValueError, match="must be the 1-D diagonal"):
        GramMatrix(g, "b")


def test_gram_rejects_indefinite():
    with pytest.raises(DegenerateGram):
        GramMatrix(np.array([1.0, -2.0]), "b")


def test_gram_inner_and_norm():
    g = GramMatrix(np.array([2.0, 3.0]), "b")
    u = np.array([1.0, 0.0], dtype=complex)
    v = np.array([0.0, 1.0], dtype=complex)
    assert gram_inner(u, u, g) == pytest.approx(2.0)
    assert gram_inner(u, v, g) == pytest.approx(0.0)
    assert gram_norm(v, g) == pytest.approx(np.sqrt(3.0))


def test_operator_requires_square():
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 3)), "b")


@pytest.fixture
def no_eigvalsh(monkeypatch):
    """Make any dense eigenvalue validation fail loudly."""
    def forbidden(*args, **kwargs):
        raise AssertionError("diagonal Gram must not call eigvalsh")
    monkeypatch.setattr(linalg.np.linalg, "eigvalsh", forbidden)


def test_diagonal_grams_are_validated_from_the_diagonal(no_eigvalsh):
    small = GramMatrix(np.array([3.0, 7.0, 0.5]), "b")
    flat = GramMatrix(np.linspace(1.0, 2.0, 4096), "b")
    assert small.entries.shape == (3,) and flat.entries.shape == (4096,)
    assert np.array_equal(small.diagonal(), [3.0, 7.0, 0.5])
    assert adjoint_wrt(op(np.eye(3)), small).entries.shape == (3, 3)


def test_liouville_gram_at_the_dense_limit_skips_eigvalsh(no_eigvalsh):
    grid = PhaseSpaceGrid(-8.0, 8.0, -8.0, 8.0, 64, 64)
    gram = liouville_gram(grid, 1.0)
    assert gram.dim == 4096 and gram.entries.shape == (4096,)


@pytest.mark.parametrize("bad", [0.0, -2.0])
def test_diagonal_gram_with_nonpositive_entry_raises(no_eigvalsh, bad):
    with pytest.raises(DegenerateGram, match=r"not positive definite \(min eig"):
        GramMatrix(np.array([1.0, bad, 3.0]), "b")


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Record the shape of each matrix (stack) passed to ``numpy.linalg.eigvalsh``."""
    calls = []
    original = linalg.np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg.np.linalg, "eigvalsh", recording)
    return calls


def test_large_nondiagonal_sparse_gram_is_rejected():
    dim = 4097
    g = sp.diags([np.full(dim - 1, 0.1), np.full(dim, 2.0), np.full(dim - 1, 0.1)],
                 [-1, 0, 1]).tocsr()
    with pytest.raises(TypeError, match="not a sparse matrix"):
        GramMatrix(g, "b")
    with pytest.raises(TypeError, match="not a sparse matrix"):
        GramMatrix(sp.identity(3, format="csr"), "b")  # diagonal ones too



def _block_diagonal(blocks) -> np.ndarray:
    return scipy.linalg.block_diag(*blocks).astype(complex)


def _random_blocks(rng, sizes) -> list[np.ndarray]:
    return [rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b)) for b in sizes]


def _random_gram(rng, sizes) -> np.ndarray:
    return rng.uniform(0.1, 10.0, sum(sizes))


_block_pencils = given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
                       seed=st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@_block_pencils
def test_block_diagonal_selfadjoint_spectrum_matches_scipy_eigh(sizes, seed):
    """A = G^-1 H with H block-diagonal: each block solved alone, the pencil whole."""
    rng = np.random.default_rng(seed)
    h = _block_diagonal([m + m.conj().T for m in _random_blocks(rng, sizes)])
    diag = _random_gram(rng, sizes)
    vals = spectrum(op(np.linalg.solve(np.diag(diag), h)), GramMatrix(diag, "b"))
    oracle = scipy.linalg.eigh(h, np.diag(diag), eigvals_only=True)
    assert np.max(np.abs(vals - oracle)) <= 1e-10 * max(1.0, np.max(np.abs(oracle)))


def test_interleaved_blocks_are_solved_as_one_block(eigvalsh_calls):
    """Blocks permuted out of contiguous order couple every row range: one 6 x 6 solve."""
    h = _block_diagonal([m + m.conj().T for m in _random_blocks(np.random.default_rng(29), [3, 3])])
    riffle = [0, 3, 1, 4, 2, 5]
    h = h[np.ix_(riffle, riffle)]
    diag = np.array([1.0, 2.0, 0.5, 4.0, 3.0, 0.25])
    vals = real_spectrum(op(np.linalg.solve(np.diag(diag), h)), GramMatrix(diag, "b"))
    assert eigvalsh_calls == [(1, 6, 6)]
    assert np.max(np.abs(vals - scipy.linalg.eigh(h, np.diag(diag), eigvals_only=True))) < 1e-12


@pytest.mark.parametrize("pairs, groups", [
    ([], {1: [[0], [1], [2], [3], [4]]}),
    ([(3, 0)], {4: [[0, 1, 2, 3]], 1: [[4]]}),  # lower triangle only
    ([(0, 3)], {4: [[0, 1, 2, 3]], 1: [[4]]}),  # upper triangle only
    ([(1, 0), (3, 4)], {2: [[0, 1], [3, 4]], 1: [[2]]}),
    ([(0, 1), (1, 4)], {5: [[0, 1, 2, 3, 4]]}),
])
def test_diagonal_blocks_end_where_no_row_or_column_reaches_past(pairs, groups):
    nonzero = np.zeros((5, 5), dtype=bool)
    for i, j in pairs:
        nonzero[i, j] = True
    found = {idx.shape[1]: idx.tolist() for idx in linalg._diagonal_blocks(nonzero)}
    assert found == groups


def test_hermitian_c_fock_spectrum_is_solved_shell_by_shell(eigvalsh_calls):
    """f = f0 + c_ab z^a zbar^b at n = 2, D = 48: 2 hbar (m1 l1 + m2 l2) + hbar tr c + f0."""
    hbar, f0 = 0.7, 0.25
    c = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, 0.5]])
    basis = fock.FockBasis(2, 48, hbar)
    a = fock.polarization_preserving(basis, f0=f0, c=c)
    lam = np.linalg.eigvalsh(c)
    eigvalsh_calls.clear()  # the call just above
    vals = real_spectrum(a, fock.fock_gram(basis))
    expected = np.sort(2.0 * hbar * basis.indices @ lam + hbar * np.trace(c).real + f0)
    assert np.max(np.abs(vals - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert max(shape[-1] for shape in eigvalsh_calls) == 49  # the largest degree shell


def test_nan_in_a_one_by_one_block_is_refused_before_any_solve(eigvalsh_calls):
    a = _block_diagonal([[[np.nan]], [[2.0, 1.0], [1.0, 2.0]]])
    with pytest.raises(EigenFailure, match="Hermitian defect nan") as err:
        spectrum(op(a), GramMatrix.identity(3, "b"))
    assert err.value.dim == 3 and eigvalsh_calls == []


def test_one_skew_block_refuses_every_block(eigvalsh_calls):
    a = _block_diagonal([[[0.0, 1.0], [-1.0, 0.0]], [[5.0]]])  # +-i next to a Hermitian 5
    with pytest.raises(EigenFailure, match="Hermitian defect 2.000e\\+00"):
        spectrum(op(a), GramMatrix.identity(3, "b"))
    assert eigvalsh_calls == []
