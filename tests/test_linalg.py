import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spsla

from birka.linalg import (ConvergenceError, SingularMatrixError, SparseLU,
                          eig_dense, frobenius_norm, kron, orth,
                          spectral_abscissa, two_norm, unvec, vec)
from birka.models import FlowModelParams, build_flow_model


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_scalar_scaling(self):
        out = kron(np.array([[2.0]]), np.array([[1.0, 0.0], [0.0, 3.0]]))
        assert np.array_equal(out, np.array([[2.0, 0.0], [0.0, 6.0]]))

    def test_entrywise_definition(self, rng):
        P = rng.standard_normal((2, 2))
        Q = rng.standard_normal((2, 2))
        expected = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                expected[2 * i:2 * i + 2, 2 * j:2 * j + 2] = P[i, j] * Q
        assert np.array_equal(kron(P, Q), expected)

    def test_sparse_inputs_stay_sparse(self):
        out = kron(sps.identity(3, format="csr"), sps.identity(2, format="csr"))
        assert sps.issparse(out)
        assert np.array_equal(out.toarray(), np.eye(6))


class TestVec:
    def test_column_stacking_order(self):
        out = vec(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out, np.array([1.0, 3.0, 2.0, 4.0]))

    def test_round_trip(self, rng):
        P = rng.standard_normal((3, 2))
        assert np.array_equal(unvec(vec(P), 3, 2), P)

    def test_vec_kron_identity(self, rng):
        A, X, B = (rng.standard_normal((2, 2)) for _ in range(3))
        lhs = vec(A @ X @ B.T)
        rhs = kron(B, A) @ vec(X)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-14)

    def test_unvec_dimension_mismatch(self):
        with pytest.raises(ValueError):
            unvec(np.arange(5.0), 2, 3)


class TestEigDense:
    def test_diagonal(self):
        ed = eig_dense(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(sorted(ed.eigenvalues.real), [1, 2, 3])
        assert np.allclose(np.abs(ed.right_vectors), np.eye(3))

    def test_rotation_pair(self):
        ed = eig_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(sorted(ed.eigenvalues.imag), [-1.0, 1.0])
        assert np.allclose(ed.eigenvalues.real, 0.0, atol=1e-14)

    def test_reconstruction(self, rng):
        M = rng.standard_normal((6, 6))
        ed = eig_dense(M)
        resid = M @ ed.right_vectors - ed.right_vectors @ np.diag(ed.eigenvalues)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(M)

    def test_reconstruction_up_to_50(self, rng):
        for d in (10, 25, 50):
            M = rng.standard_normal((d, d))
            ed = eig_dense(M)
            resid = M @ ed.right_vectors - ed.right_vectors @ np.diag(ed.eigenvalues)
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(M)

    def test_conjugate_pairs_for_real_input(self, rng):
        w = eig_dense(rng.standard_normal((8, 8))).eigenvalues
        assert np.allclose(sorted(w, key=lambda z: (z.real, z.imag)),
                           sorted(w.conj(), key=lambda z: (z.real, z.imag)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig_dense(np.zeros((2, 3)))


def _projector(M):
    Q = np.linalg.qr(M)[0]
    return Q @ Q.T


class TestOrth:
    def test_orthonormal_input(self, rng):
        Q = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        out = orth(Q)
        assert out.shape == (6, 3)
        assert np.allclose(_projector(out), _projector(Q), atol=1e-12)

    def test_duplicated_column_drops_rank(self, rng):
        M = rng.standard_normal((5, 2))
        M = np.column_stack([M, M[:, 0]])
        assert orth(M).shape == (5, 2)

    def test_orthonormality_and_projector(self, rng):
        M = rng.standard_normal((8, 3))
        Q = orth(M)
        assert np.linalg.norm(Q.T @ Q - np.eye(3)) <= 1e-12
        assert np.allclose(_projector(Q), _projector(M), atol=1e-10)

    def test_triangular_factor_for_full_rank(self, rng):
        M = rng.standard_normal((7, 4))
        Q = orth(M)
        Z = Q.T @ M
        assert np.allclose(M, Q @ Z, atol=1e-12)
        assert np.allclose(Z, np.triu(Z), atol=1e-12)

    def test_zero_input(self):
        assert orth(np.zeros((4, 2))).shape == (4, 0)


class TestNorms:
    def test_diagonal(self):
        M = np.diag([3.0, 4.0])
        assert two_norm(M) == pytest.approx(4.0, rel=1e-15)
        assert frobenius_norm(M) == pytest.approx(5.0, rel=1e-15)

    def test_zero(self):
        assert two_norm(np.zeros((3, 3))) == 0.0
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_power_iteration_matches_svd(self, rng):
        M = sps.csr_matrix(rng.standard_normal((450, 450)))
        dense = np.linalg.norm(M.toarray(), 2)
        assert two_norm(M) == pytest.approx(dense, rel=1e-12)

    def test_flow_drift_matches_dense(self):
        # n = 420, sparse: a Lanczos run to dense-SVD accuracy
        A = build_flow_model(FlowModelParams(N=20)).A
        assert two_norm(A) == pytest.approx(np.linalg.norm(A.toarray(), 2),
                                            rel=1e-12)

    def test_matrix_free_operator(self, rng):
        for d in (3, 40):      # below and above ARPACK's Krylov dimension
            M = rng.standard_normal((d, d))
            op = spsla.LinearOperator((d, d), matvec=lambda x: M @ x,
                                      rmatvec=lambda x: M.T @ x, dtype=float)
            assert two_norm(op) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)
            assert two_norm(op) == two_norm(op)       # fixed start vector

    def test_arpack_failure_is_convergence_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise spsla.ArpackNoConvergence("no convergence", [], [])
        monkeypatch.setattr(spsla, "svds", no_convergence)
        with pytest.raises(ConvergenceError):
            two_norm(sps.identity(10, format="csr"))

    def test_spectral_abscissa_arpack_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise spsla.ArpackNoConvergence("no convergence", [], [])
        monkeypatch.setattr(spsla, "eigs", no_convergence)
        with pytest.raises(ConvergenceError):
            spectral_abscissa(-sps.identity(10, format="csr"))

    def test_spectral_abscissa_below_arpack_order(self):
        assert spectral_abscissa(sps.csr_matrix([[-1.0, 5.0], [0.0, 2.0]])) == 2.0

    def test_sparse_frobenius(self, rng):
        M = sps.random(30, 30, density=0.2, random_state=7)
        assert frobenius_norm(M) == pytest.approx(np.linalg.norm(M.toarray()))


class TestSparseLU:
    def test_identity(self):
        rhs = np.arange(1.0, 5.0)
        assert np.allclose(SparseLU(sps.identity(4, format="csr")).solve(rhs), rhs)

    def test_diagonal(self):
        M = sps.diags([2.0, 4.0]).tocsr()
        assert np.allclose(SparseLU(M).solve(np.array([2.0, 8.0])), [1.0, 2.0])

    def test_residual_on_random_system(self, rng):
        M = sps.random(50, 50, density=0.1, random_state=11).tocsr()
        M = M + 10.0 * sps.identity(50)
        x = SparseLU(M).solve(rng.standard_normal(50))
        rhs = M @ x
        resid = np.linalg.norm(M @ x - rhs)
        assert resid <= 1e-12 * (frobenius_norm(M) * np.linalg.norm(x) + np.linalg.norm(rhs))

    def test_agrees_with_dense(self, rng):
        M = rng.standard_normal((40, 40)) + 8 * np.eye(40)
        rhs = rng.standard_normal(40)
        x = SparseLU(sps.csr_matrix(M)).solve(rhs)
        assert np.allclose(x, np.linalg.solve(M, rhs), rtol=1e-10)

    def test_singular_matrix_raises(self):
        M = sps.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrixError):
            SparseLU(M)

    def test_transpose_solve(self, rng):
        M = sps.csr_matrix(rng.standard_normal((12, 12)) + 6 * np.eye(12))
        lu = SparseLU(M)
        rhs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        x = lu.solve_transpose(rhs)
        assert np.allclose(M.T @ x, rhs, atol=1e-10)


def smallest_singular_value(M):
    """1/||M^{-1}||_2 by Lanczos over sparse LU solves, the route of
    GramianSolver.sigma_min."""
    lu = SparseLU(M)
    inv = spsla.LinearOperator(M.shape, matvec=lu.solve,
                               rmatvec=lu.solve_transpose, dtype=float)
    return 1.0 / two_norm(inv)


class TestSmallestSingularValue:
    def test_diagonal(self):
        M = sps.diags([1.0, 0.001]).tocsr()
        assert smallest_singular_value(M) == pytest.approx(0.001, rel=1e-12)

    def test_orthogonal(self, rng):
        Q = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        assert smallest_singular_value(sps.csr_matrix(Q)) == pytest.approx(1.0, rel=1e-12)

    def test_matches_dense_svd(self, rng):
        M = rng.standard_normal((30, 30)) + 3 * np.eye(30)
        expected = np.linalg.svd(M, compute_uv=False)[-1]
        got = smallest_singular_value(sps.csr_matrix(M))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got * np.linalg.norm(np.linalg.inv(M), 2) == pytest.approx(1.0, rel=1e-12)
