"""Dense/sparse linear algebra kernels shared by all other modules.

Everything here is a thin, contract-checked layer over numpy/scipy:
Kronecker and vec utilities, nonsymmetric eigendecomposition,
orthonormalization, the oblique Gram guard, sparse LU solves and norms.
One routine, :func:`two_norm`, takes every operator 2-norm: a dense SVD
for arrays and one Lanczos run (ARPACK ``svds``) for sparse matrices
and matrix-free operators; :func:`spectral_abscissa` takes the
rightmost eigenvalue by one Arnoldi run (ARPACK ``eigs``).
"""

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps
import scipy.sparse.linalg as spsla

EPS = 2.0 ** -52


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a matrix assumed invertible turns out singular."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative kernel fails to reach its tolerance."""


def kron(P, Q):
    """Kronecker product of two (dense or sparse) matrices.

    Block (i, j) of the result is ``P[i, j] * Q``; the result is
    sparse iff both inputs are sparse.
    """
    if sps.issparse(P) and sps.issparse(Q):
        return sps.kron(P, Q, format="csr")
    P = P.toarray() if sps.issparse(P) else np.asarray(P)
    Q = Q.toarray() if sps.issparse(Q) else np.asarray(Q)
    return np.kron(P, Q)


def vec(P):
    """Column-stacking vec operator: columns of P concatenated top to bottom."""
    P = P.toarray() if sps.issparse(P) else np.asarray(P)
    return P.reshape(-1, order="F")


def unvec(x, a, b):
    """Inverse of :func:`vec`: reshape a length a*b vector to an a-by-b matrix."""
    x = np.asarray(x)
    if x.size != a * b:
        raise ValueError(f"cannot unvec length-{x.size} vector to {a}x{b}")
    return x.reshape(a, b, order="F")


class EigenDecomposition:
    """Eigenvalues and right eigenvectors of a square matrix.

    Satisfies ``M @ R == R @ diag(eigenvalues)`` up to roundoff; the
    ``ill_conditioned`` flag is set when the eigenvector matrix has a
    condition estimate above 1e12 (numerically defective input).
    """

    def __init__(self, eigenvalues, right_vectors, ill_conditioned):
        self.eigenvalues = eigenvalues
        self.right_vectors = right_vectors
        self.ill_conditioned = ill_conditioned


def eig_dense(M):
    """Eigendecomposition of a real (or complex) dense square matrix.

    Returns an :class:`EigenDecomposition`; raises :class:`ConvergenceError`
    if the underlying QR iteration does not converge.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("eig_dense expects a square matrix")
    try:
        w, R = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    cond = np.linalg.cond(R)
    return EigenDecomposition(w, R, ill_conditioned=not np.isfinite(cond) or cond > 1e12)


def orth(M):
    """Orthonormal basis of the column span of M.

    Full-rank input yields the Q factor of an (unpivoted) QR so that
    ``M = orth(M) @ Z`` with Z triangular; rank-deficient input falls
    back to an SVD basis of the numerical rank, the number of singular
    values above max(n, r) * EPS times the largest.  A zero input
    gives an n-by-0 result.
    """
    M = np.asarray(M)
    n, r = M.shape
    if n < r:
        raise ValueError("orth expects a tall (or square) matrix")
    sv = spla.svdvals(M) if min(n, r) > 0 else np.array([])
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros((n, 0), dtype=M.dtype)
    q = int(np.count_nonzero(sv > max(n, r) * EPS * sv[0]))
    if q == r:
        Q, _ = np.linalg.qr(M)
        return Q
    U, _, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, :q]


def oblique_gram(W, V):
    """The matrix W^T V of an oblique projection, checked to be invertible.

    Raises :class:`SingularMatrixError` when its condition number is not
    finite or exceeds 1e14.
    """
    WtV = W.T @ V
    cond = np.linalg.cond(WtV)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularMatrixError(
            "W^T V is numerically singular; the oblique projection assumes "
            "it to be invertible")
    return WtV


def two_norm(M):
    """Largest singular value of a dense array, sparse matrix or LinearOperator.

    A dense array gets a dense SVD.  Anything else gets one Lanczos run on
    M^T M (ARPACK ``svds``, k=1) from a fixed start vector, so results repeat;
    the returned value is accurate to about 1e-12 relative.  An operator
    with ``min(shape) <= 6``, below ARPACK's minimum Krylov dimension, is
    applied to the identity and read densely.  Raises
    :class:`ConvergenceError` if ARPACK does not converge.
    """
    if not (sps.issparse(M) or isinstance(M, spsla.LinearOperator)):
        M = np.asarray(M)
        return float(np.linalg.norm(M, 2)) if M.size else 0.0
    op = spsla.aslinearoperator(M)
    if min(op.shape) <= 6:        # ARPACK needs more rows than its ncv = 6
        return two_norm(op.matmat(np.eye(op.shape[1])))
    v0 = np.random.default_rng(0).standard_normal(min(op.shape))
    try:
        # svds squares tol: the Ritz value of M^T M is accurate to 1e-12
        sigma = spsla.svds(op, k=1, ncv=6, tol=1e-6, v0=v0,
                           return_singular_vectors=False)
    except spsla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"two_norm: Lanczos did not converge: {exc}") from exc
    return float(sigma[0])


def spectral_abscissa(M):
    """Largest real part of an eigenvalue of a square sparse (or dense) matrix.

    One ARPACK run (``eigs``, k=1, ``which="LR"``) from a fixed start
    vector, so results repeat.  A matrix of order at most 2, below ARPACK's
    ``k < n - 1``, is read densely.  Raises :class:`ConvergenceError` if
    ARPACK does not converge.
    """
    n = M.shape[0]
    if n <= 2:
        M = M.toarray() if sps.issparse(M) else np.asarray(M)
        return float(np.linalg.eigvals(M).real.max())
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        w = spsla.eigs(M, k=1, which="LR", v0=v0, return_eigenvectors=False)
    except spsla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"spectral_abscissa: Arnoldi did not converge: {exc}") from exc
    return float(w[0].real)


def frobenius_norm(M):
    if sps.issparse(M):
        return float(np.sqrt((abs(M.data) ** 2).sum()))
    return float(np.linalg.norm(np.asarray(M)))


class SparseLU:
    """Reusable sparse LU factorization with a singularity guard.

    The factorization is computed once and is safe to share across
    threads for concurrent solves.
    """

    def __init__(self, M):
        M = sps.csc_matrix(M)
        if M.shape[0] != M.shape[1]:
            raise ValueError("sparse_lu expects a square matrix")
        self._fro = frobenius_norm(M)
        try:
            self._lu = spsla.splu(M)
        except RuntimeError as exc:
            raise SingularMatrixError(f"sparse LU failed (structurally singular?): {exc}") from exc
        # zero (or near-zero) pivot check relative to the matrix scale
        u_diag = self._lu.U.diagonal()
        pivot_floor = 1e-13 * self._fro
        if self._fro > 0 and np.min(np.abs(u_diag)) <= pivot_floor:
            raise SingularMatrixError(
                f"numerically singular matrix: pivot {np.min(np.abs(u_diag)):.3e} "
                f"below threshold {pivot_floor:.3e}"
            )
        self.shape = M.shape

    def solve(self, rhs):
        rhs = np.asarray(rhs)
        return self._lu.solve(rhs)

    def solve_transpose(self, rhs):
        rhs = np.asarray(rhs)
        if np.iscomplexobj(rhs):
            # SuperLU trans='T' is an unconjugated transpose solve
            return self._lu.solve(rhs.real, trans="T") + 1j * self._lu.solve(rhs.imag, trans="T")
        return self._lu.solve(rhs, trans="T")
