"""Dense/sparse linear algebra kernels shared by all other modules.

Everything here is a thin, contract-checked layer over numpy/scipy:
Kronecker and vec utilities, nonsymmetric eigendecomposition,
orthonormalization, norms, sparse LU solves and smallest-singular-value
estimation via inverse iteration.
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


def orth(M, rank_tol=None):
    """Orthonormal basis of the column span of M.

    Full-rank input yields the Q factor of an (unpivoted) QR so that
    ``M = orth(M) @ Z`` with Z triangular; rank-deficient input falls
    back to an SVD basis of the detected numerical rank.  A zero input
    gives an n-by-0 result.
    """
    M = np.asarray(M)
    n, r = M.shape
    if n < r:
        raise ValueError("orth expects a tall (or square) matrix")
    sv = spla.svdvals(M) if min(n, r) > 0 else np.array([])
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros((n, 0), dtype=M.dtype)
    if rank_tol is None:
        rank_tol = max(n, r) * EPS * sv[0]
    q = int(np.count_nonzero(sv > rank_tol))
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


def two_norm(M, rel_tol=1e-6, maxit=500):
    """Largest singular value; dense SVD for small inputs, power iteration otherwise."""
    if sps.issparse(M):
        if max(M.shape) <= 400:
            return float(np.linalg.norm(M.toarray(), 2))
        return _power_two_norm(M.dot, M.T.dot, M.shape, rel_tol, maxit)
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def _power_two_norm(apply_fn, apply_t_fn, shape, rel_tol=1e-6, maxit=500, seed=0):
    """Power iteration on M^T M through matrix-free applies of M and M^T."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape[1])
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(maxit):
        y = apply_t_fn(apply_fn(x))
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        sigma_new = np.sqrt(ny)
        x = y / ny
        if abs(sigma_new - sigma) <= rel_tol * sigma_new:
            return float(sigma_new)
        sigma = sigma_new
    return float(sigma)


def frobenius_norm(M):
    if sps.issparse(M):
        return float(np.sqrt((abs(M.data) ** 2).sum()))
    return float(np.linalg.norm(np.asarray(M)))


def norms(M):
    """Dict with the 2-norm and Frobenius norm of a matrix."""
    return {"two_norm": two_norm(M), "frobenius_norm": frobenius_norm(M)}


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


def sparse_lu_solve(M, rhs):
    """Direct solve M x = rhs (rhs may have several columns) via sparse LU."""
    return SparseLU(M).solve(np.asarray(rhs))


def smallest_singular_value(solve, solve_transpose, d, rel_tol=1e-4, maxit=2000, seed=0):
    """Smallest singular value of a d-by-d operator given direct solves.

    Runs inverse power iteration on M^T M, i.e. power iteration on
    (M^T M)^{-1} through the supplied ``solve`` / ``solve_transpose``
    callables; returns 1/||M^{-1}||_2.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    sigma = np.inf
    for _ in range(maxit):
        y = solve_transpose(solve(x))
        ny = np.linalg.norm(y)
        if ny == 0.0:
            raise SingularMatrixError("inverse iteration produced a zero vector")
        sigma_new = 1.0 / np.sqrt(ny)
        x = y / ny
        if np.isfinite(sigma) and abs(sigma_new - sigma) <= 0.1 * rel_tol * sigma_new:
            return float(sigma_new)
        sigma = sigma_new
    raise ConvergenceError(
        f"smallest_singular_value: no convergence in {maxit} iterations"
    )


def smallest_singular_value_sparse(M, **kwargs):
    """Convenience wrapper: factor a sparse matrix once and run inverse iteration."""
    lu = SparseLU(M)
    return smallest_singular_value(lu.solve, lu.solve_transpose, M.shape[0], **kwargs)
