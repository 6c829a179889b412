"""Bilinear state-space systems and their H2-norm machinery.

A bilinear system is the quadruple (A, {N_k}, B, C) of
``x' = A x + sum_k N_k x u_k + B u``, ``y = C x``.  This module provides
two independent H2-norm routes (the Kronecker quadratic form and the
Gramian trace formula), error-system assembly, generalized Lyapunov
solves, and the invertibility/conditioning diagnostics on the
block-Kronecker operator of the error system.

Every solve with the n^2-by-n^2 Gramian operator
``G = -A(x)I - I(x)A - sum_k N_k(x)N_k`` goes through one
:class:`GramianSolver` per system: the Lyapunov part is inverted in the
coordinates of one real block-diagonalizing factor of A (Bavely-Stewart
on its real Schur form), where it acts on each pair of diagonal blocks
alone, and a Sherman-Morrison-Woodbury correction over the columns the
N_k touch handles the bilinear part.  Its capacitance matrix comes from
tensor contractions and each solve from GEMMs.  It also applies G
matrix-free, so the extreme singular values of G come from Lanczos runs
over its applies and solves, and the assembled operators are kept only
as small-n test oracles.  The stationary generalized-Lyapunov iteration
keeps its own Bartels-Stewart solver on a real Schur factor, so the two
H2-norm routes remain different algorithms.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.linalg as spla
import scipy.sparse as sps
from scipy.linalg.lapack import dtrsen, dtrsyl
from scipy.sparse.linalg import LinearOperator

from . import linalg
from .linalg import SingularMatrixError, kron, oblique_gram, unvec, vec

# Stationary generalized-Lyapunov iteration: the backward error at which
# it stops, and its step budget before the Kronecker fallback.
LYAP_TOL = 1e-12
LYAP_MAXIT = 500
# Block diagonalization of A: a cluster of its real Schur form grows until
# the Sylvester solution that decouples it from the rest of the spectrum
# has at most this Frobenius norm.  Well-separated clusters of the flow and
# heat models need at most 4; a defective eigenvalue needs 1e12 and more.
DECOUPLE_MAX = 1e2


class BilinearSystem:
    """Immutable bilinear system (A, {N_k}, B, C) of order n with m inputs, p outputs."""

    def __init__(self, A, N, B, C, label=""):
        A = sps.csr_matrix(A)
        N = [sps.csr_matrix(Nk) for Nk in N]
        B = sps.csr_matrix(B)
        C = sps.csr_matrix(C)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        m = B.shape[1]
        p = C.shape[0]
        if len(N) != m:
            raise ValueError(f"need one N_k per input channel: got {len(N)}, m={m}")
        for Nk in N:
            if Nk.shape != (n, n):
                raise ValueError("each N_k must be n-by-n")
        if B.shape[0] != n or C.shape[1] != n:
            raise ValueError("B / C dimensions inconsistent with A")
        self.A, self.N, self.B, self.C = A, N, B, C
        self.n, self.m, self.p = n, m, p
        self.label = label
        self._gramian_solver = None

    def gramian_solver(self):
        """The system's :class:`GramianSolver`, built on first use and kept."""
        if self._gramian_solver is None:
            self._gramian_solver = GramianSolver(self)
        return self._gramian_solver

    def project(self, V, W):
        """Oblique Petrov-Galerkin projection onto the trial and test bases
        (V, W): the reduced model with T = (W^T V)^{-1} and matrices
        T W^T A V, T W^T N_k V, T W^T B and C V.  Raises
        :class:`SingularMatrixError` if W^T V is numerically singular."""
        WtV = oblique_gram(W, V)
        A_r = np.linalg.solve(WtV, W.T @ (self.A @ V))
        N_r = [np.linalg.solve(WtV, W.T @ (Nk @ V)) for Nk in self.N]
        B_r = np.linalg.solve(WtV, W.T @ self.B.toarray())
        C_r = self.C @ V
        return BilinearSystem(A_r, N_r, B_r, np.asarray(C_r),
                              label=self.label + ":reduced")

    def is_stable(self):
        """True iff every eigenvalue of A has negative real part, by
        :func:`linalg.spectral_abscissa` on the sparse A."""
        return linalg.spectral_abscissa(self.A) < 0

    def dense(self):
        """The four matrices as dense arrays (A, [N_k], B, C)."""
        return (self.A.toarray(), [Nk.toarray() for Nk in self.N],
                self.B.toarray(), self.C.toarray())

    def save(self, directory):
        """Write the system as Matrix Market files plus a metadata text file."""
        os.makedirs(directory, exist_ok=True)
        scipy.io.mmwrite(os.path.join(directory, "A.mtx"), self.A)
        for k, Nk in enumerate(self.N, start=1):
            scipy.io.mmwrite(os.path.join(directory, f"N{k}.mtx"), Nk)
        scipy.io.mmwrite(os.path.join(directory, "B.mtx"), self.B)
        scipy.io.mmwrite(os.path.join(directory, "C.mtx"), self.C)
        with open(os.path.join(directory, "metadata.txt"), "w") as fh:
            fh.write(f"n {self.n}\nm {self.m}\np {self.p}\nlabel {self.label}\n")

    @classmethod
    def load(cls, directory):
        meta = {}
        with open(os.path.join(directory, "metadata.txt")) as fh:
            for line in fh:
                key, _, value = line.strip().partition(" ")
                meta[key] = value
        m = int(meta["m"])
        A = scipy.io.mmread(os.path.join(directory, "A.mtx"))
        N = [scipy.io.mmread(os.path.join(directory, f"N{k}.mtx")) for k in range(1, m + 1)]
        B = scipy.io.mmread(os.path.join(directory, "B.mtx"))
        C = scipy.io.mmread(os.path.join(directory, "C.mtx"))
        B = sps.csr_matrix(B)
        if B.shape[1] != m:
            raise ValueError("metadata m inconsistent with B")
        return cls(A, N, B, C, label=meta.get("label", ""))


def gramian_operator(sys):
    """Assembled n^2-by-n^2 operator -A(x)I - I(x)A - sum_k N_k(x)N_k (sparse).

    A small-n test oracle: applies, solves and norms of this operator go
    through :class:`GramianSolver`.
    """
    I = sps.identity(sys.n, format="csr")
    G = -kron(sys.A, I) - kron(I, sys.A)
    for Nk in sys.N:
        G = G - kron(Nk, Nk)
    return G.tocsr()


class _Lyapunov:
    """L^{-1} for L(X) = -(A X + X A^T), by Bartels-Stewart (``dtrsyl``)
    on one real Schur factor ``A = Z T Z^T``: the inner solve of
    :func:`solve_generalized_lyapunov`."""

    def __init__(self, A):
        self.T, self.Z = spla.schur(A, output="real")

    def solve(self, R):
        """X with L(X) = R."""
        Z = self.Z
        Y, scale, info = dtrsyl(self.T, self.T, -(Z.T @ R @ Z), "N", "T")
        if info != 0:
            raise SingularMatrixError(
                "Lyapunov operator singular: two eigenvalues of A sum to zero")
        return Z @ (Y / scale) @ Z.T


def _schur_bounds(T, start=0):
    """Start of each 1x1 and 2x2 diagonal block of the real Schur form T from
    ``start`` on, followed by its order."""
    n = T.shape[0]
    bounds, i = [], start
    while i < n:
        bounds.append(i)
        i += 2 if i + 1 < n and T[i + 1, i] != 0 else 1
    return bounds + [n]


def _schur_eigvals(T):
    """Eigenvalues of the real Schur form T, one per diagonal position: a
    standardized 2x2 block has equal diagonal entries and eigenvalues
    ``t_pp +- i sqrt(-t_{p,p+1} t_{p+1,p})``."""
    ev = np.diag(T).astype(complex)
    p = np.flatnonzero(np.diag(T, -1))
    im = np.sqrt(np.abs(T[p, p + 1] * T[p + 1, p]))
    ev[p] += 1j * im
    ev[p + 1] -= 1j * im
    return ev


def _decoupling(T, bounds):
    """Block diagonal D of T over the clusters ``bounds``, and the strictly
    block upper triangular U with (I - U) T = D (I - U).  Row block k of U
    is the Sylvester solution that decouples cluster k from the clusters
    after it; all of them come from one ``dtrsyl`` of D against T, whose
    zero right-hand side on and below the block diagonal keeps U zero there
    (``info`` flags that singular part and is ignored)."""
    D = np.zeros_like(T)
    for a, b in zip(bounds[:-1], bounds[1:]):
        D[a:b, a:b] = T[a:b, a:b]
    U, scale, _ = dtrsyl(D, T, D - T, "N", "N", -1)
    return D, U / scale


def _grow_clusters(T, Z, bounds, first):
    """Bavely-Stewart from cluster ``first`` on: while the Sylvester solution
    that decouples the cluster [i, j) from T[j:, j:] is not finite with
    Frobenius norm at most DECOUPLE_MAX, the diagonal block holding the
    eigenvalue nearest the cluster's is moved to position j (``dtrsen``)
    and joins the cluster."""
    n = T.shape[0]
    bounds = bounds[:first + 1]
    i = bounds[-1]
    while i < n:
        j = _schur_bounds(T, i)[1]
        while j < n:
            Y, scale, _ = dtrsyl(T[i:j, i:j], T[j:, j:], -T[i:j, j:], "N", "N", -1)
            if np.linalg.norm(Y / scale) <= DECOUPLE_MAX:
                break
            ev = _schur_eigvals(T)
            p = j + int(np.argmin(np.abs(ev[j:, None] - ev[i:j]).min(axis=1)))
            if p > j and T[p, p - 1] != 0:       # second row of a 2x2 block
                p -= 1
            q = _schur_bounds(T, p)[1]
            select = np.zeros(n, dtype=np.int32)
            select[:j] = select[p:q] = 1
            T, Z, *_, info = dtrsen(select, T, Z, job="N")
            if info != 0:
                raise np.linalg.LinAlgError(
                    "Schur reordering failed: eigenvalues too close to swap")
            j += q - p
        bounds.append(j)
        i = j
    return T, Z, bounds


def _sylvester(A, B, S, trans):
    """Y with op(A) Y + Y op(B)^T = -S for quasi-triangular A and B, where
    op transposes if ``trans``."""
    Y, scale, _ = dtrsyl(A, B, -S, *(("T", "N") if trans else ("N", "T")))
    return Y / scale


class _BlockDiagonal:
    """One real block-diagonalizing factor ``A = X diag(T_1, ..., T_q) X^{-1}``
    and the inverse of the Lyapunov operator ``L(P) = -(A P + P A^T)`` in its
    coordinates.

    The clusters start as the diagonal blocks of a real Schur form
    ``A = Z T Z^T`` and are decoupled by Bavely and Stewart's method (SIAM
    J. Numer. Anal. 16, 1979): ``X^{-1} = (I - U) Z^T`` with U from
    :func:`_decoupling`.  A cluster whose decoupling solution exceeds
    DECOUPLE_MAX in norm grows (:func:`_grow_clusters`), so X stays well
    conditioned whatever the spectrum, defective or not.  ``sizes`` holds
    the cluster orders and ``cond`` the 1-norm condition number of X.

    With ``P = X Q X^T``, L becomes ``Lam(Q) = -(D Q + Q D^T)`` with
    ``D = diag(T_1, ..., T_q)``, which acts on each cluster pair (a, b)
    alone as ``-(T_a Q_ab + Q_ab T_b^T)``.  On a pair of 1x1 clusters that
    is a product with ``-(lam_a + lam_b)``, so there Lam^{-1} is the
    entrywise product with ``gamma``.  The rows of the clusters of order
    above 1 (positions ``big``) and their columns take one Sylvester solve
    each.  Raises :class:`SingularMatrixError` if two eigenvalues of A sum
    to zero.
    """

    def __init__(self, A):
        T, Z = spla.schur(A, output="real")
        bounds = _schur_bounds(T)
        D, U = _decoupling(T, bounds)
        norms = np.sqrt(np.add.reduceat((U ** 2).sum(axis=1), bounds[:-1]))
        bad = np.flatnonzero(~(norms <= DECOUPLE_MAX))
        if bad.size:
            T, Z, bounds = _grow_clusters(T, Z, bounds, bad[0])
            D, U = _decoupling(T, bounds)
        n = T.shape[0]
        W = np.eye(n) - U
        self.Xinv = W @ Z.T
        self.X = Z @ spla.solve_triangular(W, np.eye(n), unit_diagonal=True)
        self.cond = float(np.linalg.norm(self.X, 1) * np.linalg.norm(self.Xinv, 1))
        self.sizes = np.diff(bounds)
        ev = _schur_eigvals(T)
        if np.abs(ev[:, None] + ev).min() <= linalg.EPS * np.abs(T).max():
            raise SingularMatrixError(
                "Lyapunov operator singular: two eigenvalues of A sum to zero")
        starts = np.array(bounds[:-1])
        self.one = starts[self.sizes == 1]
        self.clusters = [(a, c) for a, c in zip(bounds[:-1], bounds[1:]) if c - a > 1]
        self.big = np.setdiff1d(np.arange(n), self.one)
        self.lam = np.diag(T)[self.one]
        self.D, self.D2 = D, D[np.ix_(self.big, self.big)]
        self.gamma = np.zeros((n, n))
        self.gamma[np.ix_(self.one, self.one)] = -1.0 / (self.lam[:, None] + self.lam)

    def lyap(self, S, transpose=False):
        """Lam^{-1}(S), or Lam^{-T}(S) if ``transpose``, for an n-by-n S."""
        W = self.gamma * S
        one, big = self.one, self.big
        if big.size:
            W[big, :] = _sylvester(self.D2, self.D, S[big, :], transpose)
            if one.size:
                W[np.ix_(one, big)] = _sylvester(np.diag(self.lam), self.D2,
                                                 S[np.ix_(one, big)], transpose)
        return W

    def capacitance(self, XJ, Q):
        """The |J|^2-by-|J|^2 matrix ``M[c + j d, a + j b] = sum_k (X_J
        Lam^{-1}(Q_k[:, a] Q_k[:, b]^T) X_J^T)[c, d]`` for the rows X_J of X
        and the matrices Q_k, without forming Lam^{-1} of any n-by-n matrix.

        Over the pairs of 1x1 clusters it is ``H gamma H^T`` with
        ``H[(c,a), i] = X_J[c,i] Q_k[i,a]``.  A larger cluster T_a pairs with
        each 1x1 cluster through a shifted solve with ``T_a + lam_i I``, all
        of them batched.  The pairs of larger clusters take, for all (a, b)
        at once, one Sylvester solve with |J| copies of their block diagonal
        on either side.
        """
        j = XJ.shape[0]
        one, big, lam = self.one, self.big, self.lam
        Dj = np.kron(np.eye(j), self.D2)
        M = np.zeros((j, j, j, j))
        for Qk in Q:
            H = (XJ[:, one][:, None, :] * Qk[one].T[None]).reshape(j * j, one.size)
            M += (H @ self.gamma[np.ix_(one, one)] @ H.T).reshape(j, j, j, j)
            if not (big.size and j):
                continue
            # (T_a + lam_i I) Z_i = -Q_k[a]: the pairs (big, 1x1) and, by
            # symmetry of the sum, (1x1, big)
            for a, b in self.clusters:
                Zs = np.linalg.solve(-(self.D[a:b, a:b] + lam[:, None, None] * np.eye(b - a)),
                                     np.broadcast_to(Qk[a:b], (one.size, b - a, j)))
                G = np.einsum("cm,sma->sca", XJ[:, a:b], Zs).reshape(one.size, j * j)
                GH = (G.T @ H.T).reshape(j, j, j, j)
                M += GH + GH.transpose(2, 3, 0, 1)
            q = Qk[big].T.reshape(-1)
            W = _sylvester(Dj, Dj, np.outer(q, q), False).reshape(j, big.size, j, big.size)
            XB = XJ[:, big]
            M += np.einsum("ci,aibl,dl->cadb", XB, W, XB, optimize=True)
        return M.transpose(2, 0, 3, 1).reshape(j * j, j * j)


class GramianSolver:
    """Exact solves with the Gramian operator G and its transpose, and
    matrix-free applies of both.

    On matrices, ``G(X) = L(X) - sum_k N_k X N_k^T`` with the Lyapunov
    part ``L(X) = -(A X + X A^T)``.  If J is the union of the column
    supports of the N_k and ``P_k = N_k[:, J]``, the bilinear part is
    ``sum_k P_k X[J, J] P_k^T``, an update of rank at most |J|^2, so G is
    inverted by the Sherman-Morrison-Woodbury formula with the capacitance
    matrix ``K = I - M``, ``M = (Y -> L^{-1}(sum_k P_k Y P_k^T)[J, J])`` of
    order |J|^2, factored once and used transposed for G^T (Damm, NLAA 15,
    2008).  L^{-1} runs in the coordinates of one block-diagonalizing
    factor ``A = X diag(T_1, ..., T_q) X^{-1}`` (:class:`_BlockDiagonal`),
    where it acts on each cluster pair alone.  So M comes from contracting
    ``X^{-1} P_k`` and ``X[J, :]`` against that inverse, and each solve
    costs four GEMMs of order n.  ``support`` holds J, ``cluster_sizes``
    the orders of the T_i and ``cond_X`` the 1-norm condition number of X.

    Raises :class:`SingularMatrixError` if two eigenvalues of A sum to
    zero (L singular) or K is numerically singular (G singular).
    """

    def __init__(self, sys):
        self.n = sys.n
        self._A = sys.A
        F = self._F = _BlockDiagonal(sys.A.toarray())
        self.cluster_sizes, self.cond_X = F.sizes, F.cond
        # J: sorted union of the column indices where some N_k is nonzero
        J = np.unique(np.concatenate([Nk.indices for Nk in sys.N]
                                     + [np.zeros(0, dtype=int)]))
        self.support = J
        self._P = [Nk[:, J].toarray() for Nk in sys.N]
        j = J.size
        self._XJ = F.X[J, :]
        self._Q = [F.Xinv @ Pk for Pk in self._P]
        # M = V^T L^{-1} U, column a + j*b from the image of E_ab under U
        M = F.capacitance(self._XJ, self._Q)
        self._K_lu = spla.lu_factor(np.eye(j * j) - M, check_finite=False)
        # K = I - M: a pivot at roundoff of the two terms means G is singular
        pivot = np.abs(np.diag(self._K_lu[0])).min(initial=np.inf)
        pivot_floor = 1e-13 * (j + np.linalg.norm(M))
        if not pivot > pivot_floor:
            raise SingularMatrixError(
                f"numerically singular Gramian operator: capacitance pivot "
                f"{pivot:.3e} below threshold {pivot_floor:.3e}")

    def solve(self, rhs):
        """x with G x = rhs, for a length-n^2 vector."""
        F, n, j = self._F, self.n, self.support.size
        W = F.lyap(F.Xinv @ unvec(rhs, n, n) @ F.Xinv.T)
        if j:
            XJ = self._XJ
            Y = unvec(spla.lu_solve(self._K_lu, vec(XJ @ W @ XJ.T)), j, j)
            W = W + F.lyap(sum(Qk @ Y @ Qk.T for Qk in self._Q))
        return vec(F.X @ W @ F.X.T)

    def solve_transpose(self, rhs):
        """x with G^T x = rhs, for a length-n^2 vector."""
        F, n, j = self._F, self.n, self.support.size
        W = F.lyap(F.X.T @ unvec(rhs, n, n) @ F.X, transpose=True)
        if j:
            XJ = self._XJ
            y = vec(sum(Qk.T @ W @ Qk for Qk in self._Q))
            E = unvec(spla.lu_solve(self._K_lu, y, trans=1), j, j)
            W = W + F.lyap(XJ.T @ E @ XJ, transpose=True)
        return vec(F.Xinv.T @ W @ F.Xinv)

    def apply(self, x):
        """G x for a length-n^2 vector, without assembling G."""
        J, A = self.support, self._A
        X = unvec(x, self.n, self.n)
        XJ = X[np.ix_(J, J)]
        return -vec(A @ X + (A @ X.T).T + sum(Pk @ XJ @ Pk.T for Pk in self._P))

    def apply_transpose(self, x):
        """G^T x for a length-n^2 vector, without assembling G."""
        J, At = self.support, self._A.T
        X = unvec(x, self.n, self.n)
        Y = At @ X + (At @ X.T).T
        Y[np.ix_(J, J)] += sum(Pk.T @ X @ Pk for Pk in self._P)
        return -vec(Y)

    def sigma_max(self):
        """Largest singular value of G: Lanczos over the applies."""
        return linalg.two_norm(self._operator(self.apply, self.apply_transpose))

    def sigma_min(self):
        """Smallest singular value of G: 1/||G^{-1}||_2 by Lanczos over the solves."""
        return 1.0 / linalg.two_norm(self._operator(self.solve, self.solve_transpose))

    def _operator(self, matvec, rmatvec):
        return LinearOperator((self.n ** 2,) * 2, matvec, rmatvec, dtype=float)


@dataclass
class QHatDiagnostics:
    """Norm diagnostics of the error-system block operator Q.

    All quantities come from the exact 4-fold decoupling of Q into
    copies of the n^2-by-n^2 base Gramian operator, so Q and the base
    operator share their singular-value multiset.  ``qinv_norm`` is the
    reciprocal of the largest singular value of the base operator (the
    inverse-norm gauge used by the accuracy analysis and by the
    condition-number hypothesis check); ``base_sigma_min`` is the
    smallest singular value, whose positivity certifies invertibility;
    ``lyapunov_symbol_sigma_min`` is the smallest singular value of the
    n-by-n symbol -A^T - A - sum_k N_k N_k^T, a cheap sufficient
    invertibility check.  The base singular values come from one Lanczos
    run each (:func:`linalg.two_norm`), accurate to about 1e-12 relative.
    """

    qinv_norm: float
    base_sigma_min: float
    base_sigma_max: float
    lyapunov_symbol_sigma_min: float


def qhat_diagnostics(sys):
    """Invertibility/conditioning diagnostics for the error-system operator."""
    solver = sys.gramian_solver()
    base_sigma_max = solver.sigma_max()
    base_sigma_min = solver.sigma_min()
    symbol = (-sys.A.T - sys.A - sum(Nk @ Nk.T for Nk in sys.N)).toarray()
    sym_sigma_min = float(spla.svdvals(symbol)[-1])
    return QHatDiagnostics(
        qinv_norm=1.0 / base_sigma_max,
        base_sigma_min=base_sigma_min,
        base_sigma_max=base_sigma_max,
        lyapunov_symbol_sigma_min=sym_sigma_min,
    )


def assemble_qhat(sys):
    """Dense 4n^2-by-4n^2 error-system operator (desk scale, for verification)."""
    A, N, _, _ = sys.dense()
    n = sys.n
    A2 = spla.block_diag(A, A)
    I2n = np.eye(2 * n)
    Q = -np.kron(A2, I2n) - np.kron(I2n, A2)
    for Nk in N:
        N2 = spla.block_diag(Nk, Nk)
        Q -= np.kron(N2, N2)
    return Q


def _h2_from_square(val):
    """The H2 norm from its square; a square negative beyond roundoff
    (an unstable system, or one without an H2 norm) raises
    ``np.linalg.LinAlgError``."""
    if val < -1e-12 * max(1.0, abs(val)):
        raise np.linalg.LinAlgError(
            f"negative H2 norm-square {val:.3e}: system unstable or "
            "Gramian assumption violated")
    return float(np.sqrt(max(val, 0.0)))


def h2_norm_kron(sys):
    """H2 norm via the Kronecker quadratic form vec(I)^T (C(x)C) G^{-1}
    (B(x)B) vec(I), with the solve by the system's :class:`GramianSolver`.

    Raises :class:`SingularMatrixError` on a singular operator and
    ``np.linalg.LinAlgError`` if the norm-square comes out negative beyond
    roundoff.
    """
    if sys.C.nnz == 0 or sys.B.nnz == 0:
        return 0.0
    rhs = kron(sys.B, sys.B) @ vec(np.eye(sys.m))
    x = sys.gramian_solver().solve(rhs)
    return _h2_from_square(float(vec(np.eye(sys.p)) @ (kron(sys.C, sys.C) @ x)))


def solve_generalized_lyapunov(sys):
    """Reachability Gramian P of A P + P A^T + sum_k N_k P N_k^T = -B B^T.

    Runs the stationary iteration with Bartels-Stewart inner solves on one
    Schur factor of A, until the residual is at most ``LYAP_TOL`` times the
    norms of the terms it sums, ||B B^T|| + 2 ||A P|| + sum_k ||N_k P N_k^T||
    (a backward error, whose roundoff floor does not grow with n); on
    divergence falls back to the direct Kronecker solve with the system's
    :class:`GramianSolver`.  Returns ``(P, method)`` with method in
    {"stationary", "kronecker"}.
    """
    A, N = sys.A, sys.N
    BBt = (sys.B @ sys.B.T).toarray()
    bbt_norm = np.linalg.norm(BBt)
    rhs_norm = max(bbt_norm, 1.0)
    lyap = _Lyapunov(A.toarray())
    NPN = []
    best_res = np.inf
    for _ in range(LYAP_MAXIT):
        P = lyap.solve(BBt + sum(NPN))
        P = 0.5 * (P + P.T)
        AP = A @ P
        # P is symmetric, so N P N^T = N (N P)^T and P A^T = (A P)^T
        NPN = [Nk @ (Nk @ P).T for Nk in N]
        res = np.linalg.norm(AP + AP.T + sum(NPN) + BBt)
        terms = bbt_norm + 2 * np.linalg.norm(AP) + sum(map(np.linalg.norm, NPN))
        if res <= LYAP_TOL * terms:
            return P, "stationary"
        # divergence (rho(L^{-1} Pi) >= 1) grows the residual by less than
        # tenfold per step, so it is measured against the best so far
        if not np.isfinite(res) or res > 10 * max(best_res, rhs_norm):
            break
        best_res = min(best_res, res)
    # divergent (spectral radius >= 1) or stagnating: direct solve
    P = unvec(sys.gramian_solver().solve(vec(BBt)), sys.n, sys.n)
    return 0.5 * (P + P.T), "kronecker"


def h2_norm_lyap(sys):
    """H2 norm via the Gramian trace formula trace(C P C^T)."""
    if sys.C.nnz == 0 or sys.B.nnz == 0:
        return 0.0
    P, _ = solve_generalized_lyapunov(sys)
    C = sys.C.toarray()
    return _h2_from_square(float(np.trace(C @ P @ C.T)))


def error_system(sys1, sys2):
    """Block-diagonal error system whose output is y_1 - y_2.

    Works for full-vs-full and full-vs-reduced pairings; the input and
    output channel counts must match.
    """
    if sys1.m != sys2.m or sys1.p != sys2.p:
        raise ValueError("channel counts (m, p) must match across the two systems")
    A = sps.block_diag([sys1.A, sys2.A], format="csr")
    N = [sps.block_diag([N1, N2], format="csr") for N1, N2 in zip(sys1.N, sys2.N)]
    B = sps.vstack([sys1.B, sys2.B], format="csr")
    C = sps.hstack([sys1.C, -sys2.C], format="csr")
    return BilinearSystem(A, N, B, C, label=f"err({sys1.label},{sys2.label})")


def h2_error(sys1, sys2):
    """H2 norm of the error system between two bilinear systems."""
    return h2_norm_kron(error_system(sys1, sys2))
