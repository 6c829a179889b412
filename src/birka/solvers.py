"""Linear solvers for the Kronecker-structured sieve systems.

The reduction algorithm needs, at every outer iteration, the solutions
of a primal system M vec(V) = b and its transposed dual M^T vec(W) = c
with M = -S^T (x) I_n - I_r (x) A - sum_k NCheck_k^T (x) N_k.  The
reduction hands over S and NCheck_k in the real paired eigenbasis of
the reduced drift (see ``reduction.sieve_operator``): a real eigenvalue
keeps its own column and each conjugate pair becomes a real 2-by-2
block of S, so M, b, c and both solutions are real.  This module
provides the matrix-free operator, an exact sparse-LU path, a coupled
two-sided BiCG that solves the primal/dual pair within a single
recurrence (so the two Krylov spaces stay bi-orthogonally paired), and
a threshold-ILU preconditioner for the assembled operator.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spsla

from .linalg import (ConvergenceError, SingularMatrixError, SparseLU,
                     frobenius_norm, unvec, vec)

# Coupled BiCG: a pairing scalar at most BICG_BREAKDOWN times the product
# of the norms it pairs is a bi-orthogonality breakdown, and a restart
# nudges the dual iterate with draws from a generator seeded BICG_SEED.
BICG_BREAKDOWN = 1e-14
BICG_SEED = 1234
# Threshold ILU: fill ratio bound nnz(L + U) / nnz(M) passed to spilu.
ILU_FILL = 10.0


class KroneckerOperator:
    """Matrix-free M = -S^T (x) I_n - I_r (x) A - sum_k NCheck_k^T (x) N_k.

    ``apply`` multiplies by M, i.e. maps vec(X) to
    vec(-X S - A X - sum_k N_k X NCheck_k), and ``apply_transpose`` by
    M^T, where the transpose is taken WITHOUT conjugation so that the
    dual operator is exactly the transpose of the primal one even for
    complex data.  Both act on length n*r vectors interpreted as vec of
    an n-by-r matrix (column stacking).

    ``Lambda`` is either the r-by-r matrix S or a length-r vector that
    stands for diag(Lambda).  The reduction passes the real
    block-diagonal S = U^H diag(lambda) U of its real paired basis, in
    which the dual right-hand side carries conj(U) and both solutions
    are real, together with ``rotation`` = U when there is a conjugate
    pair; :func:`build_ilut` then factors the operator in the complex
    eigenbasis (see :meth:`assemble_eigenbasis`).  The transposes A^T
    and N_k^T are converted to CSR once, here, rather than on every
    ``apply_transpose``.
    """

    def __init__(self, Lambda, NCheckCheck, sys, rotation=None):
        Lambda = np.asarray(Lambda)
        if Lambda.ndim <= 1:
            Lambda = Lambda.reshape(-1)
        S = np.diag(Lambda) if Lambda.ndim == 1 else Lambda
        r = S.shape[0]
        if S.shape != (r, r):
            raise ValueError("S must be r-by-r")
        NCheckCheck = [np.asarray(Nc) for Nc in NCheckCheck]
        if len(NCheckCheck) != sys.m:
            raise ValueError("need one NCheck_k per input channel")
        for Nc in NCheckCheck:
            if Nc.shape != (r, r):
                raise ValueError("each NCheck_k must be r-by-r")
        self.Lambda = Lambda
        self.S = S
        self.rotation = rotation
        self.NCheckCheck = NCheckCheck
        self.A = sys.A
        self.N = sys.N
        self._At = sys.A.T.tocsr()
        self._Nt = [Nk.T.tocsr() for Nk in sys.N]
        self.n, self.r = sys.A.shape[0], r
        self.shape = (self.n * r, self.n * r)
        self.dtype = np.result_type(S.dtype, *(Nc.dtype for Nc in NCheckCheck))

    def _as_matrix(self, x):
        return unvec(np.asarray(x), self.n, self.r)

    def apply(self, x):
        """M @ x through vec identities: (P^T (x) Q) vec(X) = vec(Q X P)."""
        X = self._as_matrix(x)
        Y = -X @ self.S - self.A @ X
        for Nc, Nk in zip(self.NCheckCheck, self.N):
            Y = Y - Nk @ (X @ Nc)
        return vec(Y)

    def apply_transpose(self, x):
        """M^T @ x (plain transpose, no conjugation)."""
        X = self._as_matrix(x)
        Y = -X @ self.S.T - self._At @ X
        for Nc, Nkt in zip(self.NCheckCheck, self._Nt):
            Y = Y - Nkt @ (X @ Nc.T)
        return vec(Y)

    def assemble(self):
        """Assembled sparse (n*r)-by-(n*r) matrix (complex when the data is)."""
        return _assemble(self.S, self.NCheckCheck, self.A, self.N)

    def assemble_eigenbasis(self):
        """The operator in the complex eigenbasis, P^{-1} M P with
        P = U^T (x) I_n for U = ``rotation``: diagonal U S U^H and
        U NCheck_k U^H."""
        U, Uh = self.rotation, self.rotation.conj().T
        return _assemble(np.diag(np.diag(U @ self.S @ Uh)),
                         [U @ Nc @ Uh for Nc in self.NCheckCheck], self.A, self.N)


def _assemble(S, NCheckCheck, A, N):
    n, r = A.shape[0], S.shape[0]
    I_n = sps.identity(n, format="csr")
    I_r = sps.identity(r, format="csr")
    M = -sps.kron(sps.csr_matrix(S.T), I_n) - sps.kron(I_r, A)
    for Nc, Nk in zip(NCheckCheck, N):
        M = M - sps.kron(sps.csr_matrix(Nc.T), Nk)
    return M.tocsr()


@dataclass
class SolveReport:
    """Outcome of one sieve-system solve (primal or dual side).

    ``solution`` and ``residual`` are n-by-r matrices; the residual is
    always recomputed as rhs - operator @ solution after the solve, so
    the stored value is exact by construction.  ``pg_defect`` is the
    bilinear pairing scalar |trace(W^T R_B)| (primal) or
    |trace(R_C^T V)| (dual), quantifying how far the pair is from the
    Petrov-Galerkin orthogonality the stability analysis assumes.
    """

    solution: np.ndarray
    residual: np.ndarray
    iterations: int
    relative_residual_history: list
    tolerance_used: float
    mode: str
    preconditioner: str = "none"
    converged: bool = True
    stagnated: bool = False
    restarts: int = 0
    pg_defect: float = 0.0

    @property
    def relative_residual(self):
        return self.relative_residual_history[-1] if self.relative_residual_history else 0.0


def _finalize_pair(op, b, c, x, xhat, it, hist_p, hist_d, tol, mode,
                   precond="none", conv_p=True, conv_d=True, stag=False, restarts=0):
    n, r = op.n, op.r
    Rp = unvec(b - op.apply(x), n, r)
    Rd = unvec(c - op.apply_transpose(xhat), n, r)
    V = unvec(x, n, r)
    W = unvec(xhat, n, r)
    defect_p = abs(np.trace(W.T @ Rp))
    defect_d = abs(np.trace(Rd.T @ V))
    rep_p = SolveReport(V, Rp, it, hist_p, tol, mode, precond, conv_p,
                        stag, restarts, defect_p)
    rep_d = SolveReport(W, Rd, it, hist_d, tol, mode, precond, conv_d,
                        stag, restarts, defect_d)
    return rep_p, rep_d


def direct_solve(op, rhs_primal, rhs_dual):
    """Exact primal/dual solves via one sparse LU of the assembled operator."""
    M = op.assemble()
    try:
        lu = SparseLU(M)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "assembled sieve operator is singular; the reduction requires "
            "it to be invertible at every iteration"
        ) from exc
    b = np.asarray(rhs_primal, dtype=M.dtype).reshape(-1)
    c = np.asarray(rhs_dual, dtype=M.dtype).reshape(-1)
    x = lu.solve(b)
    xhat = lu.solve_transpose(c)
    nb, nc = np.linalg.norm(b), np.linalg.norm(c)
    hist_p = [float(np.linalg.norm(b - op.apply(x)) / max(nb, 1e-300))]
    hist_d = [float(np.linalg.norm(c - op.apply_transpose(xhat)) / max(nc, 1e-300))]
    return _finalize_pair(op, b, c, x, xhat, 1, hist_p, hist_d,
                          0.0, "direct")


def _times(x, Q):
    """vec(X Q) for x = vec(X), X with Q.shape[0] columns."""
    r = Q.shape[0]
    return vec(unvec(x, x.size // r, r) @ Q)


class IlutPreconditioner:
    """Threshold incomplete-LU factors of an assembled sieve operator.

    With ``rotation`` = U the factors K are those of the operator M_c in
    the complex eigenbasis, and the real operator M = P M_c P^{-1}
    (P = U^T (x) I_n) is preconditioned by Re(P K^{-1} P^{-1}), with
    transpose Re(P^{-T} K^{-T} P^T).  The real part only drops what the
    threshold dropping does differently on the two columns of a pair.
    A threshold ILU of the real paired operator itself, whose 2-by-2
    blocks couple those two columns, is a much weaker preconditioner and
    can be numerically unstable.
    """

    def __init__(self, ilu, drop_tolerance, shift=0.0, rotation=None):
        self._ilu = ilu
        self.drop_tolerance = drop_tolerance
        self.shift = shift
        self.rotation = rotation

    def solve(self, x):
        x = np.asarray(x)
        if self.rotation is None:
            return self._ilu.solve(x)
        U = self.rotation
        return _times(self._ilu.solve(_times(x, U.conj().T)), U).real

    def solve_transpose(self, x):
        x = np.asarray(x)
        if self.rotation is None:
            return self._ilu.solve(x, trans="T")
        U = self.rotation
        return _times(self._ilu.solve(_times(x, U.T), trans="T"), U.conj()).real

    def describe(self):
        base = f"ilut(drop_tol={self.drop_tolerance:g})"
        return base if self.shift == 0.0 else base + f"+shift({self.shift:.3e})"


def build_ilut(op, drop_tol):
    """Threshold ILU of an assembled :class:`KroneckerOperator`, with
    diagonal-shift retries.

    A sieve operator with a ``rotation`` is factored in its complex
    eigenbasis (see :class:`IlutPreconditioner`).  A zero (or unusably
    small) pivot triggers a retry on the shifted matrix M + s*I with
    s = 1e-8 * ||M||_F, doubling s each attempt, at most 3 attempts.
    """
    rotation = op.rotation
    M = sps.csc_matrix(op.assemble() if rotation is None
                       else op.assemble_eigenbasis())
    shift = 0.0
    step = 1e-8 * frobenius_norm(M)
    last_exc = None
    for attempt in range(4):
        try:
            ilu = spsla.spilu(M + shift * sps.identity(M.shape[0], dtype=M.dtype, format="csc")
                              if shift else M,
                              drop_tol, ILU_FILL)
            return IlutPreconditioner(ilu, drop_tol, shift, rotation)
        except RuntimeError as exc:
            last_exc = exc
            shift = step * (2 ** attempt)
    raise SingularMatrixError(
        f"incomplete LU failed even with diagonal shifts: {last_exc}")


def _breaks_down(pairing, u, v):
    """True if the pairing scalar u.v is at roundoff of ||u|| ||v||."""
    return abs(pairing) <= BICG_BREAKDOWN * max(np.linalg.norm(u) * np.linalg.norm(v), 1e-300)


def bicg_dual_solve(op, rhs_primal, rhs_dual, tol, maxit=None, precond=None):
    """Coupled two-sided BiCG for M x = b and M^T xhat = c.

    One BiCG recurrence advances both sides: the shadow sequence of the
    primal solve is exactly the residual sequence of the dual solve, so
    the primal and dual Krylov spaces are built bi-orthogonally paired
    (all inner products are unconjugated bilinear forms).  With an
    optional preconditioner K, the primal side uses K^{-1} and the dual
    side K^{-T}.  On a bi-orthogonality breakdown, of the initial pairing
    or inside the recurrence, the iteration restarts from the current
    iterates (nudging the dual iterate so the pairing scalar of the new
    exact residual pair is no longer degenerate), at most 3 times.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")
    b = np.asarray(rhs_primal).reshape(-1)
    c = np.asarray(rhs_dual).reshape(-1)
    nb, nc = np.linalg.norm(b), np.linalg.norm(c)
    if nb == 0.0 or nc == 0.0:
        raise ValueError("BiCG requires nonzero right-hand sides")
    if maxit is None:
        maxit = 4 * op.n * op.r
    dtype = np.result_type(b.dtype, c.dtype, op.dtype)
    x = np.zeros_like(b, dtype=dtype)
    xhat = np.zeros_like(c, dtype=dtype)
    r = b.astype(dtype)
    rhat = c.astype(dtype)
    rng = np.random.default_rng(BICG_SEED)

    def prec(v):
        return precond.solve(v) if precond is not None else v

    def prec_t(v):
        return precond.solve_transpose(v) if precond is not None else v

    hist_p = [float(np.linalg.norm(r) / nb)]
    hist_d = [float(np.linalg.norm(rhat) / nc)]
    restarts = 0
    it = 0
    stagnated = False
    while it < maxit:
        z = prec(r)
        zhat = prec_t(rhat)
        rho = np.dot(rhat, z)
        if not _breaks_down(rho, rhat, z):
            p = z.copy()
            phat = zhat.copy()
            while it < maxit:
                q = op.apply(p)
                qhat = op.apply_transpose(phat)
                sigma = np.dot(phat, q)
                if _breaks_down(sigma, phat, q):
                    break
                alpha = rho / sigma
                x = x + alpha * p
                xhat = xhat + alpha * phat
                r = r - alpha * q
                rhat = rhat - alpha * qhat
                it += 1
                res_p = float(np.linalg.norm(r) / nb)
                res_d = float(np.linalg.norm(rhat) / nc)
                hist_p.append(res_p)
                hist_d.append(res_d)
                if len(hist_p) > 51:
                    prev = max(hist_p[-51], hist_d[-51])
                    cur = max(res_p, res_d)
                    stagnated = prev > 0 and (prev - cur) < 1e-3 * prev
                if res_p <= tol and res_d <= tol:
                    return _finalize_pair(op, b, c, x, xhat, it, hist_p, hist_d,
                                          tol, "bicg",
                                          precond.describe() if precond else "none",
                                          True, True, stagnated, restarts)
                z = prec(r)
                zhat = prec_t(rhat)
                rho_new = np.dot(rhat, z)
                if _breaks_down(rho_new, rhat, z):
                    break
                beta = rho_new / rho
                rho = rho_new
                p = z + beta * p
                phat = zhat + beta * phat
            else:   # the budget ran out without a breakdown
                break
        # bi-orthogonality breakdown: restart from the current iterates,
        # nudging the dual one so the new exact residual pair is no longer
        # bi-orthogonal
        if restarts >= 3:
            raise ConvergenceError(
                "BiCG bi-orthogonality breakdown persisted through 3 restarts")
        restarts += 1
        xhat = xhat + 1e-10 * max(np.linalg.norm(xhat), 1.0) * rng.standard_normal(xhat.shape)
        r = b - op.apply(x)
        rhat = c - op.apply_transpose(xhat)
    conv_p = hist_p[-1] <= tol
    conv_d = hist_d[-1] <= tol
    warnings.warn(f"BiCG hit maxit={maxit} (tol {tol:g})", RuntimeWarning,
                  stacklevel=2)
    return _finalize_pair(op, b, c, x, xhat, it, hist_p, hist_d, tol, "bicg",
                          precond.describe() if precond else "none",
                          conv_p, conv_d, stagnated, restarts)
