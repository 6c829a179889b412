"""H2-optimal reduction of bilinear systems by fixed-point iteration.

Each sweep eigendecomposes the current reduced drift matrix, rotates
its eigenbasis into a real paired basis, solves the (real) primal/dual
pair of Kronecker-structured sieve systems for the trial bases,
orthonormalizes them, and obliquely projects the full model.  At the
fixed point the reduced model satisfies the interpolation-based
first-order H2 optimality conditions.
"""

import csv
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import SingularMatrixError, eig_dense, orth, vec
from .solvers import KroneckerOperator, bicg_dual_solve, build_ilut, direct_solve
from .system import BilinearSystem, h2_error

# Relative imaginary part at or below which an eigenvalue counts as real,
# and the relative distance within which two eigenvalues are conjugates.
REAL_TOL = 1e-8


@dataclass
class BirkaConfig:
    """Knobs for one reduction run.

    ``solver_mode`` selects exact sparse-LU sieve solves ("direct") or
    the coupled two-sided BiCG ("bicg") at relative tolerance
    ``bicg_tol``; ``precond_drop_tol`` (if set) turns on threshold-ILU
    preconditioning of the BiCG runs.  ``capture_bases`` retains the
    oblique projection bases of every iteration for post-hoc stability
    analysis, and ``reference_error`` additionally computes, per
    iteration, the H2 distance between the inexact reduced model and
    the one an exact solve would have produced from the same incoming
    guess.
    """

    r: int
    btol: float = 1e-6
    max_outer: int = 100
    solver_mode: str = "direct"
    bicg_tol: float = 1e-8
    bicg_maxit: int = None
    precond_drop_tol: float = None
    seed: int = 0
    capture_bases: bool = False
    reference_error: bool = False

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("reduced order r must be >= 1")
        if self.btol <= 0:
            raise ValueError("btol must be positive")
        if self.solver_mode not in ("direct", "bicg"):
            raise ValueError("solver_mode must be 'direct' or 'bicg'")


@dataclass
class IterationRecord:
    """Diagnostics of one outer iteration."""

    iteration: int
    eigenvalues: np.ndarray
    relative_change: float
    report_primal: object
    report_dual: object
    V_r: np.ndarray = None
    W_r: np.ndarray = None
    R_B_orth: np.ndarray = None
    R_C_orth: np.ndarray = None
    reference_error: float = None
    unstable_intermediate: bool = False


@dataclass
class BirkaResult:
    """Converged (or best-effort) reduced system plus full iteration history."""

    reduced: BilinearSystem
    converged: bool
    iterations: int
    history: list = field(default_factory=list)

    def save(self, directory):
        """Reduced system + history.csv + eigenvalues.csv under ``directory``."""
        os.makedirs(directory, exist_ok=True)
        self.reduced.save(os.path.join(directory, "reduced"))
        with open(os.path.join(directory, "history.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "eigenvalue_change", "solver_iterations",
                             "residual_primal", "residual_dual", "h2_error"])
            for rec in self.history:
                writer.writerow([
                    rec.iteration, f"{rec.relative_change:.17g}",
                    rec.report_primal.iterations,
                    f"{rec.report_primal.relative_residual:.17g}",
                    f"{rec.report_dual.relative_residual:.17g}",
                    "" if rec.reference_error is None else f"{rec.reference_error:.17g}",
                ])
        with open(os.path.join(directory, "eigenvalues.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "index", "real", "imag"])
            for rec in self.history:
                for idx, lam in enumerate(rec.eigenvalues):
                    writer.writerow([rec.iteration, idx,
                                     f"{lam.real:.17g}", f"{lam.imag:.17g}"])


def initialize_guess(seed, r, m, p):
    """Random reduced-order starting system with a Hurwitz, diagonalizable drift."""
    rng = np.random.default_rng(seed)
    for attempt in range(5):
        A = rng.standard_normal((r, r))
        shift = np.max(np.linalg.eigvals(A).real) + 1.0
        A = A - shift * np.eye(r)
        if not eig_dense(A).ill_conditioned:
            break
    else:
        raise SingularMatrixError(
            f"could not draw a diagonalizable drift matrix from seed {seed} "
            "after 5 attempts")
    N = [rng.standard_normal((r, r)) for _ in range(m)]
    B = rng.standard_normal((r, m))
    C = rng.standard_normal((p, r))
    return BilinearSystem(A, N, B, C, label=f"guess(seed={seed},r={r})")


def realify_rotation(eigenvalues):
    """Unitary U that turns a conjugation-closed eigenbasis into a real one.

    A real eigenvalue keeps its column (U is the identity there).  Each
    conjugate pair (lambda_i, lambda_j = conj(lambda_i)) is rotated on
    rows and columns (i, j) by the fixed unitary [[1, -i], [1, i]] / sqrt(2),
    so that U^H diag(eigenvalues) U is real with the 2-by-2 block
    [[Re lambda_i, Im lambda_i], [-Im lambda_i, Re lambda_i]], and R U is
    real for eigenvectors with r_j = conj(r_i).  An eigenvalue is real
    when its imaginary part is at most ``REAL_TOL`` relative, and a partner
    must match the conjugate to the same tolerance.  A complex eigenvalue
    without a partner keeps its column with a warning; its imaginary part
    is lost when the rotated quantities are taken real.
    """
    lam = np.asarray(eigenvalues).reshape(-1)
    q = lam.size
    U = np.eye(q, dtype=complex)
    used = np.zeros(q, dtype=bool)
    s = np.sqrt(0.5)
    for i in range(q):
        if used[i]:
            continue
        used[i] = True
        scale = REAL_TOL * max(abs(lam[i]), 1.0)
        if abs(lam[i].imag) <= scale:
            continue
        candidates = [j for j in range(i + 1, q) if not used[j]]
        dists = [abs(lam[j] - np.conj(lam[i])) for j in candidates]
        if not candidates or min(dists) > scale:
            warnings.warn("unpaired complex column during realification",
                          RuntimeWarning, stacklevel=2)
            continue
        j = candidates[int(np.argmin(dists))]
        used[j] = True
        U[[i, j], i] = s
        U[[i, j], j] = [-1j * s, 1j * s]
    return U


def sieve_operator(sys, guess):
    """Real sieve operator and right-hand sides of one sweep from ``guess``.

    Eigendecomposes the reduced drift A_r = R diag(lambda) R^{-1} and
    rotates the eigenbasis by U = realify_rotation(lambda):
    S = U^H diag(lambda) U, NCheck_k = U^H (R^{-1} N_k R)^T U, primal
    right-hand side B (R^{-1} B_r)^T U and dual right-hand side
    C^T C_r R conj(U), all real.  The rotated pair is unitarily similar
    to the complex eigenbasis pair, with the dual transformed by the
    plain transpose of the primal's change of basis, so bilinear
    pairings, residual norms and the spans of the realified solutions
    are those of the complex pair.

    Returns ``(op, rhs_primal, rhs_dual, eigenvalues)``.
    """
    A_c, N_c, B_c, C_c = guess.dense()
    ed = eig_dense(A_c)
    if ed.ill_conditioned:
        warnings.warn("reduced drift matrix is nearly defective",
                      RuntimeWarning, stacklevel=2)
    if np.any(ed.eigenvalues.real >= 0):
        warnings.warn("reduced drift matrix has unstable eigenvalues; "
                      "continuing", RuntimeWarning, stacklevel=2)
    lam, R = ed.eigenvalues, ed.right_vectors
    U = realify_rotation(lam)
    Uh = U.conj().T
    S = (Uh @ (lam[:, np.newaxis] * U)).real
    NCheck = [(Uh @ np.linalg.solve(R, Nk @ R).T @ U).real for Nk in N_c]
    BCheck = (np.linalg.solve(R, B_c).T @ U).real             # m x r
    CCheck = (C_c @ R @ U.conj()).real                        # p x r
    op = KroneckerOperator(S, NCheck, sys,
                           rotation=U if np.any(U.imag) else None)
    return op, vec(sys.B @ BCheck), vec(sys.C.T @ CCheck), lam


def _orth_with_residual(solution, residual):
    """Orthonormalize a trial basis, co-transforming its residual.

    The raw solution X (with residual R = rhs - M vec(X)) is QR-factored,
    X = Q Z.  The same column transformation applied to the residual,
    R_orth = R Z^{-1}, makes (Q, R_orth) a consistent solution/residual
    pair for the re-based systems, so that all basis-dependent stability
    quantities can be reported in the orthonormal-basis convention.
    Falls back to a plain SVD basis with an untransformed residual when
    the basis is rank-deficient.
    """
    q = solution.shape[1]
    sv = np.linalg.svd(solution, compute_uv=False) if q else np.array([])
    full_rank = q > 0 and sv[-1] > max(solution.shape) * np.finfo(float).eps * sv[0]
    if not full_rank:
        warnings.warn("rank-deficient trial basis; residual left in the "
                      "raw-basis convention", RuntimeWarning, stacklevel=2)
        return orth(solution), residual
    Q, Z = np.linalg.qr(solution)
    return Q, np.linalg.solve(Z.T, residual.T).T


def birka_step(sys, guess, config):
    """One sweep: set up the real sieve pair, solve it, project.

    Returns ``(new_guess, record)`` where record is an
    :class:`IterationRecord` with its convergence fields left unset.
    """
    op, rhs_primal, rhs_dual, eigenvalues = sieve_operator(sys, guess)
    unstable = bool(np.any(eigenvalues.real >= 0))

    if config.solver_mode == "direct":
        rep_p, rep_d = direct_solve(op, rhs_primal, rhs_dual)
    else:
        precond = (build_ilut(op, config.precond_drop_tol)
                   if config.precond_drop_tol is not None else None)
        rep_p, rep_d = bicg_dual_solve(op, rhs_primal, rhs_dual,
                                       config.bicg_tol, config.bicg_maxit,
                                       precond)

    V_r, RB_orth = _orth_with_residual(rep_p.solution, rep_p.residual)
    W_r, RC_orth = _orth_with_residual(rep_d.solution, rep_d.residual)
    new_guess = sys.project(V_r, W_r)
    record = IterationRecord(
        iteration=0, eigenvalues=eigenvalues, relative_change=np.nan,
        report_primal=rep_p, report_dual=rep_d,
        V_r=V_r if config.capture_bases else None,
        W_r=W_r if config.capture_bases else None,
        R_B_orth=RB_orth if config.capture_bases else None,
        R_C_orth=RC_orth if config.capture_bases else None,
        unstable_intermediate=unstable,
    )
    return new_guess, record


def _sorted_eigs(A):
    w = np.linalg.eigvals(np.asarray(A))
    order = np.lexsort((w.imag, w.real))
    return w[order]


def run_birka(sys, config, guess=None):
    """Iterate :func:`birka_step` until the reduced spectrum settles.

    Convergence is declared when the relative 2-norm change of the
    lexicographically sorted reduced eigenvalues drops below
    ``config.btol``.  Non-convergence is reported through the
    ``converged`` flag with the full history retained, not raised.
    """
    if config.r >= sys.n:
        raise ValueError(f"reduced order r={config.r} must be < n={sys.n}")
    if not sys.is_stable():
        warnings.warn("full model is not stable; H2 quantities may be "
                      "meaningless", RuntimeWarning, stacklevel=2)
    if guess is None:
        guess = initialize_guess(config.seed, config.r, sys.m, sys.p)
    lam_old = _sorted_eigs(guess.A.toarray())
    history = []
    converged = False
    for it in range(1, config.max_outer + 1):
        new_guess, record = birka_step(sys, guess, config)
        if config.reference_error and config.solver_mode != "direct":
            ref_cfg = BirkaConfig(r=config.r, btol=config.btol,
                                  solver_mode="direct")
            try:
                ref_guess, _ = birka_step(sys, guess, ref_cfg)
                record.reference_error = h2_error(ref_guess, new_guess)
            except (ValueError, np.linalg.LinAlgError) as exc:
                # an unstable intermediate reduced model has no H2 error;
                # the diagnostic is skipped, not fatal
                warnings.warn(f"reference error undefined at iteration {it}: "
                              f"{exc}", RuntimeWarning, stacklevel=2)
                record.reference_error = float("nan")
        lam_new = _sorted_eigs(new_guess.A.toarray())
        denom = np.linalg.norm(lam_old)
        rel_change = float(np.linalg.norm(lam_new - lam_old) / denom) if denom > 0 else np.inf
        record.iteration = it
        record.relative_change = rel_change
        history.append(record)
        guess = new_guess
        lam_old = lam_new
        if rel_change < config.btol:
            converged = True
            break
    return BirkaResult(reduced=guess, converged=converged,
                       iterations=len(history), history=history)
