"""Backward-stability diagnostics for inexact reduction runs.

Given the sieve-solve residuals R_B, R_C and trial bases V~, W~ of one
outer iteration, the inexact step is equivalent to an exact step on a
perturbed model whose drift matrix is A + F with

    F = R_B (W~^T V~)^{-1} W~^T + V~ (W~^T V~)^{-1} R_C^T,

a rank <= 2r matrix.  This module constructs F in factored form, bounds
its Frobenius norm, verifies the algebraic identities the equivalence
rests on (Petrov-Galerkin orthogonality of the residuals and the
projection identity for the perturbed model), evaluates the norm of the
lifted error-system perturbation, and computes the condition number of
the model with respect to the H2 norm of the full-vs-perturbed error
system.

Every norm of F, and the lifted norm, comes from one small core: with U
an orthonormal basis of the span of the factors of F (one thin QR),
F = U F_c U^T exactly, and F_c has order at most min(n, 4r).  The norms
are therefore exact at every state dimension, with no iteration.

Only the drift perturbation F is realized.  Analogous perturbations of
N_k, B, and C can be derived the same way but require the reduced-side
factors themselves to be invertible, which cannot be guaranteed; they
are therefore analyzed no further and not implemented.
"""

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .linalg import kron, oblique_gram, two_norm
from .system import h2_norm_kron


class PerturbationF:
    """The backward drift perturbation, kept as low-rank factors.

    F = P Q^T with P = [R_B, V~ T] and Q = [W~ T^T, R_C], where
    T = (W~^T V~)^{-1}.  The range and the row space of F both lie in the
    span of [P Q].  With U the Q factor of its thin QR, F = U F_c U^T
    holds exactly for the core

        F_c = (U^T P) (U^T Q)^T,

    of order q <= min(n, 4r).  U has orthonormal columns, so F and F_c
    have the same nonzero singular values, and ``norm_2`` and ``norm_F``
    are read from the singular values of F_c.
    """

    def __init__(self, V_tilde, W_tilde, R_B, R_C):
        V_tilde = np.asarray(V_tilde)
        W_tilde = np.asarray(W_tilde)
        R_B = np.asarray(R_B)
        R_C = np.asarray(R_C)
        T = np.linalg.inv(oblique_gram(W_tilde, V_tilde))
        self.n, self.r = V_tilde.shape
        self.V_tilde, self.W_tilde = V_tilde, W_tilde
        self.R_B, self.R_C = R_B, R_C
        self.T = T
        self._P = np.hstack([R_B, V_tilde @ T])
        self._Q = np.hstack([W_tilde @ T.T, R_C])
        U, _ = np.linalg.qr(np.hstack([self._P, self._Q]))
        self.core = (U.T @ self._P) @ (U.T @ self._Q).T
        sv = np.linalg.svd(self.core, compute_uv=False)
        self.norm_2 = float(sv[0])
        self.norm_F = float(np.linalg.norm(sv))

    def apply_matrix(self, X):
        """F @ X through the factors."""
        return self._P @ (self._Q.T @ np.asarray(X))

    def apply_matrix_left(self, X):
        """X @ F through the factors."""
        return (np.asarray(X) @ self._P) @ self._Q.T

    def assemble(self):
        """Dense F (real part; the imaginary residue of conjugate-paired
        complex bases is roundoff and is discarded)."""
        F = self._P @ self._Q.T
        return F.real if np.iscomplexobj(F) else F


def construct_perturbation(V_tilde, W_tilde, R_B, R_C):
    """Backward drift perturbation realizing the inexact-equals-perturbed
    equivalence, in factored low-rank form."""
    return PerturbationF(V_tilde, W_tilde, R_B, R_C)


def perturbation_bound(R_B, R_C, V_tilde, W_tilde):
    """A-priori Frobenius bound on the constructed perturbation, with r
    the number of columns of V~:

    sqrt(r) * ( max_i ||R_B e_i|| * ||(W~^T V~)^{-1} W~^T||_F
              + max_i ||R_C e_i|| * ||V~ (W~^T V~)^{-1}||_F ).
    """
    V_tilde = np.asarray(V_tilde)
    W_tilde = np.asarray(W_tilde)
    R_B = np.asarray(R_B)
    R_C = np.asarray(R_C)
    r = V_tilde.shape[1]
    T = np.linalg.inv(oblique_gram(W_tilde, V_tilde))
    max_rb = float(np.max(np.linalg.norm(R_B, axis=0))) if R_B.size else 0.0
    max_rc = float(np.max(np.linalg.norm(R_C, axis=0))) if R_C.size else 0.0
    left = float(np.linalg.norm(T @ W_tilde.T))
    right = float(np.linalg.norm(V_tilde @ T))
    return float(np.sqrt(r) * (max_rb * left + max_rc * right))


def verify_backward_stability(sys, V_r, W_r, F):
    """Projection-identity defects of the backward equivalence.

    Projects the model obliquely with (V_r, W_r) and forms the projection
    of the perturbed model (A + F, N_k, B, C) with the same bases, whose
    drift is the reduced one plus (W_r^T V_r)^{-1} W_r^T F V_r.  Returns a
    dict with ``eq_defect`` (= ||W_r^T F V_r||, the sole source of
    disagreement) and the relative difference between the two projections
    per reduced matrix; F touches only the drift, so those of N_k, B and C
    are zero.
    """
    V_r, W_r = np.asarray(V_r), np.asarray(W_r)
    A_red = sys.project(V_r, W_r).A.toarray()
    FV = F.apply_matrix(V_r) if isinstance(F, PerturbationF) else np.asarray(F) @ V_r
    mid = W_r.T @ FV
    A_pert = A_red + np.linalg.solve(W_r.T @ V_r, mid).real
    a_diff = np.linalg.norm(A_pert - A_red) / max(np.linalg.norm(A_red), 1e-300)
    diffs = {"A": float(a_diff), "B": 0.0, "C": 0.0}
    diffs.update((f"N{k}", 0.0) for k in range(1, sys.m + 1))
    return {"eq_defect": float(np.linalg.norm(mid, 2)), "matrix_rel_diffs": diffs}


def fhh_norm(F):
    """2-norm of the lifted error-system perturbation.

    The error system of the model vs its drift-perturbed copy has, in
    Kronecker form, the perturbation FHH = I_{2n} (x) FH + FH (x) I_{2n}
    with FH = diag(0, F).  Its action X -> FH X + X FH^T is block
    diagonal,

        [[X11, X12], [X21, X22]] -> [[0, X12 F^T], [F X21, F X22 + X22 F^T]],

    and with F = U F_c U^T (``PerturbationF.core``) the last block acts as
    F_c (x) I + I (x) F_c on U^T X22 U and as F_c or F_c^T on the rest of
    X22.  Hence, exactly,

        ||FHH||_2 = max(||F_c||_2, ||F_c (x) I + I (x) F_c||_2) <= 2 ||F||_2.

    A dense array F is taken as its own core.  The Kronecker sum, of
    order q^2 <= 16 r^2, has its norm read from the largest eigenvalue
    of its Gram matrix, which is accurate to roundoff relative to it and
    costs less than half of a dense SVD.
    """
    C = F.core if isinstance(F, PerturbationF) else np.asarray(F, dtype=float)
    I = np.eye(C.shape[0])
    M = np.kron(C, I) + np.kron(I, C)
    return float(max(np.linalg.norm(C, 2),
                     np.sqrt(np.linalg.eigvalsh(M.T @ M)[-1])))


def condition_number(sys, diagnostics=None, return_factors=False):
    """Condition number of the model w.r.t. the H2 norm of the
    full-vs-perturbed error system:

        k = ||vec(I_2p)|| * ||CH QH^{-1}|| * ||QH^{-1}|| * ||BH||
            * ||vec(I_2m)|| * ||A||_2 / ( ||sys||_H2 * (1 - ||QH^{-1}||) )

    with CH = [C, -C] (x) [C, -C], BH = [B; B] (x) [B; B], and QH the
    error-system block operator.  ||CH QH^{-1}|| is exact: its p^2 rows
    are assembled sector-by-sector through adjoint solves against the
    decoupled base operator (the system's Gramian solver), followed by
    the norm of the small Gram matrix.  Requires ||QH^{-1}|| < 1.
    Without ``diagnostics`` only the largest singular value of the base
    operator is computed, for ||QH^{-1}||.
    """
    solver = sys.gramian_solver()
    qinv = (diagnostics.qinv_norm if diagnostics is not None
            else 1.0 / solver.sigma_max())
    if qinv >= 1.0:
        raise ValueError(
            f"||QH^-1|| = {qinv:.3e} >= 1: the accuracy bound's hypothesis "
            "fails and the condition number is undefined")
    m, p = sys.m, sys.p
    CC = kron(sys.C, sys.C)
    CC = CC.toarray() if sps.issparse(CC) else CC
    # base adjoint solves: K0[i] = row i of (C (x) C) G^{-1}
    K0 = np.vstack([solver.solve_transpose(CC[i]) for i in range(p * p)])
    # sector signs of [C,-C] (x) [C,-C] under the 4-fold decoupling
    signs = [1.0, -1.0, -1.0, 1.0]
    CQ = np.hstack([s * K0 for s in signs])
    gram = CQ @ CQ.T
    cq_norm = float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))
    b_stack = sps.vstack([sys.B, sys.B], format="csr")
    bhat_norm = float(two_norm(b_stack.toarray())) ** 2
    a_norm = two_norm(sys.A)
    h2 = h2_norm_kron(sys)
    k = (np.sqrt(2 * p) * cq_norm * qinv * bhat_norm * np.sqrt(2 * m)
         * a_norm / (h2 * (1.0 - qinv)))
    if return_factors:
        return float(k), {
            "vec_norm_p": float(np.sqrt(2 * p)),
            "vec_norm_m": float(np.sqrt(2 * m)),
            "chat_qinv_norm": cq_norm,
            "qinv_norm": qinv,
            "bhat_norm": bhat_norm,
            "a_norm": float(a_norm),
            "h2_norm": float(h2),
        }
    return float(k)


@dataclass
class StabilityReport:
    """All stability quantities of one outer iteration."""

    iteration: int
    rb_norm: float
    rc_norm: float
    wtv_inv_wt_frob: float
    f_norm2: float
    f_normF: float
    thm_bound: float
    pg_defect_B: float
    pg_defect_C: float
    eq_defect_B: float
    eq_defect_C: float
    projection_defect: float
    matrix_rel_diffs: dict
    fhh_norm: float


def analyze_iteration(sys, record, compute_fhh=True):
    """Full stability report from one reduction iteration record.

    The record must carry the captured oblique bases (run with
    ``capture_bases=True``).  All basis-dependent quantities are
    reported in the orthonormal-basis convention: the constructed F is
    invariant under the change of basis, but residual norms, the
    oblique-factor norm, and the a-priori bound are not, and the
    orthonormal convention is the one in which the solution bases
    actually enter the projection.
    """
    if record.V_r is None or record.W_r is None:
        raise ValueError("iteration record has no captured bases; rerun "
                         "with capture_bases=True")
    V_tilde = record.V_r
    W_tilde = record.W_r
    R_B = record.R_B_orth
    R_C = record.R_C_orth
    F = construct_perturbation(V_tilde, W_tilde, R_B, R_C)
    bound = perturbation_bound(R_B, R_C, V_tilde, W_tilde)
    T = F.T
    frag = verify_backward_stability(sys, record.V_r, record.W_r, F)
    eq_B = float(np.linalg.norm(F.apply_matrix(V_tilde) - R_B, 2))
    eq_C = float(np.linalg.norm(F.apply_matrix_left(W_tilde.T) - R_C.T, 2))
    return StabilityReport(
        iteration=record.iteration,
        rb_norm=float(np.linalg.norm(R_B, 2)),
        rc_norm=float(np.linalg.norm(R_C, 2)),
        wtv_inv_wt_frob=float(np.linalg.norm(T @ W_tilde.T)),
        f_norm2=F.norm_2,
        f_normF=F.norm_F,
        thm_bound=bound,
        pg_defect_B=float(np.linalg.norm(W_tilde.T @ R_B, 2)),
        pg_defect_C=float(np.linalg.norm(R_C.T @ V_tilde, 2)),
        eq_defect_B=eq_B,
        eq_defect_C=eq_C,
        projection_defect=frag["eq_defect"],
        matrix_rel_diffs=frag["matrix_rel_diffs"],
        fhh_norm=fhh_norm(F) if compute_fhh else float("nan"),
    )


def stability_csv(reports, path):
    """Write per-iteration stability rows (residual norms, oblique-factor
    norm, perturbation norms, bound) as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "rb_norm", "rc_norm",
                         "wtv_inv_wt_frob", "f_norm2", "f_normF",
                         "thm_bound", "fhh_norm"])
        for rep in reports:
            writer.writerow([rep.iteration] + [
                f"{v:.17g}" for v in (rep.rb_norm, rep.rc_norm,
                                      rep.wtv_inv_wt_frob, rep.f_norm2,
                                      rep.f_normF, rep.thm_bound,
                                      rep.fhh_norm)])
