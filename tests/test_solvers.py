import numpy as np
import pytest

from birka.linalg import SparseLU, unvec, vec
from birka.solvers import (KroneckerOperator, bicg_dual_solve, build_ilut,
                           direct_solve)
from birka.models import HeatModelParams, build_heat_model
from birka.reduction import initialize_guess, sieve_operator
from birka.system import BilinearSystem
from conftest import random_stable_system


def scalar_op(a=-1.0, n1=0.0, lam=-1.0):
    sys = BilinearSystem([[a]], [[[n1]]], [[1.0]], [[1.0]])
    return KroneckerOperator(np.array([lam]), [np.array([[n1]])], sys), sys


def paired_op(rng, n, r=4):
    """Real paired-basis sieve operator of a guess whose drift has a
    conjugate pair."""
    sys = random_stable_system(rng, n)
    op = sieve_operator(sys, initialize_guess(0, r, sys.m, sys.p))[0]
    assert op.rotation is not None
    return op, sys


def random_op(rng, n, r, m=1):
    sys = random_stable_system(rng, n, m=m)
    lam = -rng.uniform(0.5, 3.0, r) + 1j * rng.standard_normal(r)
    lam = np.concatenate([lam[: r // 2], lam[: r // 2].conj(),
                          lam[r - 2 * (r // 2):].real.astype(complex)])[:r]
    if r % 2 == 1:
        lam[-1] = complex(-rng.uniform(0.5, 3.0))
    NC = [rng.standard_normal((r, r)) * 0.2 for _ in range(m)]
    return KroneckerOperator(lam, NC, sys), sys


class TestKroneckerOperator:
    def test_scalar_apply(self):
        op, _ = scalar_op(a=-1.0, lam=-1.0)
        # M = -lam - a = 2
        assert op.apply(np.array([1.0])) == pytest.approx([2.0])
        assert op.apply_transpose(np.array([3.0])) == pytest.approx([6.0])

    def test_apply_matches_assembled(self, rng):
        op, sys = random_op(rng, 7, 4)
        # a non-diagonal real S, as in the real paired basis of a sweep
        S = rng.standard_normal((4, 4)) - 4.0 * np.eye(4)
        op_S = KroneckerOperator(S, op.NCheckCheck, sys)
        for op in (op, op_S):
            M = op.assemble().toarray()
            x = rng.standard_normal(28) + 1j * rng.standard_normal(28)
            assert np.allclose(op.apply(x), M @ x, atol=1e-13 * np.linalg.norm(M))
            assert np.allclose(op.apply_transpose(x), M.T @ x,
                               atol=1e-13 * np.linalg.norm(M))

    def test_transpose_without_conjugation(self, rng):
        op, _ = random_op(rng, 5, 3)
        M = op.assemble().toarray()
        x = rng.standard_normal(15)
        # adjoint identity for the bilinear (unconjugated) pairing
        y = rng.standard_normal(15)
        assert np.dot(y, op.apply(x)) == pytest.approx(
            np.dot(op.apply_transpose(y), x), rel=1e-12)
        assert np.allclose(M.T, M.T)  # assemble once, no mutation

    def test_shape_validation(self):
        sys = BilinearSystem(np.diag([-1.0, -2.0]), [np.zeros((2, 2))],
                             np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            KroneckerOperator(np.array([-1.0]), [np.zeros((2, 2))], sys)

    def test_unstable_lambda_warns(self):
        # the sweep's sieve setup warns once about an unstable reduced
        # spectrum; the operator itself does not warn again
        sys = BilinearSystem([[-1.0]], [[[0.0]]], [[1.0]], [[1.0]])
        guess = BilinearSystem([[0.5]], [[[0.0]]], [[1.0]], [[1.0]])
        with pytest.warns(RuntimeWarning, match="unstable eigenvalues") as caught:
            sieve_operator(sys, guess)
        assert len(caught) == 1


class TestDirectSolve:
    def test_scalar(self):
        op, _ = scalar_op()
        rep_p, rep_d = direct_solve(op, np.array([1.0]), np.array([1.0]))
        assert np.allclose(rep_p.solution, [[0.5]])
        assert np.allclose(rep_d.solution, [[0.5]])
        assert np.linalg.norm(rep_p.residual) <= 1e-12

    def test_matches_dense_solve(self, rng):
        op, _ = random_op(rng, 8, 3)
        M = op.assemble().toarray()
        b = rng.standard_normal(24)
        c = rng.standard_normal(24)
        rep_p, rep_d = direct_solve(op, b, c)
        assert np.allclose(vec(rep_p.solution), np.linalg.solve(M, b), rtol=1e-11)
        assert np.allclose(vec(rep_d.solution), np.linalg.solve(M.T, c), rtol=1e-11)

    def test_residuals_recomputed(self, rng):
        op, _ = random_op(rng, 6, 4)
        b = rng.standard_normal(24)
        c = rng.standard_normal(24)
        rep_p, rep_d = direct_solve(op, b, c)
        assert np.allclose(vec(rep_p.residual), b - op.apply(vec(rep_p.solution)))
        assert np.allclose(vec(rep_d.residual),
                           c - op.apply_transpose(vec(rep_d.solution)))
        assert rep_p.relative_residual <= 1e-11
        assert rep_d.relative_residual <= 1e-11


class TestBicgDualSolve:
    def test_identity_like_converges_in_one_iteration(self):
        # M = 2*I for the scalar decoupled problem
        sys = BilinearSystem(np.diag([-1.0, -1.0]), [np.zeros((2, 2))],
                             np.ones((2, 1)), np.ones((1, 2)))
        op = KroneckerOperator(np.array([-1.0]), [np.zeros((1, 1))], sys)
        rep_p, rep_d = bicg_dual_solve(op, np.array([2.0, 4.0]),
                                       np.array([6.0, 8.0]), tol=1e-12)
        assert rep_p.iterations == 1
        assert np.allclose(vec(rep_p.solution), [1.0, 2.0])
        assert np.allclose(vec(rep_d.solution), [3.0, 4.0])

    def test_matches_direct(self, rng):
        op, _ = random_op(rng, 9, 3)
        b = rng.standard_normal(27)
        c = rng.standard_normal(27)
        rep_p, rep_d = bicg_dual_solve(op, b, c, tol=1e-12)
        exact_p, exact_d = direct_solve(op, b, c)
        scale = np.linalg.norm(exact_p.solution)
        assert np.linalg.norm(rep_p.solution - exact_p.solution) <= 1e-8 * scale
        assert np.linalg.norm(rep_d.solution - exact_d.solution) <= 1e-8 * np.linalg.norm(exact_d.solution)

    def test_finite_termination(self, rng):
        op, _ = random_op(rng, 10, 5)
        d = 50
        b = rng.standard_normal(d)
        c = rng.standard_normal(d)
        rep_p, rep_d = bicg_dual_solve(op, b, c, tol=1e-10, maxit=4 * d)
        assert rep_p.converged and rep_d.converged
        assert rep_p.iterations <= 4 * d

    def test_pg_defect_small_at_convergence(self, rng):
        op, _ = random_op(rng, 8, 4)
        b = rng.standard_normal(32)
        c = rng.standard_normal(32)
        tol = 1e-6
        rep_p, rep_d = bicg_dual_solve(op, b, c, tol=tol)
        nb, nc = np.linalg.norm(b), np.linalg.norm(c)
        bound_p = 10 * tol * nb * np.linalg.norm(rep_d.solution)
        bound_d = 10 * tol * nc * np.linalg.norm(rep_p.solution)
        assert rep_p.pg_defect <= bound_p
        assert rep_d.pg_defect <= bound_d

    def test_dual_solve_is_transpose_solve(self, rng):
        # the dual solution of M must solve the primal problem of M^T
        op, sys = random_op(rng, 6, 3)
        sysT = BilinearSystem(sys.A.T, [Nk.T for Nk in sys.N], sys.B, sys.C)
        opT = KroneckerOperator(op.Lambda, [Nc.T for Nc in op.NCheckCheck], sysT)
        b = rng.standard_normal(18)
        c = rng.standard_normal(18)
        _, rep_d = bicg_dual_solve(op, b, c, tol=1e-12)
        rep_pT, _ = bicg_dual_solve(opT, c, b, tol=1e-12)
        assert np.allclose(rep_d.solution, rep_pT.solution, atol=1e-7)

    def test_residual_history_monotone_enough(self, rng):
        op, _ = random_op(rng, 8, 3)
        b = rng.standard_normal(24)
        c = rng.standard_normal(24)
        rep_p, _ = bicg_dual_solve(op, b, c, tol=1e-10)
        assert rep_p.relative_residual_history[-1] <= 1e-10

    @staticmethod
    def _assert_restarted_once(op, b, c, tol):
        with pytest.warns(RuntimeWarning, match="BiCG hit maxit"):
            rep_p, rep_d = bicg_dual_solve(op, b, c, tol=tol)
        for rep, rhs, apply in ((rep_p, b, op.apply),
                                (rep_d, c, op.apply_transpose)):
            assert rep.restarts == 1
            assert rep.iterations == 4 * op.n * op.r
            # the stored residual is recomputed from the final iterate
            assert np.array_equal(vec(rep.residual),
                                  rhs - apply(vec(rep.solution)))
            assert rep.converged == (rep.relative_residual <= tol)

    def test_restart_after_degenerate_initial_pairing(self, rng):
        # c orthogonal to b: the initial pairing c.b is zero.  The restart
        # nudges the dual iterate by 1e-10 only, so the new pairing is
        # barely nondegenerate, and the run spends its whole budget
        n = 8
        sys = BilinearSystem(-np.diag(np.linspace(1.0, 3.0, n)), [np.zeros((n, n))],
                             np.ones((n, 1)), np.ones((1, n)))
        op = KroneckerOperator(np.array([-1.0]), [np.zeros((1, 1))], sys)
        b = rng.standard_normal(n)
        c = rng.standard_normal(n)
        c -= (c @ b) / (b @ b) * b
        self._assert_restarted_once(op, b, c, 1e-10)

    def test_restart_after_inner_breakdown(self, rng):
        # M = -A skew-symmetric (S = 0, N = 0) and b = c: the first inner
        # pairing phat.Mp = b.(-A b) is zero
        n = 6
        K = rng.standard_normal((n, n))
        sys = BilinearSystem(K - K.T, [np.zeros((n, n))],
                             np.ones((n, 1)), np.ones((1, n)))
        op = KroneckerOperator(np.array([0.0]), [np.zeros((1, 1))], sys)
        b = rng.standard_normal(n)
        self._assert_restarted_once(op, b, b.copy(), 1e-8)

    def test_rejects_bad_tol(self):
        op, _ = scalar_op()
        with pytest.raises(ValueError):
            bicg_dual_solve(op, np.array([1.0]), np.array([1.0]), tol=0.0)


class TestIlutPreconditioner:
    def test_zero_drop_gives_fast_convergence(self, rng):
        # the second operator is factored in its complex eigenbasis
        for op, _ in (random_op(rng, 10, 4), paired_op(rng, 10)):
            pre = build_ilut(op, drop_tol=0.0)
            b = rng.standard_normal(40)
            c = rng.standard_normal(40)
            rep_p, rep_d = bicg_dual_solve(op, b, c, tol=1e-10, precond=pre)
            assert rep_p.iterations <= 3
            assert rep_p.converged and rep_d.converged

    def test_transpose_solve_consistent(self, rng):
        for op, _ in (random_op(rng, 6, 3), paired_op(rng, 6)):
            pre = build_ilut(op, drop_tol=0.0)
            M = op.assemble().toarray()
            y = rng.standard_normal(op.shape[0])
            assert np.allclose(M.T @ pre.solve_transpose(y), y, atol=1e-8)
            assert np.allclose(M @ pre.solve(y), y, atol=1e-8)

    def test_paired_operator_uses_eigenbasis_factors(self, rng):
        # K^{-1} = Re(P K_c^{-1} P^{-1}), P = U^T (x) I, with K_c the
        # threshold ILU of the complex eigenbasis operator; K^{-T} is its
        # transpose, as the coupled BiCG requires
        op, sys = paired_op(rng, 10)
        U, Uh = op.rotation, op.rotation.conj().T
        op_c = KroneckerOperator(np.diag(U @ op.S @ Uh),
                                 [U @ Nc @ Uh for Nc in op.NCheckCheck], sys)
        pre, pre_c = build_ilut(op, 1e-2), build_ilut(op_c, 1e-2)
        y, z = rng.standard_normal((2, op.shape[0]))
        want = (unvec(pre_c.solve(vec(unvec(y, op.n, op.r) @ Uh)), op.n, op.r) @ U).real
        assert np.allclose(pre.solve(y), vec(want), atol=1e-12 * np.linalg.norm(want))
        assert np.dot(z, pre.solve(y)) == pytest.approx(
            np.dot(y, pre.solve_transpose(z)), rel=1e-10)

    def test_preconditioning_reduces_iterations_on_heat(self):
        sys = build_heat_model(HeatModelParams(K=10))
        rng = np.random.default_rng(5)
        r = 4
        lam = -np.sort(rng.uniform(1.0, 30.0, r))
        NC = [0.05 * rng.standard_normal((r, r)) for _ in range(2)]
        op = KroneckerOperator(lam, NC, sys)
        b = rng.standard_normal(op.shape[0])
        c = rng.standard_normal(op.shape[0])
        plain_p, _ = bicg_dual_solve(op, b, c, tol=1e-8)
        pre = build_ilut(op, drop_tol=1e-4)
        prec_p, _ = bicg_dual_solve(op, b, c, tol=1e-8, precond=pre)
        assert prec_p.iterations < plain_p.iterations
