import numpy as np
import pytest

from birka import cli
from birka.linalg import unvec, vec
from birka.models import FlowModelParams, HeatModelParams, build_flow_model, build_heat_model
from birka.reduction import (BirkaConfig, birka_step, initialize_guess,
                             realify_rotation, run_birka)
from birka.solvers import KroneckerOperator, bicg_dual_solve, build_ilut
from birka.system import BilinearSystem, h2_error, h2_norm_kron
from conftest import random_stable_system


class TestInitializeGuess:
    def test_deterministic(self):
        a = initialize_guess(3, 4, 2, 1)
        b = initialize_guess(3, 4, 2, 1)
        assert np.array_equal(a.A.toarray(), b.A.toarray())
        assert np.array_equal(a.B.toarray(), b.B.toarray())

    def test_shapes(self):
        g = initialize_guess(0, 5, 2, 3)
        assert g.n == 5 and g.m == 2 and g.p == 3

    def test_stable_over_seed_sweep(self):
        for seed in range(20):
            g = initialize_guess(seed, 4, 1, 1)
            assert np.max(np.linalg.eigvals(g.A.toarray()).real) <= -1.0 + 1e-10


class TestRealify:
    """The unitary rotation that makes the eigenbasis of a sweep real."""

    def test_real_input_passthrough(self, rng):
        M = rng.standard_normal((5, 3))
        U = realify_rotation(-rng.uniform(0.5, 3.0, 3))
        assert np.array_equal(U, np.eye(3))
        assert np.array_equal((M @ U).real, M)

    def test_conjugate_pair(self):
        v = np.array([1.0 + 2.0j, 3.0 - 1.0j])
        M = np.column_stack([v, v.conj()])
        lam = np.array([-1.0 + 1.0j, -1.0 - 1.0j])
        U = realify_rotation(lam)
        out = M @ U / np.sqrt(2)
        assert np.allclose(out.imag, 0.0)
        assert np.allclose(out[:, 0].real, v.real)
        assert np.allclose(out[:, 1].real, v.imag)
        S = U.conj().T @ np.diag(lam) @ U
        assert np.allclose(S, [[-1.0, 1.0], [-1.0, -1.0]])

    def test_span_preserved(self, rng):
        lam = np.array([-1 + 2j, -1 - 2j, -3.0 + 0j])
        V = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        V[:, 1] = V[:, 0].conj()
        V[:, 2] = V[:, 2].real
        U = realify_rotation(lam)
        assert np.allclose(U.conj().T @ U, np.eye(3))
        out = V @ U
        assert np.allclose(out.imag, 0.0)
        stacked = np.column_stack([V.real, V.imag])
        rank_joint = np.linalg.matrix_rank(np.column_stack([out.real, stacked]))
        assert out.shape == (6, 3)
        assert rank_joint == np.linalg.matrix_rank(stacked)

    def test_unpaired_warns(self):
        lam = np.array([-1 + 1j, -2.0 + 0j])
        with pytest.warns(RuntimeWarning, match="unpaired complex column"):
            U = realify_rotation(lam)
        assert np.array_equal(U, np.eye(2))


class TestBirkaStep:
    def test_scalar_fixed_point(self):
        sys = BilinearSystem([[-1.0]], [[[0.0]]], [[1.0]], [[1.0]])
        guess = BilinearSystem([[-2.0]], [[[0.0]]], [[1.0]], [[1.0]])
        cfg = BirkaConfig(r=1)
        new_guess, _ = birka_step(BilinearSystem([[-1.0]], [[[0.0]]],
                                                 [[1.0]], [[1.0]]), guess, cfg)
        # order-1 reduction of an order-1 model reproduces the model
        assert new_guess.A.toarray() == pytest.approx(sys.A.toarray())

    def test_projection_consistency(self, rng):
        sys = random_stable_system(rng, 12)
        cfg = BirkaConfig(r=3, capture_bases=True)
        guess = initialize_guess(1, 3, sys.m, sys.p)
        new_guess, rec = birka_step(sys, guess, cfg)
        V, W = rec.V_r, rec.W_r
        WtV = W.T @ V
        A_r = np.linalg.solve(WtV, W.T @ (sys.A @ V))
        assert np.allclose(new_guess.A.toarray(), A_r, atol=1e-12 * np.linalg.norm(A_r))
        C_r = (sys.C @ V)
        assert np.allclose(new_guess.C.toarray(), C_r, atol=1e-12)

    def test_bases_orthonormal(self, rng):
        sys = random_stable_system(rng, 10)
        cfg = BirkaConfig(r=4, capture_bases=True)
        _, rec = birka_step(sys, initialize_guess(0, 4, 1, 1), cfg)
        assert np.linalg.norm(rec.V_r.T @ rec.V_r - np.eye(4)) <= 1e-12
        assert np.linalg.norm(rec.W_r.T @ rec.W_r - np.eye(4)) <= 1e-12


class TestRunBirka:
    def test_full_order_reproduction(self, rng):
        sys = random_stable_system(rng, 6)
        # r = n - 1 is the largest admissible order; use an embedded system
        big = random_stable_system(rng, 7)
        cfg = BirkaConfig(r=6, btol=1e-9, max_outer=200)
        res = run_birka(big, cfg)
        assert res.iterations >= 1
        del sys

    def test_r_equal_n_rejected(self, rng):
        sys = random_stable_system(rng, 4)
        with pytest.raises(ValueError):
            run_birka(sys, BirkaConfig(r=4))

    def test_deterministic_history(self, rng):
        sys = random_stable_system(rng, 8)
        cfg = BirkaConfig(r=2, btol=1e-8, max_outer=60, seed=2)
        res1 = run_birka(sys, cfg)
        res2 = run_birka(sys, cfg)
        assert res1.iterations == res2.iterations
        for a, b in zip(res1.history, res2.history):
            assert np.allclose(a.eigenvalues, b.eigenvalues)

    def test_convergence_reduces_h2_error(self, rng):
        sys = random_stable_system(rng, 10)
        cfg = BirkaConfig(r=4, btol=1e-8, max_outer=150, seed=0)
        res = run_birka(sys, cfg)
        assert res.converged
        err = h2_error(sys, res.reduced)
        assert err < h2_norm_kron(sys)

    def test_heat_direct_converges(self):
        sys = build_heat_model(HeatModelParams(K=10))
        cfg = BirkaConfig(r=6, btol=1e-6, max_outer=100, seed=0)
        res = run_birka(sys, cfg)
        assert res.converged
        assert res.history[-1].relative_change < 1e-6

    def test_flow_bicg_smoke(self):
        sys = build_flow_model(FlowModelParams(N=4))
        cfg = BirkaConfig(r=3, btol=1e-4, max_outer=60, seed=0,
                          solver_mode="bicg", bicg_tol=1e-8,
                          reference_error=True)
        res = run_birka(sys, cfg)
        assert res.converged
        ref_errs = [rec.reference_error for rec in res.history]
        assert all(e is not None for e in ref_errs)

    def test_save_artifacts(self, rng, tmp_path):
        sys = random_stable_system(rng, 8)
        res = run_birka(sys, BirkaConfig(r=2, btol=1e-6, max_outer=80))
        res.save(tmp_path / "out")
        assert (tmp_path / "out" / "history.csv").exists()
        assert (tmp_path / "out" / "eigenvalues.csv").exists()
        assert (tmp_path / "out" / "reduced").is_dir()
        lines = (tmp_path / "out" / "history.csv").read_text().strip().splitlines()
        assert len(lines) == res.iterations + 1


def _complex_oracle(sys, guess, mode, tol, drop_tol=None):
    """One sweep in the complex eigenbasis of the guess.

    Assembles the complex sieve operator densely and solves the pair by
    a dense solve ("direct") or by the coupled BiCG on the complex
    diagonal-Lambda operator ("bicg"), ILUT-preconditioned when
    ``drop_tol`` is set.  Returns the operator, its right-hand sides,
    the solutions, the orthonormal bases of the Re/Im splits of the
    solutions and the sorted spectrum of the projected drift.
    """
    A_c, N_c, B_c, C_c = guess.dense()
    lam, R = np.linalg.eig(A_c)
    n, r = sys.n, lam.size
    NCheck = [np.linalg.solve(R, Nk_r @ R).T for Nk_r in N_c]
    M = -np.kron(np.diag(lam), np.eye(n)) - np.kron(np.eye(r), sys.A.toarray())
    for Nc, Nk in zip(NCheck, sys.N):
        M = M - np.kron(Nc.T, Nk.toarray())
    b = vec(sys.B @ np.linalg.solve(R, B_c).T)
    c = vec(sys.C.T @ (C_c @ R))
    if mode == "direct":
        x, xhat = np.linalg.solve(M, b), np.linalg.solve(M.T, c)
    else:
        op = KroneckerOperator(lam, NCheck, sys)
        precond = build_ilut(op, drop_tol) if drop_tol is not None else None
        rep_p, rep_d = bicg_dual_solve(op, b, c, tol, precond=precond)
        x, xhat = vec(rep_p.solution), vec(rep_d.solution)

    def split(X):
        cols = []
        for j in range(r):
            if abs(lam[j].imag) <= 1e-8 * abs(lam[j]):
                cols.append(X[:, j].real)
            elif lam[j].imag > 0:
                cols += [X[:, j].real, X[:, j].imag]
        return np.linalg.qr(np.column_stack(cols))[0]

    V = split(unvec(x, n, r))
    W = split(unvec(xhat, n, r))
    A_r = np.linalg.solve(W.T @ V, W.T @ (sys.A @ V))
    w = np.linalg.eigvals(A_r)
    return M, b, c, x, xhat, V, W, w[np.lexsort((w.imag, w.real))]


class TestRealPairedBasis:
    """The real paired basis against a complex-eigenbasis oracle."""

    def _cases(self):
        flow = build_flow_model(FlowModelParams(N=5))
        heat = build_heat_model(HeatModelParams(K=5))
        for sys in (flow, heat):
            guess = initialize_guess(0, 4, sys.m, sys.p)
            lam = np.linalg.eigvals(guess.A.toarray())
            assert np.sum(np.abs(lam.imag) > 1e-8) == 2   # one conjugate pair
            yield sys, guess

    # With ILUT, roundoff in the two assemblies can tip a drop decision,
    # so that case solves to 1e-12 for a comparison at 1e-10.
    @pytest.mark.parametrize("mode,bicg_tol,drop_tol", [
        ("direct", 1e-10, None), ("bicg", 1e-10, None), ("bicg", 1e-12, 1e-2)])
    def test_step_matches_complex_oracle(self, mode, bicg_tol, drop_tol):
        tol = 1e-10
        for sys, guess in self._cases():
            M, b, c, x, xhat, V, W, spectrum = _complex_oracle(
                sys, guess, mode, bicg_tol, drop_tol)
            cfg = BirkaConfig(r=4, solver_mode=mode, bicg_tol=bicg_tol,
                              precond_drop_tol=drop_tol, capture_bases=True)
            new_guess, rec = birka_step(sys, guess, cfg)
            for rep in (rec.report_primal, rec.report_dual):
                assert rep.solution.dtype == np.float64
                assert rep.residual.dtype == np.float64
            got = np.linalg.eigvals(new_guess.A.toarray())
            got = got[np.lexsort((got.imag, got.real))]
            assert np.max(np.abs(got - spectrum) / np.abs(spectrum)) <= tol
            assert np.linalg.norm(rec.V_r @ rec.V_r.T - V @ V.T) <= tol
            assert np.linalg.norm(rec.W_r @ rec.W_r.T - W @ W.T) <= tol
            # the real solutions, rotated back to the complex eigenbasis,
            # have the relative residuals the report states, and those of
            # the oracle
            U = realify_rotation(np.linalg.eigvals(guess.A.toarray()))
            x_c = vec(rec.report_primal.solution @ U.conj().T)
            xhat_c = vec(rec.report_dual.solution @ U.T)
            res_p = np.linalg.norm(b - M @ x_c) / np.linalg.norm(b)
            res_d = np.linalg.norm(c - M.T @ xhat_c) / np.linalg.norm(c)
            assert abs(res_p - rec.report_primal.relative_residual) <= tol
            assert abs(res_d - rec.report_dual.relative_residual) <= tol
            assert abs(res_p - np.linalg.norm(b - M @ x) / np.linalg.norm(b)) <= tol
            assert abs(res_d - np.linalg.norm(c - M.T @ xhat) / np.linalg.norm(c)) <= tol

    def test_cli_six_smallest_eigs_match_complex_operator(self):
        for sys, guess in self._cases():
            want = np.linalg.eigvals(_complex_oracle(sys, guess, "direct", None)[0])
            got = cli._six_smallest_eigs(sys, guess)
            assert got.size == 6
            assert np.allclose(np.abs(got), np.sort(np.abs(want))[:6],
                               rtol=1e-10, atol=0)
            for lam in got:
                assert np.min(np.abs(want - lam)) <= 1e-10 * abs(lam)
