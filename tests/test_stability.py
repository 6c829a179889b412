import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spsla

from birka.linalg import SingularMatrixError
from birka.models import HeatModelParams, build_heat_model
from birka.reduction import BirkaConfig, IterationRecord, run_birka
from birka.stability import (PerturbationF, analyze_iteration,
                             condition_number, construct_perturbation,
                             fhh_norm, perturbation_bound, stability_csv,
                             verify_backward_stability)
from birka.system import BilinearSystem, h2_norm_kron
from conftest import random_stable_system


def manufactured_setup(rng, n=20, r=4, res_scale=1e-3):
    """Bases plus residuals satisfying the Petrov-Galerkin orthogonality
    exactly, so the reconstruction identities hold to roundoff."""
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    W = np.linalg.qr(rng.standard_normal((n, r)))[0]
    R_B = res_scale * rng.standard_normal((n, r))
    R_C = res_scale * rng.standard_normal((n, r))
    R_B -= W @ np.linalg.solve(W.T @ W, W.T @ R_B)   # W^T R_B = 0
    R_C -= V @ np.linalg.solve(V.T @ V, V.T @ R_C)   # V^T R_C = 0
    return V, W, R_B, R_C


class TestPerturbationF:
    def test_zero_residuals_give_zero(self, rng):
        V, W, _, _ = manufactured_setup(rng)
        F = construct_perturbation(V, W, np.zeros_like(V), np.zeros_like(W))
        assert F.norm_2 == 0.0 and F.norm_F == 0.0
        assert np.allclose(F.assemble(), 0.0)

    def test_reconstruction_identities(self, rng):
        V, W, R_B, R_C = manufactured_setup(rng)
        F = construct_perturbation(V, W, R_B, R_C)
        Fd = F.assemble()
        scale = max(np.linalg.norm(R_B), np.linalg.norm(R_C))
        assert np.linalg.norm(Fd @ V - R_B) <= 1e-10 * scale
        assert np.linalg.norm(W.T @ Fd - R_C.T) <= 1e-10 * scale

    def test_factored_norms_match_dense(self, rng):
        V, W, R_B, R_C = manufactured_setup(rng, n=30, r=3)
        F = construct_perturbation(V, W, R_B, R_C)
        Fd = F.assemble()
        assert F.norm_2 == pytest.approx(np.linalg.norm(Fd, 2), rel=1e-8)
        assert F.norm_F == pytest.approx(np.linalg.norm(Fd), rel=1e-10)

    def test_apply_matches_assembled(self, rng):
        V, W, R_B, R_C = manufactured_setup(rng, n=15, r=3)
        F = construct_perturbation(V, W, R_B, R_C)
        Fd = F.assemble()
        X = rng.standard_normal((15, 2))
        assert np.allclose(F.apply_matrix(X), Fd @ X, atol=1e-13)
        assert np.allclose(F.apply_matrix_left(X.T), X.T @ Fd, atol=1e-13)

    def test_norm_bounded_by_a_priori_bound(self, rng):
        V, W, R_B, R_C = manufactured_setup(rng)
        F = construct_perturbation(V, W, R_B, R_C)
        bound = perturbation_bound(R_B, R_C, V, W)
        assert F.norm_F <= bound * (1 + 1e-12)


class TestPerturbationBound:
    def test_arithmetic(self):
        # sqrt(6) * (0.0544 * 2.4554 + 7.7746e-8 * 2.4554) on synthetic
        # factors with those exact norms
        r = 6
        n = 40
        rng = np.random.default_rng(0)
        V = np.linalg.qr(rng.standard_normal((n, r)))[0]
        W = V.copy()                       # so (W^T V)^{-1} = I, factor norms sqrt(r)
        R_B = np.zeros((n, r)); R_B[0, 0] = 0.0544
        R_C = np.zeros((n, r)); R_C[1, 1] = 7.7746e-8
        got = perturbation_bound(R_B, R_C, V, W)
        expected = np.sqrt(6) * (0.0544 * np.sqrt(6) + 7.7746e-8 * np.sqrt(6))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_zero_residuals(self, rng):
        V, W, _, _ = manufactured_setup(rng)
        assert perturbation_bound(np.zeros_like(V), np.zeros_like(W), V, W) == 0.0


class TestVerifyBackwardStability:
    def test_manufactured_defects_tiny(self, rng):
        sys = random_stable_system(rng, 20)
        V, W, R_B, R_C = manufactured_setup(rng, n=20, r=4)
        F = construct_perturbation(V, W, R_B, R_C)
        out = verify_backward_stability(sys, V, W, F)
        # W^T F V = W^T R_B = 0 by construction
        assert out["eq_defect"] <= 1e-12
        assert all(v <= 1e-10 for v in out["matrix_rel_diffs"].values())

    def test_defect_matches_wfv(self, rng):
        sys = random_stable_system(rng, 12)
        V = np.linalg.qr(rng.standard_normal((12, 3)))[0]
        W = np.linalg.qr(rng.standard_normal((12, 3)))[0]
        R_B = 1e-2 * rng.standard_normal((12, 3))
        R_C = 1e-2 * rng.standard_normal((12, 3))
        F = construct_perturbation(V, W, R_B, R_C)
        out = verify_backward_stability(sys, V, W, F)
        expected = np.linalg.norm(W.T @ (F.assemble() @ V), 2)
        assert out["eq_defect"] == pytest.approx(expected, rel=1e-10)


class TestFhhNorm:
    def test_zero(self):
        assert fhh_norm(np.zeros((3, 3))) == 0.0

    def test_scalar_is_twice_f(self):
        assert fhh_norm(np.array([[1.0]])) == pytest.approx(2.0, abs=1e-12)

    def test_matches_dense_assembly(self, rng):
        # a dense F, then factored ones; n = 12 < 4r = 24 is the wide
        # shape where the stacked factors have more columns than rows
        inputs = [rng.standard_normal((3, 3))]
        for n, r in ((8, 3), (12, 6)):
            V, W, R_B, R_C = manufactured_setup(rng, n=n, r=r, res_scale=1.0)
            inputs.append(construct_perturbation(V, W, R_B, R_C))
        for F in inputs:
            Fd = F.assemble() if isinstance(F, PerturbationF) else F
            n = Fd.shape[0]
            FH = np.zeros((2 * n, 2 * n))
            FH[n:, n:] = Fd
            d = 2 * n
            FHH = np.kron(np.eye(d), FH) + np.kron(FH, np.eye(d))
            expected = np.linalg.norm(FHH, 2)
            assert fhh_norm(F) == pytest.approx(expected, rel=1e-12)

    def test_matches_arpack_on_heat_iterates(self):
        """Against ARPACK on the matrix-free lift x -> vec(FH X + X FH^T)."""
        sys = build_heat_model(HeatModelParams(K=10))
        cfg = BirkaConfig(r=6, btol=1e-6, max_outer=6, seed=0,
                          solver_mode="bicg", bicg_tol=1e-4, capture_bases=True)
        history = run_birka(sys, cfg).history
        assert len(history) == 6
        for rec in history:
            F = construct_perturbation(rec.V_r, rec.W_r,
                                       rec.R_B_orth, rec.R_C_orth)
            Fd = F.assemble()
            n = F.n
            d = 2 * n

            def lift(x, M):
                X = x.reshape(d, d, order="F")
                out = np.zeros((d, d))
                out[n:, :] += M @ X[n:, :]
                out[:, n:] += X[:, n:] @ M.T
                return out.reshape(-1, order="F")

            op = spsla.LinearOperator((d * d, d * d), dtype=float,
                                      matvec=lambda x: lift(x, Fd),
                                      rmatvec=lambda x: lift(x, Fd.T))
            v0 = np.random.default_rng(0).standard_normal(d * d)
            sigma = spsla.svds(op, k=1, v0=v0, return_singular_vectors=False)[0]
            assert fhh_norm(F) == pytest.approx(sigma, rel=1e-10)

    def test_upper_bound(self, rng):
        Fd = rng.standard_normal((4, 4))
        assert fhh_norm(Fd) <= 2 * np.linalg.norm(Fd, 2) * (1 + 1e-10)


class TestObliqueGramGuard:
    """Every oblique projection refuses a singular W^T V."""

    @pytest.mark.parametrize("call", [
        lambda sys, V, W, R: construct_perturbation(V, W, R, R),
        lambda sys, V, W, R: perturbation_bound(R, R, V, W),
        lambda sys, V, W, R: verify_backward_stability(sys, V, W, np.zeros((6, 6))),
        lambda sys, V, W, R: sys.project(V, W),
    ], ids=["construct_perturbation", "perturbation_bound",
            "verify_backward_stability", "project"])
    def test_raises_when_wtv_is_zero(self, rng, call):
        sys = random_stable_system(rng, 6)
        V = np.eye(6)[:, :2]
        W = np.eye(6)[:, 2:4]          # W^T V = 0
        with pytest.raises(SingularMatrixError):
            call(sys, V, W, rng.standard_normal((6, 2)))


class TestConditionNumber:
    def test_scalar_closed_form(self):
        sys = BilinearSystem([[-1.0]], [[[0.0]]], [[1.0]], [[1.0]])
        # qinv = 1/2, ||CH QH^-1|| = 1, ||BH|| = 2, ||A|| = 1, h2 = sqrt(1/2)
        expected = np.sqrt(2) * 1.0 * 0.5 * 2.0 * np.sqrt(2) * 1.0 / (np.sqrt(0.5) * 0.5)
        assert condition_number(sys) == pytest.approx(expected, rel=1e-6)
        assert expected == pytest.approx(4 * np.sqrt(2))

    def test_matches_dense_sector_assembly(self, rng):
        sys = random_stable_system(rng, 5)
        k, factors = condition_number(sys, return_factors=True)
        from birka.system import assemble_qhat, gramian_operator
        G = gramian_operator(sys).toarray()
        K0 = np.linalg.solve(G.T, (np.kron(sys.C.toarray(), sys.C.toarray())).T).T
        CQ = np.hstack([s * K0 for s in (1.0, -1.0, -1.0, 1.0)])
        assert factors["chat_qinv_norm"] == pytest.approx(
            np.linalg.norm(CQ, 2), rel=1e-10)
        assert factors["qinv_norm"] == pytest.approx(
            1.0 / np.linalg.norm(G, 2), rel=1e-10)

    def test_rejects_large_qinv(self, rng):
        sys = BilinearSystem([[-0.25]], [[[0.0]]], [[1.0]], [[1.0]])
        # G = 0.5 so ||QH^-1|| = 2 >= 1
        with pytest.raises(ValueError):
            condition_number(sys)


class TestAnalyzeIteration:
    def _run(self, tol):
        sys = build_heat_model(HeatModelParams(K=6))
        cfg = BirkaConfig(r=4, btol=1e-4, max_outer=20, seed=0,
                          solver_mode="bicg", bicg_tol=tol, capture_bases=True)
        return sys, run_birka(sys, cfg)

    def test_requires_captured_bases(self, rng):
        sys = random_stable_system(rng, 8)
        res = run_birka(sys, BirkaConfig(r=2, max_outer=10))
        with pytest.raises(ValueError):
            analyze_iteration(sys, res.history[0])

    def test_report_consistency_and_theorem_chain(self):
        sys, res = self._run(1e-6)
        rep = analyze_iteration(sys, res.history[0])
        assert rep.f_normF <= rep.thm_bound * (1 + 1e-10)
        assert rep.f_norm2 <= rep.f_normF * (1 + 1e-10)
        assert rep.fhh_norm <= 2 * rep.f_norm2 * (1 + 1e-8)
        assert rep.projection_defect <= 10 * max(rep.pg_defect_B, rep.pg_defect_C) + 1e-12

    def test_tighter_tolerance_shrinks_perturbation(self):
        sys, res_loose = self._run(1e-3)
        _, res_tight = self._run(1e-9)
        rep_loose = analyze_iteration(sys, res_loose.history[0], compute_fhh=False)
        rep_tight = analyze_iteration(sys, res_tight.history[0], compute_fhh=False)
        assert rep_tight.f_normF < rep_loose.f_normF

    def test_csv_output(self, tmp_path):
        sys, res = self._run(1e-6)
        reps = [analyze_iteration(sys, rec, compute_fhh=False)
                for rec in res.history[:2]]
        path = tmp_path / "stab.csv"
        stability_csv(reps, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3


class TestEqDefectC:
    """||W~^T F - R_C^T||_2 from the factors of F, at any state dimension."""

    def _instance(self, rng, n, r):
        V, W, R_B, R_C = manufactured_setup(rng, n=n, r=r)
        # break the primal Petrov-Galerkin orthogonality, so that the
        # defect (W~^T R_B) T W~^T is of the size of the residuals
        R_B = R_B + 1e-3 * rng.standard_normal((n, r))
        sys = BilinearSystem(sps.diags(-np.arange(1.0, n + 1.0)),
                             [sps.csr_matrix((n, n))], np.ones((n, 1)),
                             np.ones((1, n)))
        record = IterationRecord(iteration=1, eigenvalues=None,
                                 relative_change=0.0, report_primal=None,
                                 report_dual=None, V_r=V, W_r=W,
                                 R_B_orth=R_B, R_C_orth=R_C)
        F = construct_perturbation(V, W, R_B, R_C)
        return analyze_iteration(sys, record, compute_fhh=False), F, W, R_C

    def test_finite_above_2000_and_matches_dense(self, rng):
        rep, F, W, R_C = self._instance(rng, 2100, 2)
        expected = np.linalg.norm(W.T @ F.assemble() - R_C.T, 2)
        assert np.isfinite(rep.eq_defect_C)
        assert rep.eq_defect_C == pytest.approx(expected, rel=1e-12)

    def test_unchanged_at_small_n(self, rng):
        rep, F, W, R_C = self._instance(rng, 40, 4)
        # the formula used up to n = 2000: F applied to the identity
        expected = np.linalg.norm(W.T @ F.apply_matrix(np.eye(40)) - R_C.T, 2)
        assert rep.eq_defect_C == pytest.approx(expected, rel=1e-12)
