import numpy as np
import pytest

import birka.system
from birka.linalg import (SingularMatrixError, SparseLU, kron,
                          spectral_abscissa, vec)
from birka.models import (FlowModelParams, HeatModelParams, build_flow_model,
                          build_heat_model)
from birka.reduction import initialize_guess
from birka.stability import condition_number
from birka.system import (BilinearSystem, GramianSolver, assemble_qhat,
                          error_system, gramian_operator, h2_error,
                          h2_norm_kron, h2_norm_lyap, qhat_diagnostics,
                          solve_generalized_lyapunov)
from conftest import random_stable_system


def scalar_system(a=-1.0, n1=0.0, b=1.0, c=1.0):
    return BilinearSystem([[a]], [[[n1]]], [[b]], [[c]])


class TestH2NormKron:
    def test_scalar_linear(self):
        assert h2_norm_kron(scalar_system()) ** 2 == pytest.approx(0.5)

    def test_scalar_bilinear(self):
        sys = scalar_system(n1=0.5)
        assert h2_norm_kron(sys) ** 2 == pytest.approx(1.0 / (2.0 - 0.25))

    def test_zero_output(self):
        assert h2_norm_kron(scalar_system(c=0.0)) == 0.0


class TestGeneralizedLyapunov:
    def test_scalar(self):
        P, method = solve_generalized_lyapunov(scalar_system())
        assert P == pytest.approx(np.array([[0.5]]))
        assert method == "stationary"

    def test_zero_forcing(self):
        P, _ = solve_generalized_lyapunov(scalar_system(b=0.0))
        assert np.allclose(P, 0.0)

    def test_matches_kronecker_solve(self, rng):
        # flow N=5: A is defective, so the factor has clusters of order above 1
        for sys in (random_stable_system(rng, 10, m=2),
                    build_flow_model(FlowModelParams(N=5))):
            P, method = solve_generalized_lyapunov(sys)
            assert method == "stationary"
            x = SparseLU(gramian_operator(sys)).solve(
                kron(sys.B, sys.B) @ vec(np.eye(sys.m)))
            assert np.allclose(vec(P), x, rtol=1e-9, atol=1e-12)

    def test_divergent_iteration_beyond_old_size_guard(self):
        # n^2 = 44100; one rank-2 N touching two columns, scaled so that
        # rho(L^-1 Pi) > 1 and the stationary iteration diverges
        rng = np.random.default_rng(7)
        n = 210
        A = -np.diag(np.linspace(1.0, 5.0, n)) + np.diag(0.5 * np.ones(n - 1), 1)
        N = np.zeros((n, n))
        N[:, [3, 150]] = 30.0 * rng.standard_normal((n, 2)) / np.sqrt(n)
        B = rng.standard_normal((n, 1))
        sys = BilinearSystem(A, [N], B, rng.standard_normal((1, n)))
        with pytest.warns(RuntimeWarning, match="diverged; falling back"):
            P, method = solve_generalized_lyapunov(sys)
        assert method == "kronecker"
        assert sys.gramian_solver().support.tolist() == [3, 150]
        resid = A @ P + P @ A.T + N @ P @ N.T + B @ B.T
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(B @ B.T)

    def test_flow_n18_stays_stationary(self, monkeypatch):
        # n = 342: the residual's roundoff floor there (1.3e-12 ||B B^T||)
        # lies above a test scaled by ||B B^T|| alone
        schur_calls = []
        schur = birka.system.spla.schur

        def counting_schur(*args, **kwargs):
            schur_calls.append(1)
            return schur(*args, **kwargs)
        monkeypatch.setattr(birka.system.spla, "schur", counting_schur)
        sys = build_flow_model(FlowModelParams(N=18))
        P, method = solve_generalized_lyapunov(sys)
        assert method == "stationary"
        assert sys._gramian_solver is None and len(schur_calls) == 1
        # the Kronecker route reuses the factor
        sys.gramian_solver()
        assert len(schur_calls) == 1
        A, N, B, _ = sys.dense()
        AP, NPN = A @ P, [Nk @ P @ Nk.T for Nk in N]
        terms = (np.linalg.norm(B @ B.T) + 2 * np.linalg.norm(AP)
                 + sum(np.linalg.norm(X) for X in NPN))
        resid = AP + P @ A.T + sum(NPN) + B @ B.T
        assert np.linalg.norm(resid) <= 1e-12 * terms

    def test_residual_and_symmetry(self, rng):
        sys = random_stable_system(rng, 8, m=1, p=2)
        P, _ = solve_generalized_lyapunov(sys)
        A, N, B, _ = sys.dense()
        resid = A @ P + P @ A.T + sum(Nk @ P @ Nk.T for Nk in N) + B @ B.T
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(B @ B.T)
        assert np.linalg.norm(P - P.T) <= 1e-12 * max(np.linalg.norm(P), 1.0)


_FLOW3 = build_flow_model(FlowModelParams(N=3))
_ORACLE_RNG = np.random.default_rng(5)
# (name, system, |J|)
ORACLE_CASES = [
    ("scalar", scalar_system(n1=0.5), 1),
    ("dense m=1", random_stable_system(_ORACLE_RNG, 6, m=1), 6),
    ("dense m=2", random_stable_system(_ORACLE_RNG, 7, m=2, p=2), 7),
    ("flow N=3", _FLOW3, 3),
    ("heat K=4", build_heat_model(HeatModelParams(K=4)), 7),
    ("flow N=3 vs guess", error_system(_FLOW3, initialize_guess(0, 6, 1, 1)), 9),
    # A is defective at N=5 and N=11: its eigenvector matrix has
    # cond 1e13-1e15, so the factor needs clusters of order above 1
    ("flow N=5", build_flow_model(FlowModelParams(N=5)), 5),
    ("flow N=11", build_flow_model(FlowModelParams(N=11)), 11),
]
DEFECTIVE = [case[1] for case in ORACLE_CASES[-2:]]


class TestGramianSolver:
    @pytest.mark.parametrize("sys, support", [case[1:] for case in ORACLE_CASES],
                             ids=[case[0] for case in ORACLE_CASES])
    def test_matches_sparse_lu(self, sys, support, rng):
        solver = GramianSolver(sys)
        assert solver.support.size == support
        lu = SparseLU(gramian_operator(sys))
        b = rng.standard_normal(sys.n ** 2)
        for got, want in ((solver.solve(b), lu.solve(b)),
                          (solver.solve_transpose(b), lu.solve_transpose(b))):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("sys", [case[1] for case in ORACLE_CASES],
                             ids=[case[0] for case in ORACLE_CASES])
    def test_apply_matches_assembled(self, sys, rng):
        solver = GramianSolver(sys)
        G = gramian_operator(sys)
        x = rng.standard_normal(sys.n ** 2)
        for got, want in ((solver.apply(x), G @ x),
                          (solver.apply_transpose(x), G.T @ x)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("sys", DEFECTIVE, ids=["flow N=5", "flow N=11"])
    def test_defective_drift_takes_clusters(self, sys):
        solver = GramianSolver(sys)
        assert solver.cluster_sizes.max() > 1
        assert solver.cluster_sizes.sum() == sys.n
        assert np.isfinite(solver.cond_X)
        a, b = h2_norm_kron(sys), h2_norm_lyap(sys)
        assert abs(a - b) <= 1e-8 * a

    def test_factor_reproduces_drift(self):
        # A = X diag(T_1, ..., T_q) X^{-1} with X^{-1} the inverse of X
        sys = DEFECTIVE[1]
        F = GramianSolver(sys)._F
        A = sys.A.toarray()
        assert np.linalg.norm(F.Xinv @ F.X - np.eye(sys.n)) <= 1e-12 * F.cond
        assert np.linalg.norm(F.X @ F.D @ F.Xinv - A) <= 1e-13 * F.cond * np.linalg.norm(A)

    def test_build_cost_does_not_grow_with_support(self, monkeypatch):
        # the old build ran one Sylvester solve per capacitance column,
        # |J|^2 = 49 at K=4 and 225 at K=8; now: one to decouple the
        # clusters, plus one per input if some cluster has order above 1
        calls = []
        dtrsyl = birka.system.dtrsyl

        def counting_dtrsyl(*args, **kwargs):
            calls.append(1)
            return dtrsyl(*args, **kwargs)
        monkeypatch.setattr(birka.system, "dtrsyl", counting_dtrsyl)
        for K, support in ((4, 7), (8, 15)):
            calls.clear()
            sys = build_heat_model(HeatModelParams(K=K))
            assert GramianSolver(sys).support.size == support
            assert 1 <= len(calls) <= 1 + sys.m

    def test_bilinear_term_cancels_lyapunov_part(self):
        # G = 2 - n1^2 = 0
        with pytest.raises(SingularMatrixError):
            h2_norm_kron(scalar_system(n1=np.sqrt(2.0)))

    def test_eigenvalues_of_a_sum_to_zero(self):
        sys = BilinearSystem(np.diag([1.0, -1.0]), [np.zeros((2, 2))],
                             np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(SingularMatrixError):
            h2_norm_kron(sys)

    def test_one_engine_per_system(self, monkeypatch):
        builds = []
        init = GramianSolver.__init__

        def counting_init(self, sys):
            builds.append(sys)
            init(self, sys)
        monkeypatch.setattr(birka.system.GramianSolver, "__init__", counting_init)
        sys = build_flow_model(FlowModelParams(N=3))
        diag = qhat_diagnostics(sys)
        condition_number(sys, diagnostics=diag)
        h2_norm_kron(sys)
        assert builds == [sys]


class TestIsStable:
    SHIFTED = BilinearSystem(_FLOW3.A + 1.0 * np.eye(_FLOW3.n), _FLOW3.N,
                             _FLOW3.B, _FLOW3.C)

    @pytest.mark.parametrize("sys", [case[1] for case in ORACLE_CASES[:6]]
                             + [build_flow_model(FlowModelParams(N=30)),
                                build_heat_model(HeatModelParams(K=30)), SHIFTED],
                             ids=[case[0] for case in ORACLE_CASES[:6]]
                             + ["flow N=30", "heat K=30", "flow N=3 + I"])
    def test_matches_dense_spectrum(self, sys):
        want = np.linalg.eigvals(sys.A.toarray()).real.max()
        assert abs(spectral_abscissa(sys.A) - want) <= 1e-10 * abs(want)
        assert sys.is_stable() == (want < 0)

    def test_shifted_copy_is_unstable(self):
        assert _FLOW3.is_stable() and not self.SHIFTED.is_stable()


class TestH2NormLyap:
    def test_scalar(self):
        assert h2_norm_lyap(scalar_system()) == pytest.approx(np.sqrt(0.5))

    def test_zero_output(self):
        assert h2_norm_lyap(scalar_system(c=0.0)) == 0.0

    def test_dual_route_agreement(self, rng):
        sys = random_stable_system(rng, 12, m=2, p=2)
        a = h2_norm_kron(sys)
        b = h2_norm_lyap(sys)
        assert abs(a - b) <= 1e-8 * a


class TestErrorSystem:
    def test_self_error_is_zero(self, rng):
        sys = random_stable_system(rng, 6)
        assert h2_error(sys, sys) <= 1e-10 * h2_norm_kron(sys)

    def test_two_scalar_systems(self):
        s1 = scalar_system(a=-1.0)
        s2 = scalar_system(a=-2.0)
        # closed form: 1/2 + 1/4 - 2/3
        assert h2_error(s1, s2) ** 2 == pytest.approx(1.0 / 2 + 1.0 / 4 - 2.0 / 3)

    def test_shapes_and_sign_flip(self, rng):
        s1 = random_stable_system(rng, 3)
        s2 = random_stable_system(rng, 2)
        err = error_system(s1, s2)
        assert err.n == 5 and err.C.shape == (1, 5)
        assert np.allclose(err.C.toarray()[0, 3:], -s2.C.toarray()[0])

    def test_channel_mismatch(self, rng):
        s1 = random_stable_system(rng, 3, m=1)
        s2 = random_stable_system(rng, 3, m=2)
        with pytest.raises(ValueError):
            error_system(s1, s2)

    def test_matches_direct_quadratic_form(self, rng):
        s1 = random_stable_system(rng, 8)
        s2 = random_stable_system(rng, 3)
        err = error_system(s1, s2)
        G = gramian_operator(err)
        x = SparseLU(G).solve(kron(err.B, err.B) @ vec(np.eye(err.m)))
        val = float(vec(np.eye(err.p)) @ (kron(err.C, err.C) @ x))
        assert h2_error(s1, s2) == pytest.approx(np.sqrt(max(val, 0.0)), rel=1e-12)


SVD_CASES = [
    ("scalar", scalar_system()),
    ("flow N=3", _FLOW3),
    ("heat K=5", build_heat_model(HeatModelParams(K=5))),
    ("heat K=6", build_heat_model(HeatModelParams(K=6))),
]


class TestQhatDiagnostics:
    @pytest.mark.parametrize("sys", [case[1] for case in SVD_CASES],
                             ids=[case[0] for case in SVD_CASES])
    def test_sigmas_match_dense_svd(self, sys):
        sv = np.linalg.svd(gramian_operator(sys).toarray(), compute_uv=False)
        diag = qhat_diagnostics(sys)
        assert diag.base_sigma_max == pytest.approx(sv[0], rel=1e-10)
        assert diag.base_sigma_min == pytest.approx(sv[-1], rel=1e-10)
        assert diag.qinv_norm == pytest.approx(1.0 / sv[0], rel=1e-10)

    def test_condition_number_reads_only_sigma_max(self, monkeypatch):
        def fail(self):
            raise AssertionError("sigma_min computed")
        monkeypatch.setattr(birka.system.GramianSolver, "sigma_min", fail)
        sys = build_flow_model(FlowModelParams(N=3))
        _, factors = condition_number(sys, return_factors=True)
        assert factors["qinv_norm"] == pytest.approx(
            1.0 / sys.gramian_solver().sigma_max(), rel=1e-15)

    def test_scalar(self):
        diag = qhat_diagnostics(scalar_system())
        assert diag.base_sigma_min == pytest.approx(2.0, rel=1e-4)
        assert diag.qinv_norm == pytest.approx(0.5, rel=1e-4)

    def test_decoupling_multiplicity_four(self, rng):
        sys = random_stable_system(rng, 4, m=2)
        Q = assemble_qhat(sys)
        sv_q = np.sort(np.linalg.svd(Q, compute_uv=False))
        sv_base = np.sort(np.linalg.svd(gramian_operator(sys).toarray(),
                                        compute_uv=False))
        assert np.allclose(sv_q, np.sort(np.repeat(sv_base, 4)), rtol=1e-10)

    def test_symbol_link(self, rng):
        sys = random_stable_system(rng, 5)
        diag = qhat_diagnostics(sys)
        if diag.lyapunov_symbol_sigma_min > 0:
            SparseLU(gramian_operator(sys))  # must not raise


class TestSerialization:
    def test_save_load_round_trip(self, rng, tmp_path):
        sys = random_stable_system(rng, 5, m=2, p=2)
        sys.save(tmp_path / "sys")
        back = BilinearSystem.load(tmp_path / "sys")
        assert np.allclose(back.A.toarray(), sys.A.toarray())
        assert all(np.allclose(x.toarray(), y.toarray())
                   for x, y in zip(back.N, sys.N))
        assert np.allclose(back.B.toarray(), sys.B.toarray())
        assert np.allclose(back.C.toarray(), sys.C.toarray())
        assert back.label == sys.label

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            BilinearSystem(np.eye(3), [np.eye(3)], np.ones((3, 2)), np.ones((1, 3)))
