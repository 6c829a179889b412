import json
import os

import numpy as np
import pytest

import birka.cli
import birka.system
from birka.cli import main
from birka.reduction import initialize_guess
from birka.system import BilinearSystem, qhat_diagnostics
from birka.models import (FlowModelParams, HeatModelParams, build_flow_model,
                          build_heat_model)


class TestModelExport:
    def test_heat_round_trip(self, tmp_path):
        out = tmp_path / "heatmodel"
        assert main(["model-export", "--model", "heat", "--K", "4",
                     "--out", str(out)]) == 0
        back = BilinearSystem.load(out)
        ref = build_heat_model(HeatModelParams(K=4))
        assert np.allclose(back.A.toarray(), ref.A.toarray())
        assert back.m == 2 and back.p == 1

    def test_missing_size_is_usage_error(self, tmp_path, capsys):
        assert main(["model-export", "--model", "heat",
                     "--out", str(tmp_path / "x")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "validation"


class TestH2Norm:
    def test_both_routes_agree(self, capsys, monkeypatch):
        # heat K=10 has rho(L^-1 Pi) = 1.76, so the Gramian route falls
        # back to the Kronecker solve; flow N=8 runs the stationary route
        routes = []
        solve = birka.system.solve_generalized_lyapunov

        def recording(sys):
            P, method = solve(sys)
            routes.append(method)
            return P, method
        monkeypatch.setattr(birka.system, "solve_generalized_lyapunov", recording)
        for model, route in ((["heat", "--K", "10"], "kronecker"),
                             (["flow", "--N", "8"], "stationary")):
            assert main(["h2norm", "--model", *model, "--method", "both"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["h2_norm_kron"] == pytest.approx(
                payload["h2_norm_lyap"], rel=1e-8)
            assert routes.pop() == route

    def test_negative_norm_square_is_numerical_failure(self, capsys):
        # heat K=7: rho(L^-1 Pi) = 1.54 and the quadratic form is negative
        assert main(["h2norm", "--model", "heat", "--K", "7",
                     "--method", "kron"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "numerical"
        assert "negative H2 norm-square" in err["error"]

    def test_file_model(self, tmp_path, capsys):
        out = tmp_path / "m"
        main(["model-export", "--model", "flow", "--N", "3", "--out", str(out)])
        capsys.readouterr()
        assert main(["h2norm", "--model", "file", "--path", str(out),
                     "--method", "kron"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["h2_norm_kron"] > 0


class TestReduce:
    def test_invalid_order_exits_one(self, tmp_path, capsys):
        code = main(["reduce", "--model", "heat", "--K", "4", "--r", "16",
                     "--out", str(tmp_path)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "validation"

    def test_direct_run_writes_artifacts(self, tmp_path, capsys):
        code = main(["reduce", "--model", "heat", "--K", "10", "--r", "4",
                     "--btol", "1e-4", "--max-outer", "40",
                     "--out", str(tmp_path)])
        assert code == 0
        out = tmp_path / "reduce"
        for name in ("history.csv", "eigenvalues.csv", "stability.csv",
                     "summary.json"):
            assert (out / name).exists()
        assert (out / "reduced").is_dir()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["r"] == 4 and summary["n"] == 100
        hist_lines = (out / "history.csv").read_text().strip().splitlines()
        assert len(hist_lines) == summary["iterations"] + 1

    def test_bicg_run(self, tmp_path, capsys):
        code = main(["reduce", "--model", "flow", "--N", "3", "--r", "2",
                     "--solver", "bicg", "--tol", "1e-8", "--btol", "1e-4",
                     "--max-outer", "40", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "reduce" / "summary.json").read_text())
        assert summary["solver"] == "bicg"
        assert summary["final_reference_error"] is not None

    def test_warnings_recorded_in_summary(self, tmp_path, capsys):
        # --maxit 2 stops every BiCG solve at its budget, and each one warns
        # (at --maxit 1 the reduced model has no H2 norm and reduce exits 2)
        code = main(["reduce", "--model", "flow", "--N", "3", "--r", "2",
                     "--solver", "bicg", "--tol", "1e-8", "--maxit", "2",
                     "--max-outer", "3", "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "reduce" / "summary.json").read_text())
        entries = summary["warnings"]
        messages = [e["message"] for e in entries]
        assert len(set(messages)) == len(messages)
        assert all(e["count"] >= 1 for e in entries)
        maxit = [e for e in entries if e["message"].startswith("BiCG hit maxit=2 ")]
        assert sum(e["count"] for e in maxit) >= summary["iterations"]

    def test_summary_needs_no_full_diagnostics(self, tmp_path, capsys,
                                               monkeypatch):
        def fail(sys):
            raise AssertionError("qhat_diagnostics called")
        monkeypatch.setattr(birka.cli, "qhat_diagnostics", fail)
        code = main(["reduce", "--model", "flow", "--N", "3", "--r", "2",
                     "--btol", "1e-4", "--max-outer", "40",
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "reduce" / "summary.json").read_text())
        assert sorted(summary) == [
            "bicg_tol", "condition_number", "converged", "final_f_norm",
            "final_reference_error", "h2_error", "h2_norm", "iterations",
            "model", "n", "qinv_norm", "r", "solver", "warnings"]
        sys = build_flow_model(FlowModelParams(N=3))
        assert summary["qinv_norm"] == pytest.approx(
            qhat_diagnostics(sys).qinv_norm, rel=1e-12)


class TestStabilityCommand:
    def test_heat_diagnostics(self, tmp_path, capsys):
        code = main(["stability", "--model", "heat", "--K", "10",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0 < payload["qinv_norm"] < 1
        assert payload["condition_number"] > 0
        assert (tmp_path / "stability.json").exists()


class TestExperiment:
    def test_empty_sweep_is_usage_error(self, tmp_path, capsys):
        code = main(["experiment", "--model", "heat", "--K", "4", "--r", "2",
                     "--tols", "", "--seeds", "0", "--out", str(tmp_path)])
        assert code == 1

    def test_removed_flags_are_usage_errors(self, tmp_path, capsys):
        # each cell takes its tolerance from --tols and its seed from --seeds
        for flag in (["--tol", "1e-6"], ["--seed", "3"], ["--solver", "bicg"]):
            code = main(["experiment", "--model", "heat", "--K", "4", "--r", "2",
                         "--tols", "1e-6", "--seeds", "0", *flag,
                         "--out", str(tmp_path)])
            assert code == 1
        assert not (tmp_path / "experiment").exists()

    def test_fig3_above_old_size_cutoff(self, tmp_path, capsys):
        # n*r = 2100: diagonal A and N = 0 give the sieve eigenvalues
        # -(lambda_i(A_r) + mu_j(A)) in closed form
        n, r = 350, 6
        rng = np.random.default_rng(3)
        mu = -np.linspace(1.0, 40.0, n)
        model = tmp_path / "diag"
        BilinearSystem(np.diag(mu), [np.zeros((n, n))], rng.standard_normal((n, 1)),
                       rng.standard_normal((1, n))).save(model)
        code = main(["experiment", "--model", "file", "--path", str(model),
                     "--r", str(r), "--tols", "1e-6", "--seeds", "0",
                     "--max-outer", "2", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "experiment" / "fig3.csv").read_text().strip().splitlines()[1:]
        first = [complex(float(re), float(im)) for *_, stage, _, re, im in
                 (row.split(",") for row in rows) if stage == "first"]
        assert len(rows) == 12 and len(first) == 6
        lam = np.linalg.eigvals(initialize_guess(0, r, 1, 1).A.toarray())
        want = -(lam[:, None] + mu[None, :]).ravel()
        want = want[np.argsort(np.abs(want))][:6]
        assert np.allclose(np.abs(first), np.abs(want), rtol=1e-10, atol=0)
        for got in first:
            assert np.min(np.abs(want - got)) <= 1e-10 * abs(got)

    def test_small_sweep_artifacts(self, tmp_path, capsys):
        code = main(["experiment", "--model", "heat", "--K", "4", "--r", "2",
                     "--tols", "1e-6", "--seeds", "0", "--btol", "1e-3",
                     "--max-outer", "30", "--out", str(tmp_path)])
        assert code == 0
        out = tmp_path / "experiment"
        for name in ("fig1.csv", "fig3.csv", "table1.csv", "table2.csv",
                     "summary.json"):
            assert (out / name).exists()
        assert (out / "seed0_tol1e-06").is_dir()
        table2 = (out / "table2.csv").read_text().strip().splitlines()
        assert len(table2) >= 2

    def test_rs_writes_sensitivity_table(self, tmp_path, capsys):
        code = main(["experiment", "--model", "heat", "--K", "4", "--r", "2",
                     "--tols", "1e-6", "--seeds", "0", "--btol", "1e-3",
                     "--max-outer", "30", "--rs", "2,3",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "experiment" / "table4.csv").read_text().strip().splitlines()
        assert rows[0] == "r,seed,wtv_inv_wt_frob"
        assert len(rows) == 3


class TestOutputRoot:
    def test_env_var_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIRKA_OUTPUT_ROOT", str(tmp_path))
        assert main(["model-export", "--model", "heat", "--K", "3"]) == 0
        assert (tmp_path / "model").is_dir()
