"""End-to-end acceptance criteria.

Each test prints exactly one PASS/FAIL line (to the real stdout, past
pytest's capture) before asserting, so a full run yields a compact
scoreboard.  Expensive reduction runs are shared across criteria via
module-level caches.
"""

import sys

import conftest
import numpy as np
import pytest

from birka.linalg import vec
from birka.models import (FlowModelParams, HeatModelParams, build_flow_model,
                          build_heat_model)
from birka.reduction import BirkaConfig, run_birka
from birka.solvers import KroneckerOperator, bicg_dual_solve
from birka.stability import (analyze_iteration, condition_number,
                             construct_perturbation, fhh_norm,
                             perturbation_bound)
from birka.system import (assemble_qhat, gramian_operator, h2_norm_kron,
                          h2_norm_lyap, qhat_diagnostics)
from conftest import random_stable_system

_CACHE = {}


def _report(num, ok, desc):
    line = f"[PRIMARY {num}] {'PASS' if ok else 'FAIL'} — {desc}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.acceptance_lines.append(line)
    return ok


def _heat():
    if "heat" not in _CACHE:
        _CACHE["heat"] = build_heat_model(HeatModelParams(K=10))
    return _CACHE["heat"]


def _flow():
    if "flow" not in _CACHE:
        _CACHE["flow"] = build_flow_model(FlowModelParams(N=10))
    return _CACHE["flow"]


def _heat_bicg_runs():
    """Heat model, BiCG tolerance 1e-4, seeds 0..4, bases captured."""
    if "heat_runs" not in _CACHE:
        runs = []
        for seed in range(5):
            cfg = BirkaConfig(r=6, btol=1e-6, max_outer=60, seed=seed,
                              solver_mode="bicg", bicg_tol=1e-4,
                              capture_bases=True)
            runs.append(run_birka(_heat(), cfg))
        _CACHE["heat_runs"] = runs
    return _CACHE["heat_runs"]


def _flow_bicg_runs(tol):
    """Flow model, r=6, seeds 0..4 at the given BiCG tolerance."""
    key = ("flow_runs", tol)
    if key not in _CACHE:
        runs = []
        for seed in range(5):
            cfg = BirkaConfig(r=6, btol=1e-6, max_outer=60, seed=seed,
                              solver_mode="bicg", bicg_tol=tol,
                              capture_bases=True, reference_error=True)
            runs.append(run_birka(_flow(), cfg))
        _CACHE[key] = runs
    return _CACHE[key]


class TestAcceptance:
    def test_criterion_01_h2_route_agreement(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            sys = random_stable_system(rng, n, m=m, p=p)
            a = h2_norm_kron(sys)
            b = h2_norm_lyap(sys)
            worst = max(worst, abs(a - b) / a)
        ok = worst <= 1e-8
        assert _report(1, ok,
                       f"two H2-norm routes agree on 50 random systems "
                       f"(worst rel diff {worst:.2e}, tol 1e-8)")

    def test_criterion_02_qinv_reference_values(self):
        heat = qhat_diagnostics(_heat()).qinv_norm
        flow = qhat_diagnostics(_flow()).qinv_norm
        dh = abs(heat - 5.2893e-4) / 5.2893e-4
        df = abs(flow - 1.6051e-3) / 1.6051e-3
        ok = dh <= 5e-3 and df <= 5e-3
        assert _report(2, ok,
                       f"inverse-operator norms match reference values "
                       f"(heat {heat:.6e} off {dh:.2%}, flow {flow:.6e} "
                       f"off {df:.2%}, tol 0.5%)")

    def test_criterion_03_condition_number_reference_values(self):
        k_heat = condition_number(_heat())
        k_flow = condition_number(_flow())
        dh = abs(k_heat - 2.6653e-2) / 2.6653e-2
        df = abs(k_flow - 1.2125e-2) / 1.2125e-2
        ok = dh <= 2e-2 and df <= 2e-2
        assert _report(3, ok,
                       f"condition numbers vs reference values "
                       f"(heat {k_heat:.5e} off {dh:.1%}, flow {k_flow:.5e} "
                       f"off {df:.1%}, tol 2%); the formula is implemented "
                       f"as specified and the heat/flow ratio matches the "
                       f"reference ratio to 0.4%, but both magnitudes "
                       f"differ by a common constant factor of about 845 "
                       f"whose origin could not be reconstructed")

    def test_criterion_04_qhat_decoupling(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(10):
            n = int(rng.integers(2, 7))
            sys = random_stable_system(rng, n, m=int(rng.integers(1, 3)))
            sv_q = np.sort(np.linalg.svd(assemble_qhat(sys),
                                         compute_uv=False))
            sv_g = np.sort(np.linalg.svd(gramian_operator(sys).toarray(),
                                         compute_uv=False))
            ref = np.sort(np.repeat(sv_g, 4))
            worst = max(worst, float(np.max(np.abs(sv_q - ref))
                                     / max(np.max(ref), 1e-300)))
        ok = worst <= 1e-10
        assert _report(4, ok,
                       f"error-operator spectrum is the base spectrum with "
                       f"multiplicity 4 on 10 random systems "
                       f"(worst rel dev {worst:.2e}, tol 1e-10)")

    def test_criterion_05_perturbation_bound_chain(self):
        violations = 0
        total = 0
        for res in _heat_bicg_runs():
            for rec in res.history:
                rep = analyze_iteration(_heat(), rec, compute_fhh=False)
                total += 1
                if not (rep.f_normF <= rep.thm_bound * (1 + 1e-10)):
                    violations += 1
        ok = violations == 0 and total > 0
        assert _report(5, ok,
                       f"a-priori bound dominates the constructed "
                       f"perturbation at every iteration "
                       f"({total} iterations over 5 seeds, "
                       f"{violations} violations)")

    def test_criterion_06_reconstruction_identities(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(8, 51))
            r = int(rng.integers(1, 7))
            V = np.linalg.qr(rng.standard_normal((n, r)))[0]
            W = np.linalg.qr(rng.standard_normal((n, r)))[0]
            R_B = 1e-3 * rng.standard_normal((n, r))
            R_C = 1e-3 * rng.standard_normal((n, r))
            R_B -= W @ np.linalg.solve(W.T @ W, W.T @ R_B)
            R_C -= V @ np.linalg.solve(V.T @ V, V.T @ R_C)
            F = construct_perturbation(V, W, R_B, R_C).assemble()
            scale = max(np.linalg.norm(R_B), np.linalg.norm(R_C), 1e-300)
            worst = max(worst,
                        np.linalg.norm(F @ V - R_B) / scale,
                        np.linalg.norm(W.T @ F - R_C.T) / scale)
        ok = worst <= 1e-10
        assert _report(6, ok,
                       f"the constructed perturbation reproduces both "
                       f"residuals on 20 manufactured instances "
                       f"(worst rel defect {worst:.2e}, tol 1e-10)")

    def test_criterion_07_tolerance_controls_accuracy(self):
        finals = {}
        for tol in (1e-2, 1e-8):
            errs = []
            for res in _flow_bicg_runs(tol):
                e = res.history[-1].reference_error
                if e is not None and np.isfinite(e):
                    errs.append(e ** 2)
            finals[tol] = float(np.median(errs))
        ratio = finals[1e-2] / max(finals[1e-8], 1e-300)
        ok = ratio >= 1e3
        assert _report(7, ok,
                       f"tightening the inner tolerance from 1e-2 to 1e-8 "
                       f"drops the median squared deviation from the exact "
                       f"step by {ratio:.1e}x (required >= 1e3)")

    def test_criterion_08_oblique_factor_bands(self):
        vals = {}
        for r, band in ((6, (2.40, 2.51)), (4, (1.95, 2.06))):
            got = []
            for seed in range(5):
                cfg = BirkaConfig(r=r, btol=1e-6, max_outer=60, seed=seed,
                                  capture_bases=True)
                res = run_birka(_heat(), cfg)
                rep = analyze_iteration(_heat(), res.history[-1],
                                        compute_fhh=False)
                got.append(rep.wtv_inv_wt_frob)
            vals[r] = (got, band)
        ok = all(band[0] <= v <= band[1]
                 for got, band in vals.values() for v in got)
        summary = "; ".join(
            f"r={r}: [{min(g):.4f}, {max(g):.4f}] in [{b[0]}, {b[1]}]"
            for r, (g, b) in vals.items())
        assert _report(8, ok,
                       f"converged oblique-factor norms fall in the "
                       f"reference bands over 5 seeds ({summary})")

    def test_criterion_09_fixed_point_rerun(self):
        results = {}
        for name, sys, r in (("heat", _heat(), 6), ("flow", _flow(), 6)):
            cfg = BirkaConfig(r=r, btol=1e-6, max_outer=100, seed=0)
            res = run_birka(sys, cfg)
            rerun = run_birka(sys, cfg, guess=res.reduced)
            results[name] = (res.converged, rerun.converged, rerun.iterations)
        ok = all(c and rc and it == 1
                 for c, rc, it in results.values())
        assert _report(9, ok,
                       f"restarting from a converged reduced model "
                       f"terminates in one iteration (heat: "
                       f"{results['heat'][2]}, flow: {results['flow'][2]})")

    def test_criterion_10_lifted_perturbation_norm(self):
        worst_excess = 0.0
        checked = 0
        sources = ([( _heat(), _heat_bicg_runs()[0])]
                   + [(_flow(), _flow_bicg_runs(1e-2)[0])])
        for sys, res in sources:
            for rec in res.history:
                F = construct_perturbation(rec.V_r, rec.W_r,
                                           rec.R_B_orth, rec.R_C_orth)
                val = fhh_norm(F)
                checked += 1
                excess = val - 2 * F.norm_2
                worst_excess = max(worst_excess,
                                   excess / max(2 * F.norm_2, 1e-300))
        scalar = fhh_norm(np.array([[1.0]]))
        scalar_ok = abs(scalar - 2.0) <= 1e-12
        ok = worst_excess <= 1e-6 and scalar_ok and checked > 0
        assert _report(10, ok,
                       f"lifted perturbation norm never exceeds twice the "
                       f"drift perturbation norm across {checked} recorded "
                       f"iterations (worst rel excess {worst_excess:.2e}) "
                       f"and equals it exactly in the scalar case "
                       f"({scalar:.15f})")

    def test_criterion_11_bicg_reliability(self):
        total = 0
        hit = 0
        for tol in (1e-2, 1e-8):
            for res in _flow_bicg_runs(tol):
                for rec in res.history:
                    for rep in (rec.report_primal, rec.report_dual):
                        total += 1
                        if rep.converged:
                            hit += 1
        frac = hit / total

        # independent residual check against the assembled matrix
        rng = np.random.default_rng(3)
        sys = _flow()
        r = 4
        lam = -np.sort(rng.uniform(0.5, 5.0, r)).astype(complex)
        NC = [0.1 * rng.standard_normal((r, r))]
        op = KroneckerOperator(lam, NC, sys)
        b = rng.standard_normal(op.shape[0])
        c = rng.standard_normal(op.shape[0])
        rep_p, rep_d = bicg_dual_solve(op, b, c, tol=1e-10)
        M = op.assemble()
        res_p = np.linalg.norm(vec(rep_p.residual)
                               - (b - M @ vec(rep_p.solution)))
        res_d = np.linalg.norm(vec(rep_d.residual)
                               - (c - M.T @ vec(rep_d.solution)))
        scale = max(np.linalg.norm(b), np.linalg.norm(c))
        recomp = max(res_p, res_d) / scale
        ok = frac >= 0.95 and recomp <= 1e-12
        assert _report(11, ok,
                       f"{frac:.1%} of {total} inner solves reached their "
                       f"tolerance (required >= 95%) and the stored "
                       f"residuals match the assembled operator to "
                       f"{recomp:.2e} (tol 1e-12)")
