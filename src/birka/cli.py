"""Command-line front end.

Subcommands::

    birka reduce        one reduction run with full diagnostics
    birka experiment    tolerance/seed sweeps with figure- and table-data CSVs
    birka h2norm        H2 norm of a model by either or both routes
    birka stability     invertibility diagnostics and condition number
    birka model-export  write a benchmark model in the directory format

Models are addressed as ``--model heat --K 10``, ``--model flow --N 10
[--L 1 --nu 0.1]``, or ``--model file --path DIR`` for a previously
exported system.  Outputs land under ``--out`` (default: the
``BIRKA_OUTPUT_ROOT`` environment variable, falling back to the current
directory).  Exit codes: 0 success, 1 invalid usage/configuration,
2 numerical failure.
"""

import argparse
import csv
import json
import os
import sys as _sys
import warnings
from collections import Counter

import numpy as np
import scipy.sparse.linalg as spsla

from .linalg import ConvergenceError
from .models import (FlowModelParams, HeatModelParams, build_flow_model,
                     build_heat_model)
from .reduction import (BirkaConfig, initialize_guess, run_birka,
                        sieve_operator)
from .stability import analyze_iteration, condition_number, stability_csv
from .system import (BilinearSystem, h2_error, h2_norm_kron, h2_norm_lyap,
                     qhat_diagnostics)


def _output_root():
    return os.environ.get("BIRKA_OUTPUT_ROOT", ".")


def _add_model_args(parser):
    parser.add_argument("--model", required=True,
                        choices=["heat", "flow", "file"])
    parser.add_argument("--K", type=int, help="heat grid points per side")
    parser.add_argument("--N", type=int, help="flow interior grid points")
    parser.add_argument("--L", type=float, default=1.0, help="flow domain length")
    parser.add_argument("--nu", type=float, default=0.1, help="flow viscosity")
    parser.add_argument("--path", help="system directory for --model file")


def _build_model(args):
    if args.model == "heat":
        if args.K is None:
            raise ValueError("--model heat requires --K")
        return build_heat_model(HeatModelParams(K=args.K))
    if args.model == "flow":
        if args.N is None:
            raise ValueError("--model flow requires --N")
        return build_flow_model(FlowModelParams(N=args.N, L=args.L, nu=args.nu))
    if args.path is None:
        raise ValueError("--model file requires --path")
    return BilinearSystem.load(args.path)


def _birka_config(args, solver, tol, seed, r):
    return BirkaConfig(
        r=r,
        btol=args.btol,
        max_outer=args.max_outer,
        solver_mode=solver,
        bicg_tol=tol,
        bicg_maxit=args.maxit,
        precond_drop_tol=args.drop_tol,
        seed=seed,
        capture_bases=True,
        reference_error=solver == "bicg",
    )


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_reduce(args):
    sys_full = _build_model(args)
    if args.r >= sys_full.n:
        raise ValueError(f"reduced order r={args.r} must be < n={sys_full.n}")
    out = os.path.join(args.out or _output_root(), "reduce")
    os.makedirs(out, exist_ok=True)
    config = _birka_config(args, args.solver, args.tol, args.seed, args.r)
    summary = {"model": sys_full.label, "n": sys_full.n, "r": config.r}
    try:
        result = run_birka(sys_full, config)
        result.save(out)
        reports = [analyze_iteration(sys_full, rec, compute_fhh=args.fhh)
                   for rec in result.history]
        stability_csv(reports, os.path.join(out, "stability.csv"))
        k, factors = condition_number(sys_full, return_factors=True)
        summary.update({
            "converged": result.converged,
            "iterations": result.iterations,
            "solver": config.solver_mode,
            "bicg_tol": config.bicg_tol if config.solver_mode == "bicg" else None,
            "h2_norm": factors["h2_norm"],
            "h2_error": h2_error(sys_full, result.reduced),
            "qinv_norm": factors["qinv_norm"],
            "condition_number": k,
            "final_reference_error": result.history[-1].reference_error,
            "final_f_norm": reports[-1].f_norm2,
        })
    except Exception as exc:
        summary["error"] = str(exc)
        raise
    finally:
        # a failed run keeps the warnings recorded up to its failure
        summary["warnings"] = [
            {"message": msg, "count": count} for msg, count
            in Counter(str(w.message) for w in args.warnings).items()]
        _write_json(os.path.join(out, "summary.json"), summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _six_smallest_eigs(sys_full, guess):
    """Six smallest-magnitude eigenvalues of the assembled sieve operator.

    Shift-invert Arnoldi about 0 (ARPACK ``eigs``, one sparse LU) from a
    fixed start vector, so results repeat; an operator of order at most 7,
    too small for ARPACK's k < order - 1, is read densely.
    """
    M = sieve_operator(sys_full, guess)[0].assemble()
    if M.shape[0] > 7:
        v0 = np.random.default_rng(0).standard_normal(M.shape[0])
        w = spsla.eigs(M.tocsc(), k=6, sigma=0, v0=v0,
                       return_eigenvectors=False)
    else:
        w = np.linalg.eigvals(M.toarray())
    return w[np.argsort(np.abs(w))][:6]


def cmd_experiment(args):
    sys_full = _build_model(args)
    tols = [float(t) for t in args.tols.split(",") if t]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not tols or not seeds:
        raise ValueError("need at least one BiCG tolerance and one seed")
    out = os.path.join(args.out or _output_root(), "experiment")
    os.makedirs(out, exist_ok=True)
    failures = []
    fig1_rows, table1_rows, table2_rows, fig3_rows = [], [], [], []
    for seed in seeds:
        for tol in tols:
            cell = os.path.join(out, f"seed{seed}_tol{tol:g}")
            try:
                config = _birka_config(args, "bicg", tol, seed, args.r)
                result = run_birka(sys_full, config)
                result.save(cell)
                for rec in result.history:
                    fig1_rows.append([seed, tol, rec.iteration,
                                      rec.reference_error])
                    table1_rows.append([seed, tol, rec.iteration,
                                        None if rec.reference_error is None
                                        else rec.reference_error ** 2,
                                        rec.report_primal.iterations])
                    rep = analyze_iteration(sys_full, rec, compute_fhh=False)
                    table2_rows.append([seed, tol, rec.iteration, rep.rb_norm,
                                        rep.rc_norm, rep.wtv_inv_wt_frob,
                                        rep.f_norm2, rep.thm_bound])
                if seed == seeds[0]:
                    guess0 = initialize_guess(seed, args.r, sys_full.m, sys_full.p)
                    for tag, g in (("first", guess0), ("converged", result.reduced)):
                        for idx, lam in enumerate(
                                _six_smallest_eigs(sys_full, g)):
                            fig3_rows.append([seed, tol, tag, idx,
                                              lam.real, lam.imag])
            except (np.linalg.LinAlgError, ConvergenceError, ValueError) as exc:
                failures.append({"seed": seed, "tol": tol, "error": str(exc)})
    _write_rows(os.path.join(out, "fig1.csv"),
                ["seed", "bicg_tol", "iteration", "h2_error_vs_exact_step"],
                fig1_rows)
    _write_rows(os.path.join(out, "table1.csv"),
                ["seed", "bicg_tol", "iteration", "h2_error_squared",
                 "bicg_iterations"], table1_rows)
    _write_rows(os.path.join(out, "table2.csv"),
                ["seed", "bicg_tol", "iteration", "rb_norm", "rc_norm",
                 "wtv_inv_wt_frob", "f_norm2", "thm_bound"], table2_rows)
    _write_rows(os.path.join(out, "fig3.csv"),
                ["seed", "bicg_tol", "stage", "index", "real", "imag"],
                fig3_rows)
    if args.rs:
        rows = []
        for r in (int(x) for x in args.rs.split(",") if x):
            for seed in seeds:
                config = _birka_config(args, "bicg", tols[0], seed, r)
                result = run_birka(sys_full, config)
                rep = analyze_iteration(sys_full, result.history[-1],
                                        compute_fhh=False)
                rows.append([r, seed, rep.wtv_inv_wt_frob])
        _write_rows(os.path.join(out, "table4.csv"),
                    ["r", "seed", "wtv_inv_wt_frob"], rows)
    _write_json(os.path.join(out, "summary.json"),
                {"cells": len(tols) * len(seeds), "failures": failures})
    if failures:
        print(json.dumps(failures, indent=2), file=_sys.stderr)
    print(f"experiment artifacts written to {out}")
    return 0 if not failures else 2


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else
                             (f"{v:.17g}" if isinstance(v, float) else v)
                             for v in row])


def cmd_h2norm(args):
    sys_full = _build_model(args)
    payload = {"model": sys_full.label, "n": sys_full.n}
    if args.method in ("kron", "both"):
        payload["h2_norm_kron"] = h2_norm_kron(sys_full)
    if args.method in ("lyap", "both"):
        payload["h2_norm_lyap"] = h2_norm_lyap(sys_full)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_stability(args):
    sys_full = _build_model(args)
    diag = qhat_diagnostics(sys_full)
    k, factors = condition_number(sys_full, diagnostics=diag,
                                  return_factors=True)
    payload = {
        "model": sys_full.label,
        "qinv_norm": diag.qinv_norm,
        "base_sigma_min": diag.base_sigma_min,
        "base_sigma_max": diag.base_sigma_max,
        "lyapunov_symbol_sigma_min": diag.lyapunov_symbol_sigma_min,
        "condition_number": k,
        "condition_number_factors": factors,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "stability.json"), payload)
    return 0


def cmd_model_export(args):
    sys_full = _build_model(args)
    out = args.out or os.path.join(_output_root(), "model")
    sys_full.save(out)
    print(f"model '{sys_full.label}' written to {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="birka",
        description="H2-optimal reduction of bilinear systems with "
                    "backward-stability diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_red = sub.add_parser("reduce", help="run one reduction")
    _add_model_args(p_red)
    p_red.add_argument("--r", type=int, required=True)
    p_red.add_argument("--btol", type=float, default=1e-6)
    p_red.add_argument("--max-outer", type=int, default=100)
    p_red.add_argument("--solver", choices=["direct", "bicg"], default="direct")
    p_red.add_argument("--tol", type=float, default=1e-8, help="BiCG tolerance")
    p_red.add_argument("--maxit", type=int, default=None)
    p_red.add_argument("--drop-tol", type=float, default=None,
                       help="ILU drop tolerance (enables preconditioning)")
    p_red.add_argument("--seed", type=int, default=0)
    p_red.add_argument("--fhh", action="store_true",
                       help="also compute the lifted perturbation norm per iteration")
    p_red.add_argument("--out", default=None)
    p_red.set_defaults(func=cmd_reduce)

    # no abbreviations: --tol and --seed must not pass for --tols and --seeds
    p_exp = sub.add_parser("experiment", help="tolerance/seed sweep",
                           allow_abbrev=False)
    _add_model_args(p_exp)
    p_exp.add_argument("--r", type=int, required=True)
    p_exp.add_argument("--btol", type=float, default=1e-6)
    p_exp.add_argument("--max-outer", type=int, default=100)
    p_exp.add_argument("--tols", default="1e-2,1e-8",
                       help="comma-separated BiCG tolerances")
    p_exp.add_argument("--seeds", default="0", help="comma-separated seeds")
    p_exp.add_argument("--rs", default=None,
                       help="comma-separated reduced orders for the "
                            "sensitivity table")
    p_exp.add_argument("--maxit", type=int, default=None)
    p_exp.add_argument("--drop-tol", type=float, default=None)
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_experiment)

    p_h2 = sub.add_parser("h2norm", help="H2 norm of a model")
    _add_model_args(p_h2)
    p_h2.add_argument("--method", choices=["kron", "lyap", "both"],
                      default="both")
    p_h2.set_defaults(func=cmd_h2norm)

    p_st = sub.add_parser("stability", help="diagnostics and condition number")
    _add_model_args(p_st)
    p_st.add_argument("--out", default=None)
    p_st.set_defaults(func=cmd_stability)

    p_me = sub.add_parser("model-export", help="write a model directory")
    _add_model_args(p_me)
    p_me.add_argument("--out", default=None)
    p_me.set_defaults(func=cmd_model_export)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        # warnings are recorded, not printed; reduce writes them to its summary
        with warnings.catch_warnings(record=True) as args.warnings:
            warnings.simplefilter("always")
            return args.func(args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(json.dumps({"error": str(exc), "kind": "numerical"}),
              file=_sys.stderr)
        return 2
    except ValueError as exc:
        print(json.dumps({"error": str(exc), "kind": "validation"}),
              file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
