"""The benchmark's workloads: what one pass runs and how its outputs are checked.

Every workload is a closed loop of identical passes with one caller, and
every pass uses the benchmark seed as the BIRKA seed, so each pass does the
same work and its counts repeat exactly.  An operation is one reduction or
one CLI command; it fails if it raises, exits non-zero or fails a check.
"""

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

R = 6
# Every reduction runs a fixed budget of sweeps, so a pass does the same
# amount of work whatever the seed: the outer tolerance is one no sweep
# meets, and a reduction counts as converged at the first sweep whose
# relative eigenvalue change is below BTOL (``BirkaConfig``'s default).
# Run to convergence, flow N=30 takes 19-32 sweeps over seeds 0-45, so a
# pass's time followed the seed; heat never converges within its budget.
BTOL = 1e-6
NEVER_BTOL = 1e-300
FLOW_SWEEPS = 40
# Largest relative distance of a converged flow N=30 eigenvalue from the
# recorded one.  Both the direct and the BiCG 1e-6 runs must meet it, so
# the two agree with each other to twice this.  Seeds 0-45 land within
# 9e-6 with direct solves.
SPECTRUM_TOL = 1e-4
H2_REF_TOL = 1e-9        # h2_norm against the value recorded at the seed commit
H2_ROUTES_TOL = 1e-8     # h2norm kron against lyap
FHH_SLACK = 1e-6         # fhh_norm <= 2 f_norm2 (1 + FHH_SLACK)
CLI_REDUCE_N = 3
# The CLI reduce runs BiCG at 1e-2 with at most CLI_REDUCE_SWEEPS sweeps;
# at N=3 it converges after 7-9.  Its cost follows the seed through single
# fhh_norm power iterations in early sweeps, which run up to their cap of
# 20000 steps.  Over 24 seeds the command took 0.3-0.5 s on 23 and 2.0 s on
# one at N=3.  At N=4, 5 and 6 (where the outer iteration settles into a
# two-cycle and runs all 40 sweeps) a fifth to a quarter of the seeds hit
# the cap or came near it, and took 3-5x (N=4, N=5) or 5-8x (N=6) as long
# as the rest, so the median of a run's passes moved with the seeds it drew.
CLI_REDUCE_SWEEPS = 40
# The Gramian commands run at flow N=8 (n^2 = 5184): stability took 2.4 s
# and h2norm 1.0 s, against 7.0 s and 2.9 s at N=9, so a run holds enough
# passes for a steady median.
CLI_GRAMIAN_N = 8

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


@dataclass
class Op:
    """Outcome of one operation."""

    name: str
    problems: list
    sweeps: int = 0           # sweeps until converged, or the whole budget
    converged: bool = None
    h2_error_rel: float = None

    @property
    def ok(self):
        return not self.problems


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def sorted_spectrum(A):
    w = np.linalg.eigvals(np.asarray(A))
    return w[np.lexsort((w.imag, w.real))]


def check_reduced(reduced, full):
    """Finite matrices of order r with the full model's channel counts."""
    A, N, B, C = reduced.dense()
    shapes = [A.shape == (R, R), B.shape == (R, full.m), C.shape == (full.p, R),
              len(N) == full.m and all(Nk.shape == (R, R) for Nk in N)]
    problems = [] if all(shapes) else ["reduced model has wrong shapes"]
    if not all(np.all(np.isfinite(M)) for M in [A, B, C, *N]):
        problems.append("reduced model has non-finite entries")
    return problems


def sweeps_to_converge(result):
    """First sweep whose relative eigenvalue change is below BTOL, or None."""
    return next((rec.iteration for rec in result.history
                 if rec.relative_change < BTOL), None)


def check_spectrum(result, converged_at, ref):
    if converged_at is None:
        return ["flow N=30 did not converge, spectra not comparable"]
    got = sorted_spectrum(result.reduced.A.toarray())
    want = np.array([complex(re, im) for re, im in ref])
    dist = float(np.max(np.abs(got - want) / np.abs(want)))
    return [] if dist <= SPECTRUM_TOL else [
        f"flow N=30 spectrum off by {dist:.2e} (tol {SPECTRUM_TOL:g})"]


class ReduceWorkload:
    """Reductions through the public API, one ``run_birka`` per case.

    A case's config holds ``max_outer``, its budget of sweeps.
    """

    def __init__(self, cases):
        self.cases = cases

    def setup(self, birka):
        models = {}
        for _, key, _ in self.cases:
            if key not in models:
                kind, size = key
                models[key] = (birka.build_flow_model(birka.FlowModelParams(N=size))
                               if kind == "flow" else
                               birka.build_heat_model(birka.HeatModelParams(K=size)))
        return models

    def run_pass(self, birka, models, seed, outdir, ref):
        ops = []
        for label, key, config in self.cases:
            try:
                cfg = birka.BirkaConfig(**{"r": R, **config, "btol": NEVER_BTOL,
                                           "seed": seed})
                result = birka.run_birka(models[key], cfg)
            except Exception as exc:  # counted as a failed operation
                ops.append(Op(label, [f"{type(exc).__name__}: {exc}"]))
                continue
            converged_at = sweeps_to_converge(result)
            problems = check_reduced(result.reduced, models[key])
            if key == ("flow", 30):
                problems += check_spectrum(result, converged_at, ref["flow30_r6_spectrum"])
            ops.append(Op(label, problems, converged_at or result.iterations,
                          converged_at is not None))
        return ops


def check_h2(op, h2, ref, n):
    want = ref[f"flow{n}_h2_norm"]
    if rel(h2, want) > H2_REF_TOL:
        op.problems.append(f"h2_norm {h2!r} differs from reference {want!r}")


def check_cli_reduce(op, out_dir, ref):
    with open(os.path.join(out_dir, "reduce", "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "reduce", "stability.csv")) as fh:
        rows = list(csv.DictReader(fh))
    h2 = summary["h2_norm"]
    check_h2(op, h2, ref, CLI_REDUCE_N)
    if not rows:
        op.problems.append("stability.csv has no rows")
    for row in rows:
        fhh, f2 = float(row["fhh_norm"]), float(row["f_norm2"])
        if not fhh <= 2.0 * f2 * (1.0 + FHH_SLACK):
            op.problems.append(f"iteration {row['iteration']}: fhh_norm "
                               f"{fhh:.6e} > 2 f_norm2 {2 * f2:.6e}")
    err = summary["h2_error"] / h2
    if not (math.isfinite(err) and err > 0):
        op.problems.append(f"h2_error/h2_norm = {err!r} is not a positive number")
    op.sweeps, op.converged, op.h2_error_rel = (summary["iterations"],
                                                summary["converged"], err)


def check_cli_stability(op, stdout, ref):
    payload = json.loads(stdout)
    check_h2(op, payload["condition_number_factors"]["h2_norm"], ref, CLI_GRAMIAN_N)
    k = payload["condition_number"]
    if not (math.isfinite(k) and k > 0):
        op.problems.append(f"condition number {k!r} is not a positive number")


def check_cli_h2norm(op, stdout, ref):
    payload = json.loads(stdout)
    kron, lyap = payload["h2_norm_kron"], payload["h2_norm_lyap"]
    if rel(lyap, kron) > H2_ROUTES_TOL:
        op.problems.append(f"kron {kron!r} and lyap {lyap!r} disagree")
    check_h2(op, kron, ref, CLI_GRAMIAN_N)


def run_command(birka, name, argv, check):
    """One in-process CLI command, its exit code and its checked outputs."""
    out, err = io.StringIO(), io.StringIO()
    op = Op(name, [])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = birka.cli.main(argv)
        if code != 0:
            op.problems.append(f"exit code {code}: {err.getvalue().strip()[:200]}")
        else:
            check(op, out.getvalue())
    except Exception as exc:  # counted as a failed operation
        op.problems.append(f"{type(exc).__name__}: {exc}")
    return op


class CliWorkload:
    """In-process ``birka.cli.main`` commands on the flow model."""

    def setup(self, birka):
        # The commands build their own models; building them here makes
        # set-up time cover the same work as on the other workloads.
        return {n: birka.build_flow_model(birka.FlowModelParams(N=n))
                for n in (CLI_REDUCE_N, CLI_GRAMIAN_N)}

    def run_pass(self, birka, models, seed, outdir, ref):
        reduce_out = os.path.join(outdir, "reduce-out")
        flow = ["--model", "flow", "--N"]
        commands = [
            ("cli reduce",
             ["reduce", *flow, str(CLI_REDUCE_N), "--r", str(R), "--solver", "bicg",
              "--tol", "1e-2", "--max-outer", str(CLI_REDUCE_SWEEPS), "--fhh",
              "--seed", str(seed), "--out", reduce_out],
             lambda op, out: check_cli_reduce(op, reduce_out, ref)),
            ("cli stability",
             ["stability", *flow, str(CLI_GRAMIAN_N),
              "--out", os.path.join(outdir, "stability-out")],
             lambda op, out: check_cli_stability(op, out, ref)),
            ("cli h2norm",
             ["h2norm", *flow, str(CLI_GRAMIAN_N), "--method", "both"],
             lambda op, out: check_cli_h2norm(op, out, ref)),
        ]
        return [run_command(birka, *command) for command in commands]


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "reduce-direct": ReduceWorkload([
        ("flow N=30 direct", ("flow", 30),
         {"solver_mode": "direct", "max_outer": FLOW_SWEEPS}),
        ("heat K=30 direct", ("heat", 30), {"solver_mode": "direct", "max_outer": 30}),
    ]),
    "reduce-bicg": ReduceWorkload([
        ("flow N=30 bicg 1e-6", ("flow", 30),
         {"solver_mode": "bicg", "bicg_tol": 1e-6, "max_outer": FLOW_SWEEPS}),
        # Run to convergence, the ILUT case converged after 27-48 sweeps on
        # 3 of 26 seeds and ran all 60 on the rest; within 20 it never does.
        ("heat K=20 bicg 1e-6 ilut 1e-3", ("heat", 20),
         {"solver_mode": "bicg", "bicg_tol": 1e-6, "precond_drop_tol": 1e-3,
          "max_outer": 20}),
        # Unpreconditioned heat K=20 is capped at three sweeps: over 60
        # sweeps its BiCG total ranges 3.9k-28k across seeds 0-7, because
        # the non-converging outer iteration wanders into near-singular
        # sieve operators at seed-dependent sweeps.
        ("heat K=20 bicg 1e-6 3 sweeps", ("heat", 20),
         {"solver_mode": "bicg", "bicg_tol": 1e-6, "max_outer": 3}),
    ]),
    "cli-diagnose": CliWorkload(),
}
