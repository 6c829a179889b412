"""Scale ladder of the Gramian engine and of the CLI, with BLAS on one thread.

For flow N = 10, 20, 30 this prints one JSON line per size with the
``GramianSolver`` build time, the time of one solve, the wall time of
``birka reduce --r 6`` plus ``birka stability``, and that of
``birka h2norm --method lyap``, each command run as its own process.
For heat K = 10 and 20 it prints the build and solve times only: there
the H2 norm does not exist (rho(L^-1 Pi) >= 1), so reduce and stability
exit with a numerical error.

Run:  python3 demos/scale_ladder.py   (from a checkout, or with birka installed)
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, SRC)

from birka import (FlowModelParams, HeatModelParams, build_flow_model,  # noqa: E402
                   build_heat_model)
from birka.system import GramianSolver  # noqa: E402


def engine_times(sys_full):
    t0 = time.perf_counter()
    solver = GramianSolver(sys_full)
    build = time.perf_counter() - t0
    rhs = np.random.default_rng(0).standard_normal(sys_full.n ** 2)
    t0 = time.perf_counter()
    solver.solve(rhs)
    return solver, build, time.perf_counter() - t0


def cli_wall(*cmds):
    """Wall time of the CLI commands, run one after the other."""
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, BIRKA_OUTPUT_ROOT=out, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        t0 = time.perf_counter()
        for cmd in cmds:
            subprocess.run([sys.executable, "-m", "birka.cli", *cmd],
                           env=env, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0


for model, size, build_model, params in (
        [("flow", N, build_flow_model, FlowModelParams(N=N)) for N in (10, 20, 30)]
        + [("heat", K, build_heat_model, HeatModelParams(K=K)) for K in (10, 20)]):
    sys_full = build_model(params)
    solver, build, solve = engine_times(sys_full)
    line = {"model": model, "size": size, "n": sys_full.n,
            "support": int(solver.support.size),
            "largest_cluster": int(solver.cluster_sizes.max()),
            "cond_X": solver.cond_X, "build_s": round(build, 3),
            "solve_s": round(solve, 4)}
    if model == "flow":
        model_args = ["--model", "flow", "--N", str(size)]
        line["reduce_plus_stability_s"] = round(cli_wall(
            ["reduce", *model_args, "--r", "6"], ["stability", *model_args]), 2)
        line["h2norm_lyap_s"] = round(
            cli_wall(["h2norm", *model_args, "--method", "lyap"]), 2)
    print(json.dumps(line), flush=True)
