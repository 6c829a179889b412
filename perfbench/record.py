"""Record the benchmark's reference values and its baseline.

Run from the root of a checkout::

    python3 perfbench/record.py reference   # writes perfbench/reference.json
    python3 perfbench/record.py baseline    # writes perfbench/baseline.json

``reference`` computes the values the correctness checks compare against:
the flow N=30, r=6 reduced spectrum (direct solves, seed 0) and the H2
norms of the flow models the CLI workload uses.  ``baseline`` runs every
workload untraced at seed 0 and traced at seeds 0 and 1, and stores each
run's readable report and result line.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def record_reference():
    sys.path.insert(0, HERE)
    import warnings

    import run  # pins BLAS threads and puts src/ on the path
    from workloads import CLI_GRAMIAN_N, CLI_REDUCE_N, FLOW_SWEEPS, R, sorted_spectrum

    birka = run.import_birka()

    flow30 = birka.build_flow_model(birka.FlowModelParams(N=30))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = birka.run_birka(flow30, birka.BirkaConfig(
            r=R, max_outer=FLOW_SWEEPS, solver_mode="direct", seed=0))
    if not result.converged:
        raise SystemExit("flow N=30 reference reduction did not converge")
    ref = {"flow30_r6_spectrum": [[w.real, w.imag] for w in
                                  sorted_spectrum(result.reduced.A.toarray())]}
    for n in (CLI_REDUCE_N, CLI_GRAMIAN_N):
        ref[f"flow{n}_h2_norm"] = birka.h2_norm_kron(
            birka.build_flow_model(birka.FlowModelParams(N=n)))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


def record_baseline(seconds):
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    runs = []
    for workload in ("reduce-direct", "reduce-bicg", "cli-diagnose"):
        for seed, trace in ((0, 0), (0, 1), (1, 1)):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            runs.append({"workload": workload, "seed": seed, "trace": trace,
                         "report": lines[:-1], "result": json.loads(lines[-1])})
            print(workload, seed, trace, "done", flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump({"commit": commit or "unknown", "seconds": seconds, "runs": runs},
                  fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["reference"]:
        record_reference()
    elif sys.argv[1:2] == ["baseline"]:
        record_baseline(int(sys.argv[2]) if len(sys.argv) > 2 else 40)
    else:
        raise SystemExit(__doc__)
