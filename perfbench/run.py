"""Outside-in benchmark of birka: one workload per process, closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reduce-direct --seed 0 --seconds 40 --trace 0

One caller runs passes of the workload back to back until the next pass
would end after ``--seconds``.  Every pass runs the same cases on its own
BIRKA seed, drawn from ``--seed`` (see ``pass_seed``), so a run's medians
average over seeds as well as over passes.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the passes alternate untraced and traced, all on the first
pass's seed so that their counts repeat exactly, and the metrics are the
per-layer ones (medians over traced passes) together with the tracing
overhead.  Lines before the last one are a readable report that
starts with ``#``.  BLAS threads are pinned to 1.
"""

import os

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402  (thread pins must precede the numpy import)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from predictions import CHECKS, LAYER_ROLES  # noqa: E402
from spans import LAYERS, WARNING_CLASSES, Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

SETUP_PROBES = 7
MIN_PASSES = 2            # of each kind: untraced, and traced in a traced run
SEEDS_PER_RUN = 1000

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "outer_iterations": "count",
}


def import_birka():
    import birka
    import birka.cli  # noqa: F401
    return birka


def setup_probe(workload):
    """Time a fresh import of birka plus building the workload's models."""
    t0 = time.perf_counter()
    birka = import_birka()
    WORKLOADS[workload].setup(birka)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def machine_record():
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def pass_seed(seed, index):
    """BIRKA seed of pass ``index`` of a run with ``--seed seed``.

    Pass 0 uses ``seed * SEEDS_PER_RUN``, so ``--seed 0`` starts from the
    seed the references were recorded with.  A few seeds cost a pass far
    more than the rest: about one in twenty drives the BiCG flow N=30
    reduction into a near-singular sieve operator where both sides run to
    maxit, and on some the CLI reduce's fhh_norm power iterations run to
    their cap.  Varying the seed across passes keeps one seed from setting
    a run's median.
    """
    return seed * SEEDS_PER_RUN + index % SEEDS_PER_RUN


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def layer_metrics(tr, wall, cpu):
    """Per-layer metrics of one traced pass."""
    t, n, c = tr.total, tr.calls, tr.counters
    lu, op = "linalg.SparseLU.", "solvers.KroneckerOperator."
    m = {
        "models.build_s": t["models.build_flow_model"] + t["models.build_heat_model"],
        "linalg.eig_dense.calls": n["linalg.eig_dense"],
        "linalg.eig_dense.s": t["linalg.eig_dense"],
        "linalg.SparseLU.factorizations": n[lu + "__init__"],
        "linalg.SparseLU.factor_s": t[lu + "__init__"],
        "linalg.SparseLU.max_dim": c["lu.max_dim"],
        "linalg.SparseLU.nnz_lu": c["lu.nnz"],
        "linalg.SparseLU.solves": n[lu + "solve"] + n[lu + "solve_transpose"],
        "linalg.SparseLU.solve_s": t[lu + "solve"] + t[lu + "solve_transpose"],
        "linalg.power.applies": c["power.applies"],
        "linalg.power.s": (t["linalg.operator_two_norm"] + t["linalg._power_two_norm"]
                           + t["linalg.smallest_singular_value"]),
        "solvers.direct_solve.calls": n["solvers.direct_solve"],
        "solvers.direct_solve.s": t["solvers.direct_solve"],
        "solvers.bicg_dual_solve.calls": n["solvers.bicg_dual_solve"],
        "solvers.bicg_dual_solve.s": t["solvers.bicg_dual_solve"],
        "solvers.bicg.iterations": c["bicg.iterations"],
        "solvers.bicg.restarts": c["bicg.restarts"],
        "solvers.bicg.converged_ratio": (c["bicg.sides_converged"] / c["bicg.sides"]
                                         if c["bicg.sides"] else 0.0),
        "solvers.bicg.stagnated": c["bicg.stagnated"],
        "solvers.op.apply.calls": n[op + "apply"],
        "solvers.op.apply.s": t[op + "apply"],
        "solvers.op.apply_transpose.calls": n[op + "apply_transpose"],
        "solvers.op.apply_transpose.s": t[op + "apply_transpose"],
        "solvers.build_ilut.calls": n["solvers.build_ilut"],
        "solvers.build_ilut.s": t["solvers.build_ilut"],
        "reduction.run_birka.s": t["reduction.run_birka"],
        "reduction.birka_step.calls": n["reduction.birka_step"],
        "reduction.birka_step.self_s": tr.self_s["reduction.birka_step"],
        "reduction.realify.s": t["reduction.realify"],
        "reduction.warnings": sum(v for k, v in c.items() if k.startswith("warnings.")),
        "system.is_stable.s": t["system.BilinearSystem.is_stable"],
        "system.gramian_operator.calls": n["system.gramian_operator"],
        "system.gramian_operator.s": t["system.gramian_operator"],
        "system.h2_norm_kron.calls": n["system.h2_norm_kron"],
        "system.h2_norm_kron.s": t["system.h2_norm_kron"],
        "system.h2_norm_lyap.s": t["system.h2_norm_lyap"],
        "system.lyap.stationary_ratio": (c["lyap.stationary"] / c["lyap.calls"]
                                         if c["lyap.calls"] else 0.0),
        "system.qhat_diagnostics.s": t["system.qhat_diagnostics"],
        "system.h2_error.calls": n["system.h2_error"],
        "system.h2_error.s": t["system.h2_error"],
        "stability.analyze_iteration.calls": n["stability.analyze_iteration"],
        "stability.analyze_iteration.s": t["stability.analyze_iteration"],
        "stability.construct_perturbation.s": t["stability.construct_perturbation"],
        "stability.fhh_norm.calls": n["stability.fhh_norm"],
        "stability.fhh_norm.s": t["stability.fhh_norm"],
        "stability.fhh_norm.applies": c["fhh.applies"],
        "stability.condition_number.s": t["stability.condition_number"],
        "cli.reduce.s": t["cli.cmd_reduce"],
        "cli.stability.s": t["cli.cmd_stability"],
        "cli.h2norm.s": t["cli.cmd_h2norm"],
        "cli.write_s": (t["reduction.BirkaResult.save"] + t["stability.stability_csv"]
                        + t["cli._write_json"]),
        "process.cpu_s": cpu,
        "trace.wall_s": wall,
    }
    for name, _ in WARNING_CLASSES + (("other", None),):
        m[f"reduction.warnings.{name}"] = c["warnings." + name]
    covered = 0.0
    for layer in LAYERS:
        self_s = sum(v for k, v in tr.self_s.items() if k.startswith(layer + "."))
        covered += self_s
        m[f"self_share.{layer}"] = self_s / wall
    m["self_share.harness"] = max(wall - covered, 0.0) / wall
    return m


def converged_fraction(ops):
    reductions = [op for op in ops if op.converged is not None]
    return sum(op.converged for op in reductions) / len(reductions) if reductions else 0.0


class Runner:
    def __init__(self, name, seed, seconds, birka, outdir):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.workload = WORKLOADS[name]
        self.birka, self.outdir = birka, outdir
        self.ref = load_reference()
        t0 = time.perf_counter()
        self.models = self.workload.setup(birka)
        self.setup_build_s = time.perf_counter() - t0
        self.ops = []

    def one_pass(self, seed, tracer=None):
        if tracer is not None:
            tracer.reset()
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                ops = self.workload.run_pass(self.birka, self.models, seed,
                                             self.outdir, self.ref)
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer is not None:
                tracer.uninstall()
        self.ops.extend(ops)
        for op in ops:
            if op.problems:
                more = len(op.problems) - 1
                print(f"# FAILED {op.name}: {op.problems[0]}"
                      + (f" (and {more} more problems)" if more else ""))
        return wall, cpu, ops

    def loop(self, traced):
        """Closed loop; in a traced run, even passes are untraced, odd traced."""
        plain, layered, sweeps = [], [], []
        tracer = Tracer() if traced else None
        start = time.perf_counter()
        while True:
            use_tracer = traced and len(plain) > len(layered)
            seed = pass_seed(self.seed, 0 if traced else len(plain))
            wall, cpu, ops = self.one_pass(seed, tracer if use_tracer else None)
            sweeps.append(sum(op.sweeps for op in ops))
            if use_tracer:
                layered.append(layer_metrics(tracer, wall, cpu))
            else:
                plain.append(wall)
            print(f"# pass {len(plain) + len(layered)}{' traced' if use_tracer else ''} "
                  f"(seed {seed}): {wall:.3f} s wall, {cpu:.3f} s cpu, "
                  f"{sweeps[-1]} sweeps to converge")
            elapsed = time.perf_counter() - start
            done = len(plain) >= MIN_PASSES and (not traced or len(layered) >= MIN_PASSES)
            walls = plain + [m["trace.wall_s"] for m in layered]
            if done and elapsed + statistics.median(walls) > self.seconds:
                return plain, layered, sweeps

    def failed(self):
        return sum(not op.ok for op in self.ops)

    def end_to_end(self):
        plain, _, sweeps = self.loop(traced=False)
        setup = measure_setup(self.name)
        q1, q3 = quartiles(plain)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "outer_iterations": statistics.mean(sweeps),
        }
        h2_rel = [op.h2_error_rel for op in self.ops if op.h2_error_rel is not None]
        print(f"# wall_s median {metrics['wall_s']:.4f} s, q1 {q1:.4f} s, q3 {q3:.4f} s, "
              f"{len(plain)} samples; setup_s samples "
              + ", ".join(f"{s:.4f}" for s in setup))
        print(f"# outer_iterations per pass {sweeps}")
        for name, value in metrics.items():
            print(f"# {name:20s} {value:.6g} {END_TO_END_UNITS[name]}")
        print(f"# {'converged_fraction':20s} {converged_fraction(self.ops):.6g} ratio")
        print(f"# {'failed_fraction':20s} {self.failed() / len(self.ops):.6g} ratio "
              f"({self.failed()} of {len(self.ops)} operations)")
        print(f"# {'h2_error_rel':20s} "
              + (f"{statistics.median(h2_rel):.6g} ratio" if h2_rel
                 else "n/a (no full-vs-reduced H2 error on this workload)"))
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    def per_layer(self):
        plain, layered, _ = self.loop(traced=True)
        metrics = {k: statistics.median(m[k] for m in layered) for k in layered[0]}
        metrics["models.build_s"] += self.setup_build_s
        counts = ("reduction.birka_step.calls", "solvers.bicg.iterations",
                  "linalg.SparseLU.factorizations", "stability.fhh_norm.applies")
        repeat = all(len({m[k] for m in layered}) == 1 for k in counts)
        untraced = statistics.median(plain)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced
        h2_rel = [op.h2_error_rel for op in self.ops if op.h2_error_rel is not None]
        metrics["cli.reduce.h2_error_rel"] = statistics.median(h2_rel) if h2_rel else 0.0
        metrics["reduction.converged_fraction"] = converged_fraction(self.ops)
        print(f"# tracing overhead {metrics['trace.overhead_s']:.4f} s per pass "
              f"({100 * metrics['trace.overhead_share']:.1f}% of {untraced:.4f} s untraced)")
        print(f"# counts over traced passes {'repeat exactly' if repeat else 'DIFFER'}: "
              + ", ".join(f"{k}={metrics[k]:g}" for k in counts))
        print(f"# {'layer':10s} {'self share':>10s}  prediction")
        for layer in LAYERS:
            print(f"# {layer:10s} {metrics['self_share.' + layer]:10.3f}  "
                  f"{LAYER_ROLES[self.name][layer]}")
        print(f"# {'harness':10s} {metrics['self_share.harness']:10.3f}  "
              "untraced remainder (benchmark checks, uninstrumented code)")
        for text, check in CHECKS[self.name]:
            print(f"# prediction {'holds' if check(metrics) else 'MISSED'}: {text}")
        for name in sorted(metrics):
            print(f"# {name} = {metrics[name]:.6g}")
        return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if any(word in name for word in ("share", "ratio", "fraction", "_rel")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    birka = import_birka()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(machine_record(), sort_keys=True))
    outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(args.workload, args.seed, args.seconds, birka, outdir)
        metrics = runner.per_layer() if args.trace else runner.end_to_end()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    failed = runner.failed()
    print(json.dumps({"correct": failed == 0, "attempted": len(runner.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
