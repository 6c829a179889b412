"""Which layer should carry each workload's time, written before measuring.

The traced run prints each layer's self-time share next to ``LAYER_ROLES``
and evaluates ``CHECKS`` on the per-layer metrics of one traced pass.
"""

LAYER_ROLES = {
    "reduce-direct": {
        "models": "zero per pass; built once at set-up",
        "linalg": "most: the assembled n*r sieve LU and its solves, plus eig",
        "solvers": "some: assembling the n*r operator for the LU",
        "reduction": "some: realify, QR and the oblique projection",
        "system": "some: dense is_stable() at n~900; no Gramian or H2 work",
        "stability": "zero",
        "cli": "zero",
    },
    "reduce-bicg": {
        "models": "zero per pass; built once at set-up",
        "linalg": "small: eig and norms only, no sparse LU",
        "solvers": "most: matrix-free applies inside BiCG, and ILUT builds",
        "reduction": "some: realify, QR and the oblique projection",
        "system": "some: dense is_stable() at n~900; no Gramian or H2 work",
        "stability": "zero",
        "cli": "zero",
    },
    "cli-diagnose": {
        "models": "small: each command rebuilds its flow model",
        "linalg": "most: n^2=5184 Gramian LUs and inverse iteration",
        "solvers": "small: sieve solves at n=12",
        "reduction": "small",
        "system": "some: Gramian assembly, H2 norms, Lyapunov iteration",
        "stability": "some: fhh_norm power iteration in 7-9 sweeps, F norms",
        "cli": "small: argument parsing and output writing",
    },
}

_GRAMIAN_AND_STABILITY = (
    "system.gramian_operator.s", "system.h2_norm_kron.s", "system.h2_norm_lyap.s",
    "system.qhat_diagnostics.s", "system.h2_error.s",
    "stability.analyze_iteration.s", "stability.construct_perturbation.s",
    "stability.fhh_norm.s", "stability.condition_number.s")


def _zero_gramian_and_stability(m):
    return sum(m[k] for k in _GRAMIAN_AND_STABILITY) == 0


CHECKS = {
    "reduce-direct": [
        ("solvers.bicg.iterations = 0", lambda m: m["solvers.bicg.iterations"] == 0),
        ("Gramian, H2 and stability times = 0", _zero_gramian_and_stability),
        ("one sieve LU per sweep",
         lambda m: m["linalg.SparseLU.factorizations"] == m["reduction.birka_step.calls"]),
    ],
    "reduce-bicg": [
        ("linalg.SparseLU.factorizations = 0",
         lambda m: m["linalg.SparseLU.factorizations"] == 0),
        ("Gramian, H2 and stability times = 0", _zero_gramian_and_stability),
        ("one forward and one transpose apply per BiCG step",
         lambda m: m["solvers.op.apply.calls"] == m["solvers.op.apply_transpose.calls"] > 0),
    ],
    "cli-diagnose": [
        ("Gramian LUs plus fhh_norm > half of wall_s",
         lambda m: (m["linalg.SparseLU.factor_s"] + m["linalg.SparseLU.solve_s"]
                    + m["stability.fhh_norm.s"]) > 0.5 * m["trace.wall_s"]),
        ("h2norm runs the stationary Lyapunov route",
         lambda m: m["system.lyap.stationary_ratio"] == 1.0),
    ],
}
