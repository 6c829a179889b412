"""Spans and counters recorded around birka's public functions, from outside.

``Tracer.install`` replaces each traced function in every ``birka`` module
that binds it, so a call cannot escape the trace by going through an
imported name (``birka.cli.run_birka`` and ``birka.reduction.run_birka`` are
the same object and are both replaced).  Methods are replaced on their
class.  ``Tracer.uninstall`` puts every original back.

Spans nest through a stack.  A span's self time is its duration minus the
time its traced children cover.  Spans are aggregated per name in memory
(calls, total seconds, self seconds), because the sieve operator's applies
alone make tens of thousands of spans per pass.
"""

import functools
import inspect
import sys
import time
import warnings
from collections import defaultdict

LAYERS = ("models", "linalg", "solvers", "reduction", "system", "stability", "cli")

# Private names that carry work a public metric needs.
_EXTRA = {
    "linalg": ("_power_two_norm",),
    "cli": ("_write_json",),
}
# Constructors that do the work of their class.
_CONSTRUCTORS = {
    "linalg": ("SparseLU",),
    "solvers": ("KroneckerOperator",),
    "stability": ("PerturbationF",),
}
# Power iterations whose first two arguments are operator applies.
_POWER = {"linalg._power_two_norm", "linalg.operator_two_norm",
          "linalg.smallest_singular_value"}

WARNING_CLASSES = (
    ("bicg_maxit", "BiCG hit maxit"),
    ("unstable_reduced", "unstable eigenvalues"),
    ("unstable_sieve", "nonnegative real part"),
    ("unstable_full", "full model is not stable"),
    ("defective", "nearly defective"),
    ("rank_drop", "rank"),
    ("unpaired", "unpaired complex column"),
    ("reference_error", "reference error undefined"),
)


def warning_class(message):
    text = str(message)
    for name, needle in WARNING_CLASSES:
        if needle in text:
            return name
    return "other"


class _WarningsProxy:
    """Stands in for the ``warnings`` module inside birka and counts warns."""

    def __init__(self, tracer):
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        self._tracer.counters["warnings." + warning_class(message)] += 1
        warnings.warn(message, category, stacklevel=stacklevel + 1, **kwargs)

    def __getattr__(self, name):
        return getattr(warnings, name)


class Tracer:
    def __init__(self):
        self._stack = []
        self._patches = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)

    def _count_applies(self, fn):
        """Count a power iteration's operator applies.

        Applies passed in from outside linalg (the lifted operator of
        ``fhh_norm``) become spans of their caller, so that their time is
        not booked as linalg self time.
        """
        caller = self._stack[-1][0] if self._stack else ""
        if caller and not caller.startswith("linalg."):
            fn = self.wrap(caller + ".apply", fn)

        def counted(*args, **kwargs):
            self.counters["power.applies"] += 1
            if caller == "stability.fhh_norm":
                self.counters["fhh.applies"] += 1
            return fn(*args, **kwargs)
        return counted

    def _after(self, name, args, result):
        """Counters read from arguments and results at the layer boundary."""
        c = self.counters
        if name == "linalg.SparseLU.__init__":
            lu = args[0]
            c["lu.max_dim"] = max(c["lu.max_dim"], lu.shape[0])
            c["lu.nnz"] = max(c["lu.nnz"], lu._lu.nnz)
        elif name == "solvers.bicg_dual_solve":
            rep_p, rep_d = result
            c["bicg.iterations"] += rep_p.iterations
            c["bicg.restarts"] += rep_p.restarts
            c["bicg.sides"] += 2
            c["bicg.sides_converged"] += int(rep_p.converged) + int(rep_d.converged)
            c["bicg.stagnated"] += int(rep_p.stagnated)
        elif name == "system.solve_generalized_lyapunov":
            c["lyap.calls"] += 1
            c["lyap.stationary"] += int(result[1] == "stationary")

    def wrap(self, name, fn):
        power = name in _POWER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if power:
                args = (self._count_applies(args[0]),
                        self._count_applies(args[1])) + tuple(args[2:])
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_s[name] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
            self._after(name, args, result)
            return result
        return traced

    def _targets(self):
        """(span name, owner, attribute) for every traced callable."""
        for layer in LAYERS:
            mod = sys.modules["birka." + layer]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_")
                                                or attr in _EXTRA.get(layer, ())):
                    yield f"{layer}.{attr}", mod, attr
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                                not meth.startswith("_")
                                or (meth == "__init__"
                                    and attr in _CONSTRUCTORS.get(layer, ()))):
                            yield f"{layer}.{attr}.{meth}", obj, meth

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        birka_modules = [m for n, m in list(sys.modules.items())
                         if m is not None and (n == "birka" or n.startswith("birka."))]
        for name, owner, attr in list(self._targets()):
            orig = vars(owner)[attr]
            traced = self.wrap(name, orig)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, traced)
                continue
            for mod in birka_modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, traced)
        proxy = _WarningsProxy(self)
        for mod in birka_modules:
            if vars(mod).get("warnings") is warnings:
                self._patches.append((mod, "warnings", warnings))
                mod.warnings = proxy

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
