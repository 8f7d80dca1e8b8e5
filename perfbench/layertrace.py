"""Per-function call counts and self time, gathered from outside weylkit.

`LayerTrace.install` replaces public functions and methods of the weylkit
modules with timing wrappers.  Every module attribute or class attribute
bound to the original object is replaced, so aliases (`__radd__ =
__add__`) and names bound by `from .x import f` are counted too, and calls
made inside the library reach the wrapper because they look the name up
at call time.  Nothing is stored per call: each wrapped function adds to
one aggregate.  Self time is a call's duration minus the time of the
wrapped calls nested inside it.
"""

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path) for every function the traced run reports.
TARGETS = {
    "linalg": ("mat_inv", "row_reduce", "rank", "in_span", "hnf", "snf_diag",
               "mat_mul", "mat_vec"),
    "lattices": ("enumerate_X_n", "enumerate_isotropic", "enumerate_self_dual",
                 "canonical", "sharp", "is_self_dual_isotropic",
                 "is_lie_closed"),
    "cyclotomic": ("Cyc.__mul__", "Cyc.__add__", "Cyc.promote",
                   "Cyc.conjugate"),
    "laurent": ("LaurentScalar.__mul__", "LaurentScalar.__add__",
                "LaurentScalar.inverse", "mat_mul"),
    "pgl2": ("fixed_point_count", "discriminant_valuation", "iwahori_class",
             "module_generation_check"),
    "reps": ("build_irreducible", "character_norm"),
    "alcove": ("p_J", "torus_stabilizer"),
    "witt": ("WittScalar.__add__", "WittScalar.__mul__", "oracle_check"),
}


class LayerTrace:
    """Aggregates calls, self seconds, inclusive seconds and exceptions
    per wrapped function; seconds are read from `clock`."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.errors = Counter()
        self._stack = []  # one [child seconds] cell per open call

    def wrap(self, key, fn):
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[key] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[key] += 1
                self.total_s[key] += elapsed
                self.self_s[key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self):
        """Wrap every TARGETS function of the already imported weylkit."""
        modules = [m for name, m in sys.modules.items()
                   if name == "weylkit" or name.startswith("weylkit.")]
        for mod_name, paths in TARGETS.items():
            module = sys.modules[f"weylkit.{mod_name}"]
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
                if not inspect.isfunction(original):
                    raise TypeError(f"{mod_name}.{path} is not a function")
                if inspect.isgeneratorfunction(original):
                    raise TypeError(f"{mod_name}.{path} is a generator")
                wrapper = self.wrap(f"{mod_name}.{path}", original)
                holders = [owner] if owner_name else modules
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)
