"""Run-time spans around the program's public functions, kept in memory.

`Tracer.install` replaces each listed function, wherever a vlinkpoly module
or class holds a reference to it, with a wrapper that records a span. No
program file is edited. A span's self time is its duration minus the time
of the spans it caused; spans are aggregated per layer name as they end,
so the trace costs O(layers) memory however many calls a run makes. A
function that no longer exists is reported as absent, and one that is
never called reads 0.
"""

from __future__ import annotations

import sys
import time
import types


def _len_terms(x) -> int:
    return len(x.terms) if hasattr(x, "terms") else 1


def _len_or_zero(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


# (layer, module, attribute, count metric, count(args, result))
LAYERS = [
    ("diagram.parse", "diagram", "parse_diagram", None, None),
    ("diagram.split_circles", "diagram", "split_circles", "diagram.split_circles_calls", None),
    ("diagram.bracket", "diagram", "kauffman_bracket", None, None),
    ("diagram.bracket", "diagram", "bracket_partial", None, None),
    ("diagram.jones", "diagram", "jones", None, None),
    ("ribbon.from_diagram", "ribbon", "from_diagram", None, None),
    ("ribbon.stats", "ribbon", "stats", "ribbon.stats_calls", None),
    ("ribbon.components", "ribbon", "components", None, None),
    ("ribbon.boundary_components", "ribbon", "boundary_components", None, None),
    ("ribbon.brpoly", "ribbon", "bollobas_riordan", None, None),
    ("ribbon.brpoly", "ribbon", "brpoly_partial", None, None),
    ("thistle.verify", "thistle", "verify_identity", None, None),
    ("thistle.rows", "thistle", "state_subgraph_rows", "thistle.rows_count",
     lambda args, result: _len_or_zero(result)),
    ("polyring.parse", "polyring", "parse_poly", None, None),
    ("polyring.from_terms", "polyring", "Ring.from_terms", "polyring.from_terms_calls", None),
    ("polyring.mul", "polyring", "LaurentPoly.__mul__", "polyring.mul_term_products",
     lambda args, result: _len_terms(args[0]) * _len_terms(args[1])),
    ("polyring.pow", "polyring", "LaurentPoly.__pow__", "polyring.pow_calls", None),
    ("polyring.substitute", "polyring", "substitute", "polyring.substitute_terms_in",
     lambda args, result: _len_terms(args[0])),
    ("polyring.print", "polyring", "print_poly", None, None),
]


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._child_time: list[float] = []
        for layer, _, _, count_name, _ in LAYERS:
            self.self_s[layer] = 0.0
            if count_name:
                self.counts[count_name] = 0

    def _wrap(self, layer: str, fn, count_name, count):
        tracer = self
        stack = self._child_time
        self_s = self.self_s
        counts = self.counts
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if count_name:
                counts[count_name] += count(args, result) if count else 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: types.ModuleType) -> None:
        """Wrap every listed function in every vlinkpoly module and class."""
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(prefix)]
        owners: list = list(modules)
        owners += [v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith(package.__name__)]
        for layer, module, attr, count_name, count in LAYERS:
            owner = sys.modules.get(prefix + module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(name) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(layer, fn, count_name, count)
            for o in owners:
                for key, value in list(vars(o).items()):
                    if value is fn:
                        setattr(o, key, wrapper)
