"""Per-layer call counts, self time and work counts, taken from outside.

The tracer replaces each public function named in LAYERS by a wrapper in
every `monoid_holes` module that holds a reference to it, so calls made
through `from .x import f` bindings are seen too.  A span's self time is
its duration minus the time of the wrapped calls nested inside it.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

LAYERS = {
    "intlinalg": ("lattice_basis", "solve_rational_affine", "max_abs_subdeterminant"),
    "polyhedra": ("lp_exact", "maximize_each", "cone_facets", "positive_functional"),
    "dioph": ("semigroup_contains", "minimal_inhomogeneous_solutions",
              "hilbert_basis_cone_lattice"),
    "monomials": ("standard_pairs", "intersect"),
    "holes": ("build", "fundamental_holes", "hole_ideal", "holes_representation", "is_hole"),
    "saturation": ("hole_bound", "certify_infinite", "saturation_points"),
    "transport": ("table_feasible", "verify_vlach"),
    "cli": ("main",),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# work counts read from arguments and return values: (args, kwargs, result) -> increment
WORK = {
    "polyhedra.lp_exact": {
        "rows": lambda a, k, r: _arg(a, k, 0, "system").num_rows,
        "infeasible": lambda a, k, r: r.status == "infeasible",
    },
    "dioph.semigroup_contains": {"misses": lambda a, k, r: r is None},
    "dioph.minimal_inhomogeneous_solutions": {"solutions": lambda a, k, r: len(r)},
    "dioph.hilbert_basis_cone_lattice": {"elements": lambda a, k, r: len(r.elements)},
    "monomials.standard_pairs": {"pairs": lambda a, k, r: len(r)},
    "transport.table_feasible": {"infeasible": lambda a, k, r: r is None},
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
        out.append((f"{layer}.self_s", "s"))
    for span, counts in WORK.items():
        out += [(f"{span}.{c}", "count") for c in counts]
    return out


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.work: Counter = Counter()
        self._stack: list[float] = []   # child time of each open span

    def wrap(self, span: str, fn):
        counts = WORK.get(span, {})
        stack, calls, self_s, work = self._stack, self.calls, self.self_s, self.work

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                child = stack.pop()
                calls[span] += 1
                self_s[span] += took - child
                if stack:
                    stack[-1] += took
            for name, count in counts.items():
                work[f"{span}.{name}"] += count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in LAYERS; the package must be imported."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "monoid_holes" or name.startswith("monoid_holes."))]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"monoid_holes.{layer}"]
            for fn in functions:
                span = f"{layer}.{fn}"
                if fn == "build":
                    cls = home.SemigroupProblem
                    cls.build = classmethod(self.wrap(span, cls.__dict__["build"].__func__))
                    continue
                original = getattr(home, fn)
                wrapper = self.wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last reset."""
        out: dict[str, float] = {}
        for layer, functions in LAYERS.items():
            total = 0.0
            for fn in functions:
                span = f"{layer}.{fn}"
                out[f"{span}.calls"] = self.calls[span]
                out[f"{span}.self_s"] = float(self.self_s[span])
                total += self.self_s[span]
            out[f"{layer}.self_s"] = total
        for span, counts in WORK.items():
            for c in counts:
                out[f"{span}.{c}"] = self.work[f"{span}.{c}"]
        return out

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.work.clear()
