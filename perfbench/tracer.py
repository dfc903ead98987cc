"""Spans and counters at the public layer boundaries of higgsres.

The tracer replaces each boundary function with a wrapper in every
``higgsres`` module that binds it, because ``suites`` imports the solver
and moduli functions by name and calls them through its own globals.
Kernels are called through ``higgsres._kernels`` (``K.p_mul``), so the
backend modules themselves are left alone: calls a kernel makes to
another kernel inside its backend are not boundary crossings.

Per boundary it counts calls, busy time (wall time inside the call) and
self time (busy time minus the part covered by traced child calls).  Per
layer it adds busy time (time inside the outermost call of that layer)
and self time.  It also counts ``Infeasible`` raised per boundary, the
cells (rows x cols) of the systems the solver and the echelon kernel are
given, and ``RatFunc`` objects built.  Spans of the suites, moduli and
solver layers are kept in memory with their parent span and trial, for
the span file the benchmark writes at the end; kernel calls are too many
to keep one by one and are only aggregated.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
from dataclasses import dataclass
from time import perf_counter

from higgsres.errors import Infeasible
from higgsres.field import RatFunc

LAYERS = ("suites", "moduli", "solver", "kernels")

BOUNDARIES = (
    ("suites", "higgsres.suites", ("build_instance", "random_higgs_pair")),
    (
        "moduli",
        "higgsres.moduli",
        ("make_y_point", "make_y_tangent", "pullback_omega", "identity_check", "cartan_check"),
    ),
    (
        "solver",
        "higgsres.solver",
        (
            "build_section_space",
            "build_tangent_space",
            "build_higgs_field_space",
            "build_higgs_tangent_space",
            "solve_system",
            "random_cocycle",
        ),
    ),
    ("kernels", "higgsres._kernels", ("p_gcd", "p_mul", "p_series_div", "zi_echelon")),
)

BOUNDARY_KEYS = tuple(f"{layer}.{name}" for layer, _, names in BOUNDARIES for name in names)


def _echelon_cells(rows, ncols):
    # the kernel eliminates whole rows, right-hand-side columns included
    return len(rows) * len(rows[0]) if rows else 0


def _system_cells(matrix, ncols, rhs_list=()):
    return len(matrix) * ncols


_CELLS = {"kernels.zi_echelon": _echelon_cells, "solver.solve_system": _system_cells}


@dataclass
class BoundaryStat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    infeasible: int = 0
    cells: int = 0


def _call_sites(fn):
    """(module, attribute) pairs of every loaded higgsres module binding fn."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "higgsres" or mod_name.startswith("higgsres.")):
            continue
        if mod_name.startswith("higgsres._kernels."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


class Tracer:
    """Counters and spans for one traced pass; install with ``installed()``."""

    def __init__(self):
        self.stats = {key: BoundaryStat() for key in BOUNDARY_KEYS}
        self.layer_busy_s = dict.fromkeys(LAYERS, 0.0)
        self.ratfunc_built = 0
        self.ratfunc_normalized = 0
        self.spans = []
        self.trial = None
        self._depth = dict.fromkeys(LAYERS, 0)
        # one [span id, time covered by child calls] per open call
        self._stack = []
        self._ids = itertools.count()
        self._origin = perf_counter()

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for k, s in self.stats.items() if k.startswith(layer + "."))

    def counts(self) -> dict:
        """Every deterministic count of the pass, by metric name."""
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = stat.calls
            if key.endswith("tangent_space"):
                out[f"{key}.infeasible"] = stat.infeasible
            if key in _CELLS:
                out[f"{key}.cells"] = stat.cells
        out["field.RatFunc.built"] = self.ratfunc_built
        out["field.RatFunc.normalized"] = self.ratfunc_normalized
        return out

    def _wrap(self, key: str, layer: str, fn):
        stat = self.stats[key]
        stack = self._stack
        depth = self._depth
        layer_busy = self.layer_busy_s
        spans = self.spans if layer != "kernels" else None
        ids = self._ids
        cells = _CELLS.get(key)

        def traced(*args, **kwargs):
            if cells is not None:
                stat.cells += cells(*args, **kwargs)
            outermost = depth[layer] == 0
            depth[layer] += 1
            parent = stack[-1][0] if stack else None
            frame = [next(ids) if spans is not None else None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Infeasible:
                stat.infeasible += 1
                raise
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                depth[layer] -= 1
                stat.calls += 1
                stat.busy_s += elapsed
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if outermost:
                    layer_busy[layer] += elapsed
                if spans is not None:
                    spans.append(
                        (frame[0], parent, self.trial, key, start - self._origin, end - self._origin)
                    )

        return traced

    def _count_ratfuncs(self):
        init = RatFunc.__init__
        raw = RatFunc.__dict__["_raw"]
        raw_fn = raw.__func__

        def counted_init(obj, num, den=1):
            self.ratfunc_built += 1
            self.ratfunc_normalized += 1
            init(obj, num, den)

        def counted_raw(cls, n, d):
            self.ratfunc_built += 1
            return raw_fn(cls, n, d)

        return [
            (RatFunc, "__init__", init, counted_init),
            (RatFunc, "_raw", raw, classmethod(counted_raw)),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary call site for the duration of the block."""
        patches = []
        for layer, home, names in BOUNDARIES:
            module = importlib.import_module(home)
            for name in names:
                fn = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", layer, fn)
                patches.extend((mod, attr, fn, wrapper) for mod, attr in _call_sites(fn))
        patches.extend(self._count_ratfuncs())
        try:
            for owner, attr, _, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)
