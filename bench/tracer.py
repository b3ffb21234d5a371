"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function in every loaded ``athermal``
module namespace that holds it, so nested calls (``alpha_at`` inside
``beta_max``, ``validate_state`` inside ``construct_gap_example``) are seen
too; ``uninstall`` puts the originals back. Spans are kept in memory as
parallel arrays (name, start, end, parent, query) and written out at the end.
A few wrappers also take exact counts from arguments and return values.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

# (module, function) pairs traced; a span's name is "<module>.<function>".
TRACED = (
    ("core", "validate_state"),
    ("thermo", "gibbs_vector"),
    ("thermo", "to_quasiclassical"),
    ("majorization", "compute_elbows"),
    ("majorization", "alpha_at"),
    ("majorization", "relatively_majorizes"),
    ("monotones", "convertible_via_monotones"),
    ("monotones", "critical_energies"),
    ("monotones", "cooling_monotone"),
    ("monotones", "heating_monotone"),
    ("tempbounds", "beta_max"),
    ("tempbounds", "beta_min"),
    ("tempbounds", "qubit_beta_bounds"),
    ("esets", "gap_set"),
    ("esets", "gap_membership"),
    ("esets", "construct_gap_example"),
    ("oracle", "lp_feasible"),
    ("cli", "run"),
)
# GibbsContext is a class: spans wrap the benchmark's own construction calls.
GIBBS_CONTEXT = "core.GibbsContext"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED) + (GIBBS_CONTEXT,)
# Decision functions whose alpha_at calls on the source boundary are counted
# per target elbow, one ratio per method: below 1 means the method exits early.
DECISIONS = {
    "majorization.relatively_majorizes": "majorization.alpha_at.calls_per_target_elbow",
    "monotones.convertible_via_monotones": "monotones.alpha_at.calls_per_target_elbow",
}
COUNTS = (
    "majorization.elbows_per_level",
    *DECISIONS.values(),
    "tempbounds.conditions",
    "oracle.tableau_cells",
    "esets.grid_points",
    "esets.intervals",
)


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.kind = array("h")
        self.query = array("l")
        self.query_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.decision_targets: dict[int, object] = {}  # span -> target state
        self.source_boundary: dict[int, object] = {}  # decision span -> boundary
        self.source_alpha_calls: dict[int, int] = {}  # decision span -> calls
        self.counters: dict[str, float] = {}

    # ------------------------------------------------------------- rebinding

    def install(self, extra: tuple[tuple[object, str, str], ...] = ()) -> None:
        """Wrap every traced function; ``extra`` adds (module, attr, name)."""
        targets = []
        for mod, fn in TRACED:
            module = sys.modules.get(f"athermal.{mod}")
            if module is not None:
                targets.append((getattr(module, fn), f"{mod}.{fn}"))
        for module, attr, name in extra:
            targets.append((getattr(module, attr), name))
        namespaces = [m for k, m in sys.modules.items()
                      if k == "athermal" or k.startswith("athermal.")]
        namespaces += [m for m, _, _ in extra]
        for original, name in targets:
            wrapper = self._wrap(original, name)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        kind = self.name_id[name]
        count = _COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.kind.append(kind)
            self.query.append(self.query_id)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                count(self, idx, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # --------------------------------------------------------------- summary

    def mark(self) -> int:
        return len(self.start)

    def summarize(self, first: int, compute_elbows) -> dict[str, float]:
        """Calls, self time and counts of the spans recorded since ``first``.

        ``compute_elbows`` is the untraced function, used to count the
        target elbows of each decision call after the spans are closed.
        """
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        child_s = {}
        for i in range(first, len(self.start)):
            p = self.parent[i]
            if p >= first:
                child_s[p] = child_s.get(p, 0.0) + self.end[i] - self.start[i]
        for i in range(first, len(self.start)):
            k = self.kind[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child_s.get(i, 0.0)
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        alpha_calls = dict.fromkeys(DECISIONS.values(), 0)
        elbows = dict.fromkeys(DECISIONS.values(), 0)
        for idx, target in self.decision_targets.items():
            if idx >= first:
                key = DECISIONS[self.names[self.kind[idx]]]
                alpha_calls[key] += self.source_alpha_calls.get(idx, 0)
                elbows[key] += len(compute_elbows(target).elbows)
        c = self.counters
        out["majorization.elbows_per_level"] = _ratio(c.get("elbows", 0), c.get("levels", 0))
        for key in DECISIONS.values():
            out[key] = _ratio(alpha_calls[key], elbows[key])
        for key in COUNTS[1 + len(DECISIONS):]:
            out[key] = c.get(key, 0)
        return out

    def reset_counts(self) -> None:
        self.counters = {}
        self.decision_targets = {}
        self.source_boundary = {}
        self.source_alpha_calls = {}

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start, end, parent, query."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.kind[i]], self.start[i],
                                     self.end[i], self.parent[i], self.query[i]]))
                fh.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _record_target(tracer, idx, args, verdict):
    tracer.decision_targets[idx] = args["target"]


def _count_elbows(tracer, idx, args, boundary):
    tracer._add("elbows", len(boundary.elbows) - 1)
    tracer._add("levels", args["state"].dim)
    # Both decision methods build the source boundary first.
    parent = tracer.parent[idx]
    if parent >= 0 and tracer.names[tracer.kind[parent]] in DECISIONS:
        tracer.source_boundary.setdefault(parent, boundary)


def _count_source_alpha(tracer, idx, args, x):
    parent = tracer.parent[idx]
    if parent >= 0 and tracer.source_boundary.get(parent) is args["boundary"]:
        tracer.source_alpha_calls[parent] = tracer.source_alpha_calls.get(parent, 0) + 1


def _count_conditions(tracer, idx, args, report):
    tracer._add("tempbounds.conditions", len(report.per_condition))


def _count_tableau(tracer, idx, args, result):
    n, m = args["p"].dim, args["q"].dim
    rows = 2 * m + n
    tracer._add("oracle.tableau_cells", rows * (m * n + rows + 1))


def _count_grid(tracer, idx, args, result):
    n_grid = args.get("n_grid")
    if n_grid is None:
        n_grid = sys.modules["athermal.esets"].DEFAULT_N_GRID
    tracer._add("esets.grid_points", n_grid)
    tracer._add("esets.intervals", len(result.intervals))


_COUNTERS = {
    "majorization.relatively_majorizes": _record_target,
    "monotones.convertible_via_monotones": _record_target,
    "majorization.compute_elbows": _count_elbows,
    "majorization.alpha_at": _count_source_alpha,
    "tempbounds.beta_max": _count_conditions,
    "tempbounds.beta_min": _count_conditions,
    "oracle.lp_feasible": _count_tableau,
    "esets.gap_set": _count_grid,
}
