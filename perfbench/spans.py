"""Span tracer for the traced benchmark pass, and the per-layer metrics it yields.

The tracer replaces function references inside the bbnet modules with timing
wrappers; no bbnet source file knows about it. Wrapped are:

* every function a layer module imports from another layer (for example
  ``bbnet.experiment.generate_ba`` or ``bbnet.dynamics.population_fitness``);
* the entry points in ``ENTRY_POINTS``, in their own module, so that calls
  made through the module's globals (``run`` from ``_cached_outcome``,
  ``step`` from ``run_sim``) and the benchmark's own calls are seen.

A span is (name, parent, start, end). Spans stay in memory and are written
with ``Tracer.dump`` when the traced pass ends. ``_cached_outcome`` (the
interpreter memo) is counted but not timed, so memo lookups stay in the self
time of their caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("graph", "machines", "dynamics", "analysis", "experiment", "cli")

# Timed in their own module as well as wherever another layer imports them.
ENTRY_POINTS = {
    "graph": (
        "generate_ba", "degree_ccdf", "fit_power_law", "approx_diameter",
        "write_edge_list", "read_edge_list",
    ),
    "machines": ("run", "omega_monte_carlo", "omega_enumerate"),
    "dynamics": ("step",),
    "experiment": ("run_cell_seed",),
    "cli": ("main",),
}

# Counted per call, not timed.
COUNTED = {"machines._cached_outcome": "memo_lookups"}

MARK = "__perfbench_span__"
ROOT = "pass"


def _count_outcome(counters: dict, outcome) -> None:
    counters["interpreter_steps"] += outcome.steps
    if outcome.halted:
        counters["halted"] += 1
    else:
        counters["budget_exhausted"] += 1
        counters["budget_steps"] += outcome.steps


def _count_edges(counters: dict, graph) -> None:
    counters["edges_grown"] += graph.num_edges


def _count_programs(counters: dict, programs) -> None:
    counters["programs_decoded"] += len(programs)


# Counters read from the value a timed call returns.
RESULT_HOOKS = {
    "machines.run": _count_outcome,
    "graph.generate_ba": _count_edges,
    "machines.sample_programs": _count_programs,
}

COUNTER_NAMES = (
    "interpreter_steps", "halted", "budget_exhausted", "budget_steps",
    "edges_grown", "programs_decoded", "memo_lookups",
)


def layer_modules() -> dict:
    return {name: importlib.import_module(f"bbnet.{name}") for name in LAYERS}


def patched_names(modules: dict | None = None) -> list[str]:
    """``module.attribute`` of every bbnet reference that carries a tracer wrapper."""
    modules = modules if modules is not None else layer_modules()
    return sorted(
        f"{layer}.{attr}"
        for layer, mod in modules.items()
        for attr, obj in vars(mod).items()
        if hasattr(obj, MARK)
    )


class Tracer:
    """Records spans and counters for calls into the bbnet layers."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._ids: dict[str, int] = {ROOT: 0}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.installed: set[str] = set()
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _timed(self, fn, name: str):
        hook = RESULT_HOOKS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(counters, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _counted(self, fn, counter: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, counter)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, modules: dict | None = None) -> None:
        """Wrap cross-layer imports, entry points and counted functions."""
        modules = modules if modules is not None else layer_modules()
        owners = {f"bbnet.{layer}" for layer in modules}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not callable(obj) or isinstance(obj, type) or hasattr(obj, MARK):
                    continue
                home = getattr(obj, "__module__", None)
                name = f"{home[len('bbnet.'):]}.{attr}" if home in owners else None
                if home != mod.__name__ and name is not None:
                    self._patch(mod, attr, self._timed(obj, name))
                elif attr in ENTRY_POINTS.get(layer, ()):
                    self._patch(mod, attr, self._timed(obj, f"{layer}.{attr}"))
                elif f"{layer}.{attr}" in COUNTED:
                    self._patch(mod, attr, self._counted(obj, COUNTED[f"{layer}.{attr}"]))

    def _patch(self, mod: types.ModuleType, attr: str, wrapper) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)
        self.installed.add(getattr(wrapper, MARK))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # -- output -------------------------------------------------------------

    def dump(self, path: Path) -> None:
        np.savez(
            path,
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            meta=np.asarray(json.dumps({
                "names": self.names,
                "counters": self.counters,
                "installed": sorted(self.installed),
            })),
        )


def load(path: Path) -> dict:
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        meta.update({key: data[key] for key in ("name_id", "parent", "start", "end")})
    return meta


def merge(traces: list[dict]) -> dict:
    """One trace from the traces of a pass's parts (each has its own root)."""
    names: list[str] = []
    cols: dict[str, list] = {"name_id": [], "parent": [], "start": [], "end": []}
    counters = dict.fromkeys(COUNTER_NAMES, 0)
    installed = set(traces[0]["installed"]) if traces else set()
    offset = 0
    for t in traces:
        for n in t["names"]:
            if n not in names:
                names.append(n)
        remap = np.array([names.index(n) for n in t["names"]], dtype=np.int64)
        cols["name_id"].append(remap[t["name_id"]])
        cols["parent"].append(np.where(t["parent"] >= 0, t["parent"] + offset, -1))
        cols["start"].append(t["start"])
        cols["end"].append(t["end"])
        offset += len(t["start"])
        for key, value in t["counters"].items():
            counters[key] += value
        installed &= set(t["installed"])
    merged = {key: np.concatenate(parts) for key, parts in cols.items()}
    merged.update(names=names, counters=counters, installed=sorted(installed))
    return merged


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and
    their summed duration is the part of the parent's interval they cover.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


# metric -> (unit, better, span or counter names it needs)
PER_LAYER = {
    "graph.generate_ba_s": ("s", "lower", ("graph.generate_ba",)),
    "graph.edges_grown": ("count", "lower", ("graph.generate_ba",)),
    "graph.approx_diameter_s": ("s", "lower", ("graph.approx_diameter",)),
    "graph.edge_io_s": ("s", "lower", ("graph.write_edge_list", "graph.read_edge_list")),
    "graph.degree_fit_s": ("s", "lower", ("graph.degree_ccdf", "graph.fit_power_law")),
    "graph.self_s": ("s", "lower", ()),
    "machines.sample_programs_s": ("s", "lower", ("machines.sample_programs",)),
    "machines.programs_decoded": ("count", "lower", ("machines.sample_programs",)),
    "machines.interpreter_s": ("s", "lower", ("machines.run",)),
    "machines.interpreter_calls": ("count", "lower", ("machines.run",)),
    "machines.interpreter_steps": ("count", "lower", ("machines.run",)),
    "machines.halted": ("count", "higher", ("machines.run",)),
    "machines.budget_exhausted": ("count", "lower", ("machines.run",)),
    "machines.budget_step_share": ("ratio", "lower", ("machines.run",)),
    "machines.memo_lookups": ("count", "lower", ("memo_lookups",)),
    "machines.memo_hit_ratio": ("ratio", "higher", ("memo_lookups", "machines.run")),
    "machines.omega_mc_self_s": ("s", "lower", ("machines.omega_monte_carlo",)),
    "machines.omega_enum_self_s": ("s", "lower", ("machines.omega_enumerate",)),
    "machines.population_fitness_calls": ("count", "lower", ("machines.population_fitness",)),
    "machines.population_fitness_self_s": ("s", "lower", ("machines.population_fitness",)),
    "machines.self_s": ("s", "lower", ()),
    "dynamics.step_s": ("s", "lower", ("dynamics.step",)),
    "dynamics.steps": ("count", "lower", ("dynamics.step",)),
    "dynamics.step_us": ("us", "lower", ("dynamics.step",)),
    "dynamics.run_sim_self_s": ("s", "lower", ("dynamics.run_sim",)),
    "dynamics.self_s": ("s", "lower", ()),
    "analysis.self_s": ("s", "lower", ()),
    "experiment.self_s": ("s", "lower", ()),
    "experiment.runs": ("count", "lower", ("experiment.run_cell_seed",)),
    "cli.self_s": ("s", "lower", ()),
    "unattributed_s": ("s", "lower", ()),
    "traced_wall_s": ("s", "lower", ()),
    "trace_overhead_frac": ("ratio", "lower", ()),
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counters.

    The ``<layer>.self_s`` values plus ``unattributed_s`` (the self time of
    the root span: benchmark code and calls no wrapper sees) add up to
    ``traced_wall_s``. A metric whose entry point was not found in bbnet is
    left out: a refactor that removes an entry point shows as missing, not
    as zero.
    """
    names = trace["names"]
    nid = trace["name_id"]
    self_t = self_times(trace["parent"], trace["start"], trace["end"])
    per_name = np.bincount(nid, weights=self_t, minlength=len(names))
    calls = np.bincount(nid, minlength=len(names))
    c = trace["counters"]

    def s(*span_names: str) -> float:
        return float(sum(per_name[names.index(n)] for n in span_names if n in names))

    def n(span_name: str) -> int:
        return int(calls[names.index(span_name)]) if span_name in names else 0

    def layer_self(layer: str) -> float:
        return s(*(name for name in names if name.split(".")[0] == layer))

    run_calls, lookups, steps = n("machines.run"), c["memo_lookups"], c["interpreter_steps"]
    dyn_steps = n("dynamics.step")
    root = trace["parent"] < 0
    values = {
        "graph.generate_ba_s": s("graph.generate_ba"),
        "graph.edges_grown": c["edges_grown"],
        "graph.approx_diameter_s": s("graph.approx_diameter"),
        "graph.edge_io_s": s("graph.write_edge_list", "graph.read_edge_list"),
        "graph.degree_fit_s": s("graph.degree_ccdf", "graph.fit_power_law"),
        "machines.sample_programs_s": s("machines.sample_programs"),
        "machines.programs_decoded": c["programs_decoded"],
        "machines.interpreter_s": s("machines.run"),
        "machines.interpreter_calls": run_calls,
        "machines.interpreter_steps": steps,
        "machines.halted": c["halted"],
        "machines.budget_exhausted": c["budget_exhausted"],
        "machines.budget_step_share": c["budget_steps"] / steps if steps else 0.0,
        "machines.memo_lookups": lookups,
        "machines.memo_hit_ratio": 1.0 - run_calls / lookups if lookups else 0.0,
        "machines.omega_mc_self_s": s("machines.omega_monte_carlo"),
        "machines.omega_enum_self_s": s("machines.omega_enumerate"),
        "machines.population_fitness_calls": n("machines.population_fitness"),
        "machines.population_fitness_self_s": s("machines.population_fitness"),
        "dynamics.step_s": s("dynamics.step"),
        "dynamics.steps": dyn_steps,
        "dynamics.step_us": 1e6 * s("dynamics.step") / dyn_steps if dyn_steps else 0.0,
        "dynamics.run_sim_self_s": s("dynamics.run_sim"),
        "experiment.runs": n("experiment.run_cell_seed"),
        "unattributed_s": s(ROOT),
        "traced_wall_s": float((trace["end"] - trace["start"])[root].sum()),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self(layer)
    installed = set(trace["installed"])
    return {
        name: values[name]
        for name, (_, _, needs) in PER_LAYER.items()
        if name in values and all(x in installed for x in needs)
    }
