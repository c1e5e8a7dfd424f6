"""Per-layer tracing of the kickedtop package, applied from outside it.

Tracer.install() replaces every public function of each layer module, and
every alias of one that another layer module holds (measures imports
symspace.trajectory by name, tomo imports measures.concurrence), with a
wrapper that records a span: name, start, end and the span that called it.
SymState constructions are counted by wrapping SymState.__post_init__.
uninstall() puts the original attributes back.  A function that no longer
exists is simply not wrapped; the metrics that need it are reported in
`absent` instead of failing the run.

Spans stay in memory (compact arrays) and write_spans() saves them when the
run ends.  Per-pass aggregates are kept alongside so that the span arrays
never have to be re-read:

* calls, busy_s (inclusive time of the outermost call of that name) and
  self_s (busy time minus the time of wrapped children) per function;
* self_s per layer, and busy_s per layer (time inside any of its functions,
  nested calls of the same layer counted once);
* work counts taken from arguments or results (WORK below).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "symspace", "measures", "exact3", "exact4", "cheby", "husimi", "classical", "tomo")
PRIVATE_ENTRY_POINTS = {"kickedtop.cli._write_table"}  # traced although private

# span name -> (work counter, count from the bound arguments and the result)
WORK = {
    "symspace.evolve": ("symspace.evolve.kicks", lambda a, r: a["n"]),
    "symspace.trajectory": ("symspace.trajectory.kicks", lambda a, r: a["n"]),
    "cheby.t_u_recurrence": ("cheby.recurrence_steps", lambda a, r: a["n"]),
    "husimi.husimi_grid": ("husimi.grid_points", lambda a, r: r.values.size),
    "classical.portrait": ("classical.map_steps", lambda a, r: len(r) // (a["n"] + 1) * a["n"]),
}
CONSTRUCTED = "symspace.SymState.constructed"


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    layer = module.rpartition(".")[2]
    return layer if module == f"kickedtop.{layer}" and layer in LAYERS else None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_layer: list[int] = []
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []  # [span id, name id, layer id, start, child time]
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()  # span names found and wrapped
        self.counters: set[str] = set()  # work counters that could be attached
        self.layers_found: set[str] = set()
        self.begin_pass()

    # ----------------------------------------------------------- install

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"kickedtop.{layer}")
            except ImportError:
                continue
            self.layers_found.add(layer)
            for attr, obj in list(vars(module).items()):
                owner = _layer_of(obj)
                if not inspect.isfunction(obj) or owner is None:
                    continue
                qualified = f"{obj.__module__}.{obj.__name__}"
                if obj.__name__.startswith("_") and qualified not in PRIVATE_ENTRY_POINTS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{owner}.{obj.__name__.lstrip('_')}", owner, obj)
                self._patch(module, attr, wrappers[id(obj)])
        symspace = importlib.import_module("kickedtop.symspace")
        post_init = getattr(getattr(symspace, "SymState", None), "__post_init__", None)
        if post_init is not None:
            self._patch(symspace.SymState, "__post_init__", self._count_constructions(post_init))
            self.counters.add(CONSTRUCTED)
        self.begin_pass()

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr: str, replacement) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, replacement)

    def _count_constructions(self, post_init):
        tracer = self

        @functools.wraps(post_init)
        def wrapper(obj, *args, **kwargs):
            tracer.work[CONSTRUCTED] = tracer.work.get(CONSTRUCTED, 0) + 1
            return post_init(obj, *args, **kwargs)

        return wrapper

    def _wrap(self, name: str, layer: str, fn):
        nid = self._name_ids.get(name)
        if nid is None:  # install() runs once per traced pass; ids stay stable
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._name_layer.append(LAYERS.index(layer))
        self.wrapped.add(name)
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None
        if work:
            self.counters.add(work[0])
        enter, leave, count = self._enter, self._leave, self._count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(nid, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(perf_counter())
            if work:
                count(work, signature, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------- spans

    def _enter(self, nid: int, start: float) -> None:
        sid = len(self._span_start)
        self._span_name.append(nid)
        self._span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._span_start.append(start)
        self._span_end.append(start)
        lid = self._name_layer[nid]
        self._stack.append([sid, nid, lid, start, 0.0])
        self._name_depth[nid] += 1
        self._layer_depth[lid] += 1

    def _leave(self, end: float) -> None:
        sid, nid, lid, start, child = self._stack.pop()
        self._span_end[sid] = end
        duration = end - start
        self.calls[nid] += 1
        self.self_s[nid] += duration - child
        self.layer_self_s[lid] += duration - child
        self._name_depth[nid] -= 1
        if not self._name_depth[nid]:
            self.busy_s[nid] += duration
        self._layer_depth[lid] -= 1
        if not self._layer_depth[lid]:
            self.layer_busy_s[lid] += duration
        if self._stack:
            self._stack[-1][4] += duration

    def _count(self, work, signature, args, kwargs, result) -> None:
        counter, rule = work
        try:
            value = rule(signature.bind(*args, **kwargs).arguments, result)
        except (TypeError, KeyError, AttributeError):
            self.counters.discard(counter)  # the signature or result changed shape
            return
        self.work[counter] = self.work.get(counter, 0) + value

    # ------------------------------------------------------ aggregation

    def begin_pass(self) -> None:
        """Zero the per-pass aggregates (spans are kept)."""
        size, layers = len(self.names), len(LAYERS)
        self.calls = [0] * size
        self.busy_s = [0.0] * size
        self.self_s = [0.0] * size
        self._name_depth = [0] * size
        self.layer_self_s = [0.0] * layers
        self.layer_busy_s = [0.0] * layers
        self._layer_depth = [0] * layers
        self.work: dict[str, int] = {}

    def pass_totals(self) -> dict[str, float]:
        """Flat metric-name -> value map of the pass since begin_pass()."""
        out: dict[str, float] = dict(self.work)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.busy_s"] = self.busy_s[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        for lid, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.layer_self_s[lid]
            out[f"{layer}.busy_s"] = self.layer_busy_s[lid]
        return out

    def available(self, metric: str) -> bool:
        """Whether the run could measure `metric` (False once its target is gone)."""
        if metric in self.counters:
            return True
        base, _, suffix = metric.rpartition(".")
        if suffix in ("calls", "busy_s", "self_s"):
            return base in self.wrapped or base in self.layers_found
        return False

    def write_spans(self, path) -> int:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            parent=np.frombuffer(self._span_parent, dtype=np.int64),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
        )
        return len(self._span_start)
