"""Span recording for the traced benchmark run.

The benchmark never edits the program: it replaces public functions and
methods of each layer with thin wrappers that record one span per call.
A span is ``(name, parent, start_ns, end_ns)``; the parent is the span that
was open when the call began, so a layer's *self* time is its duration
minus the time its child spans cover.  Spans live in flat in-memory arrays
while the run lasts and are written out once, when it ends.

Wrappers are installed in two steps.  :func:`install_cold` covers the
set-up layers (trace-suite profiling, LUT build), which run a handful of
times per run; :func:`install_hot` covers the per-decision layers and is
installed only after the untraced reference unit, so that unit runs the
unmodified program.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np


class SpanRecorder:
    """Flat, append-only span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = [-1]
        #: ``(label, first, stop)`` index ranges of the run's phases.
        self.phases: List[Tuple[str, int, int]] = []
        self._phase: Optional[Tuple[str, int]] = None
        #: Selection caches created while hot wrappers are installed.
        self.caches: List = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.name)

    # -- phases ---------------------------------------------------------------

    def begin_phase(self, label: str) -> None:
        self.end_phase()
        self._phase = (label, len(self))

    def end_phase(self) -> None:
        if self._phase is not None:
            label, first = self._phase
            self.phases.append((label, first, len(self)))
            self._phase = None

    # -- recording ------------------------------------------------------------

    def wrap(self, span_name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self.name_id(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def timed_iter(self, span_name: str, items: Iterable) -> Iterator:
        """Yield from ``items``, recording one span per ``next`` call.

        Wrapping a generator function only times its creation; this times
        the lazy production of each item instead.
        """
        nid = self.name_id(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        it = iter(items)
        while True:
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                starts[idx] = t0
                ends[idx] = clock()
                return
            starts[idx] = t0
            ends[idx] = clock()
            yield item

    # -- analysis -------------------------------------------------------------

    def arrays(self, phases: Optional[Iterable[str]] = None
               ) -> Dict[str, np.ndarray]:
        """Spans as numpy columns, optionally restricted to named phases."""
        # Copies, not buffer views: a live view would pin the arrays' size.
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        dur = end - start
        children = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        if has_parent.any():
            children = np.bincount(parent[has_parent], weights=dur[has_parent],
                                   minlength=len(dur)).astype(np.int64)
        keep = np.ones(len(dur), dtype=bool)
        if phases is not None:
            wanted = set(phases)
            keep[:] = False
            for label, first, stop in self.phases:
                if label in wanted:
                    keep[first:stop] = True
        return {"name": name, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - children, "keep": keep}

    def stats(self, phases: Optional[Iterable[str]] = None
              ) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ns and self ns over the kept spans."""
        cols = self.arrays(phases)
        keep = cols["keep"]
        name = cols["name"][keep]
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=cols["dur"][keep], minlength=n_names)
        self_ns = np.bincount(name, weights=cols["self"][keep], minlength=n_names)
        return {
            span: {"calls": int(calls[i]), "total_ns": float(total[i]),
                   "self_ns": float(self_ns[i])}
            for i, span in enumerate(self.names)
        }

    def outer_mask(self, prefix: str) -> np.ndarray:
        """Spans named ``prefix*`` that no other ``prefix*`` span encloses.

        A policy whose ``select_single`` falls back to its own ``select``
        makes one decision, not two; counting only the outermost span of a
        group is what matches the engine's decision counter.
        """
        in_group = np.array([n.startswith(prefix) for n in self.names] + [False])
        cols = self.arrays()
        name, parent = cols["name"], cols["parent"]
        member = in_group[name]
        # Nearest enclosing group span: climb parents (which always precede
        # their children) until a group span or the root.
        anc = parent.copy()
        climbing = anc >= 0
        while climbing.any():
            climbing &= ~member[np.where(climbing, anc, 0)]
            anc[climbing] = parent[anc[climbing]]
            climbing &= anc >= 0
        return member & (anc < 0)

    def outer_calls(self, prefix: str, phases: Optional[Iterable[str]] = None
                    ) -> Dict[str, Tuple[int, float]]:
        """``(calls, total ns)`` per name of the outermost ``prefix*`` spans."""
        cols = self.arrays(phases)
        outer = cols["keep"] & self.outer_mask(prefix)
        name = cols["name"][outer]
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=cols["dur"][outer], minlength=len(self.names))
        return {span: (int(calls[i]), float(total[i]))
                for i, span in enumerate(self.names) if calls[i]}

    def write(self, path) -> None:
        """Write every span (all phases) as one compressed ``.npz`` file."""
        cols = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=cols["name"], parent=cols["parent"],
            start=cols["start"], end=cols["end"],
            phases=np.array([label for label, _, _ in self.phases]),
            phase_ranges=np.array([[a, b] for _, a, b in self.phases],
                                  dtype=np.int64).reshape(-1, 2),
        )


# -- installing wrappers ------------------------------------------------------

def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro.*`` module attribute that is ``original``.

    ``from x import f`` copies the function object into the importing
    module, so patching the defining module alone would miss those call
    sites.
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def wrap_function(rec: SpanRecorder, module_name: str, attr: str,
                  span_name: str) -> None:
    original = getattr(sys.modules[module_name], attr)
    _replace_everywhere(original, rec.wrap(span_name, original))


def capture_function(module_name: str, attr: str,
                     sink: Callable[[object], None]) -> None:
    """Pass every return value of ``module.attr`` to ``sink`` (no timing).

    Used on untraced runs too, where the program's own counters (e.g. a
    sweep cell's decision count) are not part of its recorded output.
    """
    module = sys.modules[module_name]
    original = getattr(module, attr)

    @functools.wraps(original)
    def captured(*args, **kwargs):
        result = original(*args, **kwargs)
        sink(result)
        return result

    _replace_everywhere(original, captured)


def wrap_method(rec: SpanRecorder, cls: type, attr: str, span_name: str) -> None:
    """Wrap ``cls.attr`` where ``cls`` itself defines it (not inherited)."""
    fn = cls.__dict__.get(attr)
    if fn is not None:
        setattr(cls, attr, rec.wrap(span_name, fn))


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


#: Span names of the scheduler entry points the engines call per decision.
SCHED_SPANS = {"select": "sched.select", "select_single": "sched.select_single",
               "select_batch": "sched.select_batch"}


def install_cold(rec: SpanRecorder) -> None:
    """Wrap the set-up layers: trace-suite profiling and the LUT build."""
    import repro.profiling.profiler  # noqa: F401 - registers the module
    from repro.core.lut import ModelInfoLUT

    wrap_function(rec, "repro.profiling.profiler", "benchmark_suite",
                  "profiling.suite")
    wrap_method(rec, ModelInfoLUT, "__init__", "core.lut_build")


def install_hot(rec: SpanRecorder) -> None:
    """Wrap every per-decision and per-cell layer the workloads reach."""
    import repro.energy.accounting  # noqa: F401
    import repro.obs.alerts  # noqa: F401
    import repro.scenarios.spec  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.sim.multi  # noqa: F401
    import repro.sim.workload  # noqa: F401
    from repro.cluster.autoscale import Autoscaler
    from repro.cluster.pool import Pool
    from repro.cluster.routing import Router
    from repro.core.predictor import SparseLatencyPredictor
    from repro.energy.accounting import EnergyAccountant
    from repro.faults.inject import FaultInjector
    from repro.obs.metrics import Telemetry
    from repro.schedulers.base import Scheduler, available_schedulers
    from repro.sim.ready_queue import ReadyQueue
    from repro.sim.select_cache import SelectionCache
    from repro.warehouse.store import Warehouse
    import repro.warehouse.query  # noqa: F401

    available_schedulers()  # imports every built-in policy module
    for cls in _subclasses(Scheduler):
        for attr, span in SCHED_SPANS.items():
            wrap_method(rec, cls, attr, span)
    for cls in _subclasses(Router):
        wrap_method(rec, cls, "route", "cluster.route")
    add = ReadyQueue.__dict__["add"]
    wrap_method(rec, ReadyQueue, "add", "sim.ready_queue.add")
    # ``append = add`` is a class-level alias holding the original function
    # object: point it at the wrapper too, or every Pool.enqueue and
    # complete_block requeue goes unseen.
    if ReadyQueue.__dict__.get("append") is add:
        ReadyQueue.append = ReadyQueue.add
    wrap_method(rec, ReadyQueue, "remove", "sim.ready_queue.remove")
    wrap_method(rec, ReadyQueue, "update_progress", "sim.ready_queue.update")
    # Queues whose policy reads only last_run_end bind this specialization
    # as their instance's update_progress at construction.
    wrap_method(rec, ReadyQueue, "_update_progress_lre_only", "sim.ready_queue.update")
    # Hit and scan tallies live on each cache instance; keep every cache
    # created from here on so the run can read them when it ends.
    cache_init = SelectionCache.__init__
    caches = rec.caches

    @functools.wraps(cache_init)
    def init(self, *args, **kwargs):
        cache_init(self, *args, **kwargs)
        caches.append(self)

    SelectionCache.__init__ = init
    wrap_method(rec, Pool, "dispatch", "cluster.dispatch")
    wrap_method(rec, Pool, "complete_block", "cluster.complete_block")
    # The router and the predictive autoscaler reach the predictor through
    # this module function, which inlines the LAST_ONE estimate.
    wrap_function(rec, "repro.cluster.routing", "predicted_remaining", "core.predict")
    wrap_method(rec, SparseLatencyPredictor, "predict_remaining", "core.predict")
    wrap_method(rec, Autoscaler, "tick", "cluster.autoscale_tick")
    wrap_method(rec, FaultInjector, "advance", "faults.advance")
    wrap_method(rec, EnergyAccountant, "block_energy", "energy.block_energy")
    wrap_method(rec, Telemetry, "poll", "obs.telemetry_poll")
    wrap_method(rec, Warehouse, "append", "warehouse.append")
    # Sealing happens inside append every segment_rows-th row; the seal
    # step has no public entry point of its own.
    wrap_method(rec, Warehouse, "_seal_rows", "warehouse.seal")
    wrap_method(rec, Warehouse, "compact", "warehouse.compact")
    wrap_method(rec, Warehouse, "verify", "warehouse.verify")
    Warehouse.open = classmethod(rec.wrap("warehouse.open", Warehouse.__dict__["open"].__func__))
    wrap_function(rec, "repro.sim.engine", "simulate", "sim.simulate")
    wrap_function(rec, "repro.sim.multi", "simulate_multi", "sim.simulate_multi")
    wrap_function(rec, "repro.sim.workload", "generate_workload", "sim.workload.generate")
    wrap_function(rec, "repro.energy.accounting", "energy_summary", "energy.summary")
    wrap_function(rec, "repro.obs.alerts", "evaluate_alerts", "obs.alerts")
    wrap_function(rec, "repro.scenarios.spec", "generate_scenario", "scenarios.generate")
    wrap_function(rec, "repro.warehouse.query", "aggregate", "warehouse.aggregate")
    wrap_function(rec, "repro.warehouse.query", "select", "warehouse.select")
    wrap_function(rec, "repro.warehouse.query", "distinct", "warehouse.distinct")
