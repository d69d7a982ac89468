"""Per-layer metrics of the traced run, and its call-count cross-checks.

Span figures come from the set-up phase and the traced unit.  Figures the
spans cannot give come from the program itself: selection-cache tallies,
the engines' built-in ``Observability(profile=True)`` phase summary (for
phases no public call exposes), the ``RequestLedger`` on the trace bus,
and the warehouse cost sidecar.
"""

from __future__ import annotations

import statistics
from typing import Dict, Tuple

import numpy as np

from perfbench.workloads import Checks, Unit

#: Engine phases read from the profiler summary (``obs.engine.<phase>_ns``).
ENGINE_PHASES = ("arrivals", "route", "select", "dispatch", "queue_update",
                 "event_heap", "execute")

#: Spans reported as "<span>_ns" (ns per call) and "<span>_calls"; the flag
#: picks self time (child spans excluded) over the span's whole duration.
PER_CALL = (
    ("core.predict", False),
    ("sched.select_batch", False),
    ("sched.select", False),
    ("sched.select_single", False),
    ("sim.ready_queue.add", False),
    ("sim.ready_queue.remove", False),
    ("sim.ready_queue.update", False),
    ("cluster.complete_block", True),
    ("cluster.route", False),
    ("cluster.autoscale_tick", False),
    ("faults.advance", False),
    ("energy.block_energy", False),
    ("obs.telemetry_poll", False),
)

#: Spans reported as "<span>_s", total seconds over the run.
TOTAL_S = ("profiling.suite", "core.lut_build", "sim.simulate", "sim.simulate_multi",
           "obs.alerts", "energy.summary", "scenarios.generate")

#: Outermost-span groups: a nested call of the same group is not counted
#: again (a policy's select_single may defer to its own select).
GROUPS = ("sched.", "core.predict")

PHASES = ("setup", "traced")


def _per_call(ns: float, calls: int) -> float:
    return ns / calls if calls else 0.0


def compute(rec, ref: Unit, observed: Unit, traced: Unit) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced run, as ``name -> (value, unit)``.

    ``ref`` is the untraced reference unit, ``observed`` the unit run with
    the program's own profiler and ledger, ``traced`` the span-wrapped one.
    """
    stats = rec.stats(PHASES)
    outer: Dict[str, Tuple[int, float]] = {}
    for prefix in GROUPS:
        outer.update(rec.outer_calls(prefix, ["traced"]))
    out: Dict[str, Tuple[float, str]] = {}

    def span(name: str) -> Dict[str, float]:
        return stats.get(name, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0})

    for span_name, use_self in PER_CALL:
        if span_name.startswith(GROUPS):
            calls, ns = outer.get(span_name, (0, 0.0))
        else:
            s = span(span_name)
            calls, ns = s["calls"], s["self_ns" if use_self else "total_ns"]
        out[f"{span_name}_ns"] = (_per_call(ns, calls), "ns")
        out[f"{span_name}_calls"] = (float(calls), "count")
    for span_name in TOTAL_S:
        out[f"{span_name}_s"] = (span(span_name)["total_ns"] / 1e9, "s")
    out["core.lut_build_calls"] = (float(span("core.lut_build")["calls"]), "count")
    out["obs.alerts_calls"] = (float(span("obs.alerts")["calls"]), "count")

    dispatch = span("cluster.dispatch")
    out["cluster.dispatch_self_ns"] = (_per_call(dispatch["self_ns"], dispatch["calls"]), "ns")
    out["cluster.dispatch_calls"] = (float(dispatch["calls"]), "count")

    hits = sum(c.num_hits for c in rec.caches)
    scans = sum(c.num_scans for c in rec.caches)
    out["sim.select_cache.hit_rate"] = (hits / (hits + scans) if hits + scans else 0.0, "frac")
    out["sim.select_cache.scans"] = (float(scans), "count")

    counters = traced.counters
    generated = counters.get("offered", counters.get("requests", 0))
    gen_ns = span("sim.workload.gen")["total_ns"] + span("sim.workload.generate")["total_ns"]
    out["sim.workload.gen_ns_per_req"] = (_per_call(gen_ns, generated), "ns")
    decisions = counters.get("decisions", 0)
    out["sim.ns_per_decision"] = (_per_call(ref.seconds * 1e9, decisions), "ns")
    out["sim.decisions"] = (float(decisions), "count")
    out["sim.max_queue_length"] = (float(counters.get("max_queue_length", 0)), "count")

    cell_s = sorted(traced.layer_inputs.get("cell_s", ()))
    if len(cell_s) >= 2:
        deciles = statistics.quantiles(cell_s, n=10, method="inclusive")
        p50, p90 = statistics.median(cell_s), deciles[8]
    else:
        p50 = p90 = cell_s[0] if cell_s else 0.0
    out["scenarios.cell_s.p50"] = (p50, "s")
    out["scenarios.cell_s.p90"] = (p90, "s")

    ledger = observed.layer_inputs.get("ledger")
    total = sum(ledger.values()) if ledger else 0.0
    for part in ("queue", "service", "preempt", "switch"):
        frac = ledger[f"{part}_s"] / total if total else 0.0
        out[f"obs.ledger.{part}_frac"] = (frac, "frac")

    phases = (observed.layer_inputs.get("profile") or {}).get("phases", {})
    for phase in ENGINE_PHASES:
        p = phases.get(phase, {"seconds": 0.0, "calls": 0})
        out[f"obs.engine.{phase}_ns"] = (_per_call(p["seconds"] * 1e9, p["calls"]), "ns")

    append = span("warehouse.append")
    seal = span("warehouse.seal")
    out["warehouse.append_ns"] = (_per_call(append["self_ns"], append["calls"]), "ns")
    out["warehouse.seal_ms"] = (_per_call(seal["total_ns"], seal["calls"]) / 1e6, "ms")
    out["warehouse.seals"] = (float(seal["calls"]), "count")
    # Whole-call warehouse timings come from the untraced reference unit.
    wh = ref.layer_inputs
    out["warehouse.bytes_per_row"] = (float(wh.get("bytes_per_row", 0.0)), "B")
    for key in ("compact_s", "open_s", "verify_s"):
        out[f"warehouse.{key}"] = (float(wh.get(key, 0.0)), "s")
    for key in ("aggregate_rows_per_s", "select_rows_per_s"):
        out[f"warehouse.{key}"] = (float(wh.get(key, 0.0)), "1/s")

    out["trace.overhead_frac"] = (traced.seconds / ref.seconds - 1.0, "frac")
    return out


def cross_check(rec, traced: Unit) -> Checks:
    """Wrapper call counts against the program's own counters.

    A call site the wrappers miss (an alias, a bound method cached before
    installation) shows up here as a count mismatch.
    """
    checks = Checks()
    counters = traced.counters
    outer = rec.outer_calls("sched.", ["traced"])

    def n(name: str) -> int:
        return outer.get(name, (0, 0.0))[0]

    if "cluster_decisions" in counters:
        got = n("sched.select") + n("sched.select_single") + n("sched.select_batch")
        checks.check(got == counters["cluster_decisions"],
                     f"sched calls {got} != decisions {counters['cluster_decisions']}")
        routed = rec.stats(["traced"]).get("cluster.route", {"calls": 0})["calls"]
        checks.check(routed == counters["routed"],
                     f"route calls {routed} != requests offered {counters['routed']}")
    if "queue_adds" in counters:
        stats = rec.stats(["traced"])
        for span_name, key in (("sim.ready_queue.add", "queue_adds"),
                               ("sim.ready_queue.remove", "queue_removes")):
            got = stats.get(span_name, {"calls": 0})["calls"]
            checks.check(got == counters[key], f"{span_name} calls {got} != {counters[key]}")
    cells = traced.layer_inputs.get("cells", ())
    if cells:
        outer_mask = rec.outer_mask("sched.")
        names = rec.arrays()["name"]
        ids = {k: rec.name_id(k) for k in
               ("sched.select", "sched.select_single", "sched.select_batch")}
    for cell in cells:
        first, stop = cell["span_range"]
        cell_names = names[first:stop][outer_mask[first:stop]]
        count = {k: int(np.count_nonzero(cell_names == i)) for k, i in ids.items()}
        fast = count["sched.select_single"] + count["sched.select_batch"]
        scalar_ok = count["sched.select"] == cell["invocations"] - cell["batch_selects"]
        # The single engine also counts forced decisions (a lone request
        # drained, a trivial singleton) that call no policy method.
        fast_ok = (fast == cell["batch_selects"] if cell["engine"] == "multi"
                   else fast <= cell["batch_selects"])
        checks.check(scalar_ok and fast_ok,
                     f"{cell['label']}: sched calls {count} vs invocations "
                     f"{cell['invocations']}, batch selects {cell['batch_selects']}")
    return checks
