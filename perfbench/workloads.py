"""The benchmark's four workloads.

Each workload has a set-up step (the cold cost a user pays before any
work: trace-suite profiling, LUT build, pool/router construction) and a
*unit*: a fixed batch of work built from the workload seed.  A run repeats
the unit until its time budget is spent.  Simulated arrivals are open-loop
(Poisson or scenario rate shapes, in simulated time); on the host every
unit is one single-threaded batch that runs as fast as it can, so
throughput is work completed per host second at the stated input size.

A unit returns what was done (operations, host seconds, throughput
samples), the correctness checks it made, a digest of every simulated
statistic, and the program counters the traced run cross-checks its
wrapper call counts against.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

PAPER_SCHEDULERS = ("fcfs", "sjf", "prema", "planaria", "sdrm3", "oracle", "dysta")
SWEEP_SCENARIOS = ("steady", "flash_crowd", "diurnal")
SWEEP_SCHEDULERS = ("dysta", "fcfs", "sjf", "prema")
#: Sweep seeds per unit, and paper_single request streams per cell: each
#: unit averages several independent streams, so its cost depends little
#: on which --seed the run was given.
SWEEP_SEEDS = 2

#: Input sizes.  ``toy`` is the self-test's size: every layer is still
#: reached, in well under a second per unit.
SIZES = {
    "full": {
        "cluster_requests": 6000, "cluster_window": 250,
        "paper_requests": 60, "paper_streams": 10,
        "sweep_duration": 5.0,
        "warehouse_rows": 8000, "warehouse_segment_rows": 500,
    },
    "toy": {
        "cluster_requests": 400, "cluster_window": 100,
        "paper_requests": 20, "paper_streams": 2,
        "sweep_duration": 1.0,
        "warehouse_rows": 300, "warehouse_segment_rows": 64,
    },
}


@dataclass
class Checks:
    """Correctness checks, weighted by the operations each one covers."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            if len(self.problems) < 20:
                self.problems.append(what)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[:20 - len(self.problems)])


#: ``(ops, host seconds, start, end)`` of one stretch of measured work.
Segment = Tuple[float, float, float, float]


@dataclass
class Unit:
    """Outcome of one unit of work."""

    seconds: float
    #: Throughput samples.  Each is a list of segments ``(ops, host
    #: seconds, start, end)``; start and end are ``perf_counter`` readings
    #: that place the segment among the calibration marks.  An op is a
    #: scheduling decision (one layer block executed: a simulated event whose
    #: count no host-side change moves) on the simulating workloads, and a
    #: row appended or scanned on the warehouse.
    samples: List[List[Segment]]
    checks: Checks
    #: Canonical rows of every simulated statistic (see :func:`digest`).
    sim_rows: List[Tuple]
    #: Workload-specific end-to-end figures (req_per_s, antt, ...) by name.
    report: Dict[str, Tuple[float, str]]
    #: Program counters for the traced run's cross-checks.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Inputs to the per-layer metrics that spans cannot give.
    layer_inputs: Dict[str, object] = field(default_factory=dict)


def digest(rows: List[Tuple]) -> str:
    """Stable hex digest of simulated statistics (floats by ``repr``)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _fully_executed(requests) -> int:
    """Number of requests that did *not* run every layer to a finish time."""
    return sum(1 for r in requests
               if r.next_layer != r.num_layers or r.finish_time is None)


def _ledger_seconds(ledger) -> Dict[str, float]:
    s = ledger.summary()
    return {k: float(s[k]) for k in ("queue_s", "service_s", "preempt_s", "switch_s")}


class _Feed:
    """Counts, keeps and timestamps the requests a lazy stream hands out.

    Keeping each request lets the unit check afterwards that every one
    completed all its layers (the engine itself drops them under
    ``retain_requests=False``).  A timestamp every ``window`` requests gives
    one throughput sample per window of the replay; a calibration mark at
    each timestamp is left out of the window's time.
    """

    def __init__(self, stream, window: int, calibrator=None):
        self._it = iter(stream)
        self.window = window
        self.calibrator = calibrator
        self.requests: List = []
        self.stamps: List[float] = []
        self.pauses: List[float] = []

    def __iter__(self):
        return self

    def __next__(self):
        req = next(self._it)
        self.requests.append(req)
        if len(self.requests) % self.window == 1:
            stamp = time.perf_counter()
            self.stamps.append(stamp)
            self.pauses.append(self.calibrator.mark(at=stamp) if self.calibrator else 0.0)
        return req

    def windows(self) -> List[Segment]:
        """One ``(requests, busy seconds, start, end)`` segment per window."""
        out = []
        for k in range(len(self.stamps) - 1):
            a, b = self.stamps[k], self.stamps[k + 1]
            busy = b - a - self.pauses[k]
            if busy > 0:
                out.append((self.window, busy, a, b))
        return out


class Workload:
    name = ""

    def __init__(self, size: str, out_dir: Path):
        self.size = SIZES[size]
        self.out_dir = out_dir
        self._units = 0
        #: Set by the timed phase: a :class:`~perfbench.hostinfo.Calibrator`
        #: the unit marks at its internal sample boundaries.
        self.calibrator = None

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self, seed: int) -> Unit:
        """One toy-size unit: first calls and lazy imports, paid untimed."""
        size, self.size = self.size, SIZES["toy"]
        try:
            return self.run_unit(seed)
        finally:
            self.size = size

    def run_unit(self, seed: int, rec=None, observe: bool = False) -> Unit:
        """One unit of work.

        ``rec`` is the span recorder of a traced unit (for spans the
        benchmark records itself, such as lazy request generation);
        ``observe`` attaches the program's own ``Observability`` bundle
        (phase profiler plus a ``RequestLedger`` on the trace bus) where the
        workload calls an engine directly.
        """
        raise NotImplementedError

    def _scratch(self, tag: str) -> Path:
        self._units += 1
        path = self.out_dir / f"{self.name}-{tag}-{self._units}"
        if path.exists():
            shutil.rmtree(path)
        return path


class ClusterStream(Workload):
    """Streaming heterogeneous cluster replay with the predictive router."""

    name = "cluster_stream"

    def setup(self) -> None:
        from repro.cluster import Pool, build_heterogeneous_world, build_router
        from repro.schedulers.base import make_scheduler

        self.traces, self.lut, affinity = build_heterogeneous_world(n_samples=200)
        self.pools = [
            Pool("eyeriss", make_scheduler("dysta", self.lut), 2,
                 affinity=affinity["cnn"]),
            Pool("sanger", make_scheduler("dysta", self.lut), 2,
                 affinity=affinity["attnn"]),
        ]
        self.router = build_router("predictive", self.lut)

    def run_unit(self, seed: int, rec=None, observe: bool = False) -> Unit:
        from repro.cluster import simulate_cluster
        from repro.sim.workload import WorkloadSpec, iter_workload

        n = self.size["cluster_requests"]
        window = self.size["cluster_window"]
        spec = WorkloadSpec(12.0, n_requests=n, slo_multiplier=10.0, seed=seed)
        stream = iter_workload(self.traces, spec)
        obs = ledger = None
        if rec is not None:
            stream = rec.timed_iter("sim.workload.gen", stream)
        if observe:
            from repro.obs import Observability, RequestLedger

            ledger = RequestLedger(keep_records=False)
            obs = Observability(sinks=[ledger], profile=True)
        feed = _Feed(stream, window, self.calibrator)
        t0 = time.perf_counter()
        result = simulate_cluster(feed, self.pools, self.router,
                                  retain_requests=False, obs=obs)
        t1 = time.perf_counter()
        seconds = t1 - t0 - sum(feed.pauses)

        offered = len(feed.requests)
        checks = Checks()
        checks.check(offered == n, f"stream offered {offered} of {n} requests", 1)
        checks.check(result.num_completed + result.num_shed == offered,
                     f"completed {result.num_completed} + shed {result.num_shed} "
                     f"!= offered {offered}", offered)
        bad = _fully_executed(r for r in feed.requests if r.finish_time is not None)
        done = sum(1 for r in feed.requests if r.finish_time is not None)
        checks.check(done == result.num_completed,
                     f"{done} requests finished but {result.num_completed} counted", 1)
        checks.attempted += done
        checks.failed += bad
        if bad:
            checks.problems.append(f"{bad} completed requests skipped layers")

        windows = feed.windows() or [(result.num_completed, seconds, t0, t1)]
        per_request = result.num_scheduler_invocations / max(result.num_completed, 1)
        samples = [[(n * per_request, busy, a, b)] for n, busy, a, b in windows]
        sim_rows = [("cluster", result.num_completed, result.num_shed,
                     repr(result.antt), repr(result.violation_rate),
                     repr(result.p99), repr(result.makespan),
                     result.num_preemptions, result.num_scheduler_invocations,
                     result.max_queue_length)]
        report = {
            "req_per_s": (statistics.median(n / busy for n, busy, _, _ in windows), "1/s"),
            "antt": (float(result.antt), "x"),
            "violation_rate": (float(result.violation_rate), "frac"),
            "p99_turnaround_s": (float(result.p99), "s"),
        }
        admitted = offered - result.num_shed
        counters = {
            "decisions": result.num_scheduler_invocations,
            "cluster_decisions": result.num_scheduler_invocations,
            "max_queue_length": result.max_queue_length,
            "offered": offered,
            "routed": offered,
            "queue_adds": admitted + result.num_scheduler_invocations - result.num_completed,
            "queue_removes": result.num_scheduler_invocations,
            "requests": result.num_completed,
        }
        layer_inputs = {}
        if observe:
            layer_inputs["ledger"] = _ledger_seconds(ledger)
            layer_inputs["profile"] = obs.profiler.summary()
        return Unit(seconds=seconds, samples=samples,
                    checks=checks, sim_rows=sim_rows, report=report,
                    counters=counters, layer_inputs=layer_inputs)


class PaperSingle(Workload):
    """The paper's Sec 6 grid on the single- and multi-NPU engines."""

    name = "paper_single"

    def setup(self) -> None:
        from repro.core.lut import ModelInfoLUT
        from repro.energy import EnergyAccountant
        from repro.profiling.profiler import benchmark_suite

        self.world = {}
        for family in ("attnn", "cnn"):
            traces = benchmark_suite(family, n_samples=200, seed=0)
            lut = ModelInfoLUT(traces)
            self.world[family] = (traces, lut, EnergyAccountant.from_model_lut(lut))

    def run_unit(self, seed: int, rec=None, observe: bool = False) -> Unit:
        from repro.obs import Observability, PhaseProfiler, RequestLedger
        from repro.schedulers.base import make_scheduler
        from repro.sim.engine import simulate
        from repro.sim.multi import simulate_multi
        from repro.sim.workload import WorkloadSpec, generate_workload

        n = self.size["paper_requests"]
        streams = self.size["paper_streams"]
        checks = Checks()
        sim_rows: List[Tuple] = []
        seconds = 0.0
        completed = 0
        antt, viol, p99, joules = [], [], [], []
        cells: List[Dict] = []
        profile = PhaseProfiler()
        ledger_s = {"queue_s": 0.0, "service_s": 0.0, "preempt_s": 0.0, "switch_s": 0.0}
        decisions = max_queue = 0
        segments: List[Segment] = []
        for family, rate in (("attnn", 30.0), ("cnn", 3.0)):
            traces, lut, accountant = self.world[family]
            for sched_name in PAPER_SCHEDULERS:
                # One segment per scheduler, calibrated at both ends.
                if self.calibrator is not None:
                    self.calibrator.mark()
                block_start, block_s, block_ops = time.perf_counter(), 0.0, 0
                for engine in ("single", "multi"):
                    for stream in range(streams):
                        cell_rate = rate if engine == "single" else 4.0 * rate
                        requests = generate_workload(
                            traces, WorkloadSpec(cell_rate, n_requests=n,
                                                 slo_multiplier=10.0,
                                                 seed=seed * streams + stream))
                        scheduler = make_scheduler(sched_name, lut)
                        obs = ledger = None
                        if observe:
                            ledger = RequestLedger(keep_records=False)
                            obs = Observability(sinks=[ledger], profile=True)
                        first = len(rec) if rec is not None else 0
                        t0 = time.perf_counter()
                        if engine == "single":
                            result = simulate(requests, scheduler, energy=accountant, obs=obs)
                        else:
                            result = simulate_multi(requests, scheduler, num_accelerators=4,
                                                    energy=accountant, obs=obs)
                        cell_s = time.perf_counter() - t0
                        seconds += cell_s
                        block_s += cell_s
                        block_ops += result.num_scheduler_invocations
                        label = f"{family}/{sched_name}/{engine}/{stream}"
                        done = len(result.requests)
                        checks.check(done == n, f"{label}: completed {done} of {n}", n)
                        bad = _fully_executed(result.requests)
                        checks.check(bad == 0, f"{label}: {bad} requests skipped layers", done)
                        completed += done
                        decisions += result.num_scheduler_invocations
                        max_queue = max(max_queue, result.max_queue_length)
                        antt.append(result.antt)
                        viol.append(result.violation_rate)
                        p99.append(result.p99)
                        joules.append(result.energy_per_request)
                        sim_rows.append((label, done, repr(result.antt),
                                         repr(result.violation_rate), repr(result.p99),
                                         repr(result.makespan), repr(result.energy_per_request),
                                         result.num_preemptions,
                                         result.num_scheduler_invocations,
                                         result.max_queue_length))
                        cells.append({
                            "label": label, "engine": engine,
                            "span_range": (first, len(rec) if rec is not None else 0),
                            "invocations": result.num_scheduler_invocations,
                            "batch_selects": result.num_batch_selects,
                        })
                        if observe:
                            profile.merge(obs.profiler)
                            for k, v in _ledger_seconds(ledger).items():
                                ledger_s[k] += v
                segments.append((block_ops, block_s, block_start, time.perf_counter()))
        report = {
            "req_per_s": (completed / seconds, "1/s"),
            "antt": (_mean(antt), "x"),
            "violation_rate": (_mean(viol), "frac"),
            "p99_turnaround_s": (_mean(p99), "s"),
            "joules_per_req": (_mean(joules), "J"),
        }
        counters = {"decisions": decisions, "max_queue_length": max_queue,
                    "requests": completed}
        layer_inputs: Dict[str, object] = {"cells": cells}
        if observe:
            layer_inputs["ledger"] = ledger_s
            layer_inputs["profile"] = profile.summary()
        return Unit(seconds=seconds, samples=[segments],
                    checks=checks, sim_rows=sim_rows, report=report,
                    counters=counters, layer_inputs=layer_inputs)


class Sweep(Workload):
    """Scenario x scheduler sweep on the cluster engine into a warehouse."""

    name = "sweep"

    def setup(self) -> None:
        from repro.profiling.profiler import benchmark_suite
        from repro.scenarios import SweepConfig

        from perfbench.tracing import capture_function

        # The sweep's cells share the process-wide profiled suite; profile it
        # here, as the first cell of a fresh process would.
        benchmark_suite("attnn", n_samples=SweepConfig.n_profile_samples, seed=0)
        self.results: List = []
        capture_function("repro.cluster", "simulate_cluster", self.results.append)

    def config(self, seed: int):
        from repro.scenarios import SweepConfig

        return SweepConfig(
            scenarios=SWEEP_SCENARIOS, schedulers=SWEEP_SCHEDULERS,
            seeds=tuple(range(seed * SWEEP_SEEDS, (seed + 1) * SWEEP_SEEDS)),
            engine="cluster", autoscale="reactive", energy=True, faults="chaos",
            telemetry_interval=1.0, alerts=True,
            duration=self.size["sweep_duration"],
        )

    def run_unit(self, seed: int, rec=None, observe: bool = False) -> Unit:
        from repro.errors import ReproError
        from repro.scenarios import run_sweep
        from repro.scenarios.runner import (
            COST_KEYS, ENERGY_COST_KEYS, ENERGY_KEYS, FAULT_KEYS, METRIC_KEYS,
            cell_key,
        )
        from repro.warehouse.store import Warehouse

        config = self.config(seed)
        grid = [cell_key(*c) for c in config.cells()]
        out = self._scratch("store")
        self.results.clear()
        checks = Checks()
        error = None
        # Calibration marks every two cells split the unit into segments;
        # (time, cells done, mark seconds) of each.
        marks: List[Tuple[float, int, float]] = []

        def progress(key: str, done: int, total: int) -> None:
            if self.calibrator is not None and done % 2 == 0 and done < total:
                at = time.perf_counter()
                marks.append((at, done, self.calibrator.mark(at=at)))

        t0 = time.perf_counter()
        try:
            sweep = run_sweep(config, out_path=out, workers=1, progress=progress)
            cells = sweep.cells
        except ReproError as exc:  # a raising cell stops the grid
            error = str(exc)
            cells = {}
        t1 = time.perf_counter()
        seconds = t1 - t0 - sum(m[2] for m in marks)
        checks.check(error is None, f"sweep raised: {error}", 0)
        requests = completed = decisions = max_queue = 0
        sim_rows: List[Tuple] = []
        antt, viol, p99, joules = [], [], [], []
        results = list(self.results)
        for index, key in enumerate(grid):
            cell = cells.get(key)
            result = results[index] if index < len(results) else None
            if cell is None or result is None:
                checks.check(False, f"cell {key} missing", 1)
                continue
            offered = int(cell["n_requests"])
            ok = (result.num_completed + result.num_shed == offered
                  and int(cell["num_shed"]) == result.num_shed)
            checks.check(ok, f"{key}: completed {result.num_completed} + shed "
                         f"{result.num_shed} != offered {offered}", 1 + offered)
            bad = _fully_executed(result.requests)
            checks.check(bad == 0, f"{key}: {bad} requests skipped layers",
                         result.num_completed)
            requests += offered
            completed += result.num_completed
            decisions += result.num_scheduler_invocations
            max_queue = max(max_queue, result.max_queue_length)
            antt.append(cell["antt"])
            viol.append(cell["violation_rate"])
            p99.append(cell["p99"])
            joules.append(cell["energy_per_request"])
            numbers = tuple(
                (name, repr(cell[name])) for name in
                ("n_requests", "num_shed", "makespan", "num_preemptions")
                + METRIC_KEYS + COST_KEYS + ENERGY_KEYS + ENERGY_COST_KEYS + FAULT_KEYS
                if name in cell
            )
            sim_rows.append((key, numbers, len(cell.get("alerts", ())),
                             result.num_scheduler_invocations, result.max_queue_length))
        cell_s: List[float] = []
        size_bytes = 0
        if out.exists():
            with Warehouse.open(out) as wh:
                cell_s = [float(c["wall_s"]) for c in wh.read_costs()]
            size_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            shutil.rmtree(out)
        n_cells = len(sim_rows)
        report = {
            "req_per_s": (completed / seconds, "1/s"),
            "cells_per_s": (n_cells / seconds, "1/s"),
            "antt": (_mean(antt), "x"),
            "violation_rate": (_mean(viol), "frac"),
            "p99_turnaround_s": (_mean(p99), "s"),
            "joules_per_req": (_mean(joules), "J"),
        }
        counters = {"decisions": decisions, "cluster_decisions": decisions,
                    "max_queue_length": max_queue, "routed": requests,
                    "requests": completed, "cells": n_cells}
        bounds = [(t0, 0, 0.0)] + marks + [(t1, len(results), 0.0)]
        segments = [
            (sum(r.num_scheduler_invocations for r in results[d0:d1]), b - a - pause, a, b)
            for (a, d0, pause), (b, d1, _) in zip(bounds, bounds[1:])
        ]
        return Unit(seconds=seconds, samples=[segments],
                    checks=checks, sim_rows=sim_rows, report=report,
                    counters=counters,
                    layer_inputs={"cell_s": cell_s,
                                  "bytes_per_row": size_bytes / max(n_cells, 1)})


class WarehouseRW(Workload):
    """Synthetic sweep-shaped cells written to, then read from, a warehouse."""

    name = "warehouse"

    def setup(self) -> None:
        from repro.core.lut import ModelInfoLUT
        from repro.profiling.profiler import benchmark_suite
        from repro.scenarios.spec import available_scenarios
        from repro.schedulers.base import available_schedulers

        # The cells' latency scales come from the profiled suite's LUT, so
        # the synthetic columns carry realistic magnitudes.
        lut = ModelInfoLUT(benchmark_suite("attnn", n_samples=100, seed=0))
        self.latency = np.array([lut.avg_total_latency(k) for k in lut.keys])
        self.scenarios = tuple(available_scenarios())
        self.schedulers = tuple(available_schedulers())
        self._cells: Dict[Tuple[int, int], List[Tuple[str, Dict]]] = {}

    def cells(self, seed: int) -> List[Tuple[str, Dict]]:
        """The seed's synthetic cells (string groups, some fields absent)."""
        key = (seed, self.size["warehouse_rows"])
        cached = self._cells.get(key)
        if cached is not None:
            return cached
        from repro.scenarios.runner import ENERGY_KEYS, FAULT_KEYS

        rng = np.random.default_rng(seed)
        rows = []
        for i in range(self.size["warehouse_rows"]):
            scenario = self.scenarios[int(rng.integers(len(self.scenarios)))]
            scheduler = self.schedulers[int(rng.integers(len(self.schedulers)))]
            base = float(self.latency[int(rng.integers(len(self.latency)))])
            p50 = base * float(rng.uniform(1.0, 4.0))
            p95 = p50 * float(rng.uniform(1.0, 5.0))
            cell = {
                "scenario": scenario, "scheduler": scheduler, "seed": i,
                "workload_seed": int(rng.integers(1 << 31)),
                "n_requests": int(rng.integers(50, 5000)),
                "makespan": float(rng.uniform(10.0, 600.0)),
                "num_preemptions": int(rng.integers(0, 2000)),
                "antt": float(rng.lognormal(1.0, 0.6)),
                "violation_rate": float(rng.uniform(0.0, 0.5)),
                "stp": float(rng.uniform(0.5, 4.0)),
                "p50": p50, "p95": p95, "p99": p95 * float(rng.uniform(1.0, 2.0)),
            }
            if rng.random() < 0.7:
                cell.update({k: float(rng.uniform(0.1, 50.0)) for k in ENERGY_KEYS})
            if rng.random() < 0.4:
                cell.update({k: float(rng.uniform(0.0, 20.0)) for k in FAULT_KEYS})
            rows.append((f"{scenario}/{scheduler}/seed{i}", cell))
        self._cells = {key: rows}
        return rows

    def run_unit(self, seed: int, rec=None, observe: bool = False) -> Unit:
        from repro.scenarios.runner import METRIC_KEYS
        from repro.warehouse.query import aggregate, distinct, select
        from repro.warehouse.store import KEY_COLUMN, Warehouse

        rows = self.cells(seed)
        n = len(rows)
        root = self._scratch("store")
        checks = Checks()
        wh = Warehouse.create(root, {"benchmark": "warehouse", "seed": seed},
                              segment_rows=self.size["warehouse_segment_rows"])
        t_unit = t_append = time.perf_counter()
        for key, cell in rows:
            wh.append(key, cell)
        append_s = time.perf_counter() - t_append
        fp_written = wh.fingerprint()
        t0 = time.perf_counter()
        wh.compact()
        compact_s = time.perf_counter() - t0
        fp_compacted = wh.fingerprint()
        wh.close()

        t0 = time.perf_counter()
        wh = Warehouse.open(root)
        open_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        status = wh.verify()
        verify_s = time.perf_counter() - t0
        fp_opened = wh.fingerprint()
        t0 = time.perf_counter()
        agg = aggregate(wh, group_by=("scenario", "scheduler"), metrics=METRIC_KEYS)
        aggregate_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        picked = select(wh, columns=METRIC_KEYS, where={"scheduler": "dysta"})
        everything = select(wh, columns=("seed",) + METRIC_KEYS)
        select_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        scenarios = distinct(wh, "scenario")
        distinct_s = time.perf_counter() - t0
        wh.close()
        size_bytes = sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
        shutil.rmtree(root)

        bad_segments = [s["name"] for s in status if not s["ok"]]
        checks.check(not bad_segments, f"verify failed on {bad_segments}", 1)
        checks.check(fp_written == fp_compacted, "fingerprint changed across compact", 1)
        checks.check(fp_written == fp_opened, "fingerprint changed across reopen", 1)
        checks.merge(_check_aggregate(agg, rows, METRIC_KEYS))
        want = [cell for _, cell in rows if cell["scheduler"] == "dysta"]
        got = len(picked.get(KEY_COLUMN, ())) if picked else 0
        checks.check(got == len(want) and all(
            np.array_equal(picked[m], np.array([c[m] for c in want])) for m in METRIC_KEYS
        ) if want else got == 0, "filtered select differs from the appended rows", 1)
        checks.merge(_check_read_back(everything, rows, METRIC_KEYS, KEY_COLUMN))
        checks.check(scenarios == sorted({c["scenario"] for _, c in rows}),
                     "distinct scenarios differ", 1)

        scanned = 4 * n  # aggregate, two selects and distinct each scan every row
        query_s = aggregate_s + select_s + distinct_s
        seconds = append_s + compact_s + open_s + verify_s + query_s
        ops = n + scanned
        report = {
            "append_rows_per_s": (n / append_s, "1/s"),
            "query_rows_per_s": (scanned / query_s, "1/s"),
        }
        layer_inputs = {
            "compact_s": compact_s, "open_s": open_s, "verify_s": verify_s,
            "aggregate_rows_per_s": n / aggregate_s,
            "select_rows_per_s": 2 * n / select_s,
            "bytes_per_row": size_bytes / n,
        }
        return Unit(seconds=seconds,
                    samples=[[(ops, seconds, t_unit, time.perf_counter())]],
                    checks=checks, sim_rows=[("warehouse", n, repr(sorted(fp_written.items())))],
                    report=report, counters={"rows": n}, layer_inputs=layer_inputs)


def _check_aggregate(agg, rows, metrics) -> Checks:
    """``aggregate`` against a recomputation from the in-memory cells."""
    checks = Checks()
    groups: Dict[Tuple, List[Dict]] = {}
    for _, cell in rows:
        groups.setdefault((cell["scenario"], cell["scheduler"]), []).append(cell)
    checks.check(sorted(agg) == sorted(groups), "aggregate group set differs", 1)
    for group, cells in groups.items():
        stats = agg.get(group)
        for metric in metrics:
            values = np.array([c[metric] for c in cells if metric in c], dtype=float)
            ok = stats is not None and metric in stats
            if ok:
                s = stats[metric]
                mean = float(values.mean())
                std = float(values.std())
                ok = (s["n"] == len(values) and s["min"] == float(values.min())
                      and s["max"] == float(values.max())
                      and math.isclose(s["mean"], mean, rel_tol=1e-9, abs_tol=1e-12)
                      and math.isclose(s["std"], std, rel_tol=1e-6, abs_tol=1e-9))
            checks.check(ok, f"aggregate {group} {metric} differs", 1)
    return checks


def _check_read_back(columns, rows, metrics, key_column) -> Checks:
    """Every appended row must come back with its values (one op per row)."""
    checks = Checks()
    index = {}
    if columns:
        keys = columns[key_column].tolist()
        index = {k: i for i, k in enumerate(keys)}
    missing = 0
    for key, cell in rows:
        i = index.get(key)
        if i is None or any(columns[m][i] != cell[m] for m in metrics) \
                or columns["seed"][i] != cell["seed"]:
            missing += 1
    checks.attempted += len(rows)
    checks.failed += missing
    if missing:
        checks.problems.append(f"{missing} rows not read back intact")
    return checks


WORKLOADS = {w.name: w for w in (ClusterStream, PaperSingle, Sweep, WarehouseRW)}


def make(name: str, size: str, out_dir: Path) -> Workload:
    return WORKLOADS[name](size, out_dir)
