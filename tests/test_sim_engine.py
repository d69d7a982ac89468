"""Unit tests for the layer-granularity scheduling engine, and the scalar
reference loop the engine is checked against."""

import pytest

from repro.errors import SchedulingError
from repro.schedulers.base import Scheduler, available_schedulers, make_scheduler
from repro.sim.engine import SimResult, simulate

from conftest import make_request
from test_batch_equivalence import toy_workload
from test_property_engine import build_world


def reference_simulate(requests, scheduler, switch_cost=0.0, block_size=1):
    """The single-NPU engine as one plain loop: the test oracle.

    A list-backed queue, ``scheduler.select`` at every block boundary, no
    shortcuts.  A block advances the clock by its pre-summed latency, as
    every engine does.
    """
    pending = sorted(requests, key=lambda r: (r.arrival, r.rid))
    scheduler.reset()
    scheduler.trace_bus = None
    scheduler.bind_queue(None)
    queue, completed = [], []
    now = 0.0
    i = preemptions = invocations = max_queue = 0
    last_running = resident_request = resident_key = None
    while i < len(pending) or queue:
        while i < len(pending) and pending[i].arrival <= now + 1e-12:
            queue.append(pending[i])
            scheduler.on_arrival(pending[i], now)
            i += 1
        if not queue:
            # Accelerator idle: fast-forward to the next arrival.
            now = pending[i].arrival
            continue
        chosen = scheduler.select(queue, now)
        invocations += 1
        max_queue = max(max_queue, len(queue))
        if chosen not in queue:
            raise SchedulingError(
                f"scheduler {scheduler.name!r} selected a request outside the queue")
        if last_running is not None and chosen is not last_running and not last_running.is_done:
            preemptions += 1
        last_running = chosen
        if chosen.first_dispatch_time is None:
            chosen.first_dispatch_time = now
        if chosen is not resident_request:
            now += switch_cost
            resident_request = chosen
            if chosen.key != resident_key:
                chosen.num_weight_loads += 1
                resident_key = chosen.key
        layers = min(block_size, chosen.num_layers - chosen.next_layer)
        dt = sum(chosen.layer_latencies[chosen.next_layer + k] for k in range(layers))
        now += dt
        chosen.next_layer += layers
        chosen.executed_time += dt
        chosen.last_run_end = now
        scheduler.on_layer_complete(chosen, now)
        if chosen.is_done:
            chosen.finish_time = now
            queue.remove(chosen)
            completed.append(chosen)
            scheduler.on_complete(chosen, now)
    return SimResult(requests=completed, makespan=now, num_preemptions=preemptions,
                     num_scheduler_invocations=invocations, max_queue_length=max_queue)


def schedule_of(result):
    """Everything a run decides, per request and in total, for ``==``."""
    return ([(r.rid, r.finish_time, r.executed_time, r.num_weight_loads,
              r.first_dispatch_time) for r in result.requests],
            result.makespan, result.num_preemptions,
            result.num_scheduler_invocations, result.max_queue_length)


class FirstInQueue(Scheduler):
    """Trivially picks the first queue entry (queue order = arrival order)."""

    name = "first"

    def select(self, queue, now):
        return queue[0]


class BadScheduler(Scheduler):
    name = "bad"

    def select(self, queue, now):
        return make_request(rid=999)


def short(rid, arrival, slo=10.0):
    return make_request(rid=rid, model="short", arrival=arrival, slo=slo,
                        latencies=(0.001, 0.002), sparsities=(0.5, 0.5))


def long(rid, arrival, slo=10.0):
    return make_request(rid=rid, model="long", arrival=arrival, slo=slo,
                        latencies=(0.01, 0.01, 0.01), sparsities=(0.3, 0.3, 0.3))


class TestEngineBasics:
    def test_empty_workload_rejected(self, toy_lut):
        with pytest.raises(SchedulingError):
            simulate([], FirstInQueue(toy_lut))

    def test_reused_request_rejected(self, toy_lut):
        req = short(0, 0.0)
        simulate([req], FirstInQueue(toy_lut))
        with pytest.raises(SchedulingError, match="already"):
            simulate([req], FirstInQueue(toy_lut))

    def test_outside_queue_selection_rejected(self, toy_lut):
        with pytest.raises(SchedulingError, match="outside the queue"):
            simulate([short(0, 0.0)], BadScheduler(toy_lut))

    def test_single_request_runs_isolated(self, toy_lut):
        req = short(0, arrival=1.0)
        result = simulate([req], FirstInQueue(toy_lut))
        assert req.finish_time == pytest.approx(1.0 + req.isolated_latency)
        assert result.makespan == pytest.approx(req.finish_time)
        assert result.metrics["antt"] == pytest.approx(1.0)

    def test_idle_gap_fast_forwards(self, toy_lut):
        a = short(0, arrival=0.0)
        b = short(1, arrival=100.0)
        simulate([a, b], FirstInQueue(toy_lut))
        assert b.finish_time == pytest.approx(100.0 + b.isolated_latency)

    def test_work_conservation(self, toy_lut):
        reqs = [long(i, arrival=0.0) for i in range(3)]
        result = simulate(reqs, FirstInQueue(toy_lut))
        total_work = sum(r.isolated_latency for r in reqs)
        assert result.makespan == pytest.approx(total_work)
        for req in reqs:
            assert req.executed_time == pytest.approx(req.isolated_latency)

    def test_finish_times_respect_arrival_plus_isolated(self, toy_lut):
        reqs = [long(0, 0.0), short(1, 0.005)]
        simulate(reqs, make_scheduler("sjf", toy_lut))
        for req in reqs:
            assert req.finish_time >= req.arrival + req.isolated_latency - 1e-12


class TestPreemption:
    def test_fcfs_never_preempts(self, toy_lut):
        reqs = [long(0, 0.0), short(1, 0.001), short(2, 0.002)]
        result = simulate(reqs, make_scheduler("fcfs", toy_lut))
        assert result.num_preemptions == 0

    def test_sjf_preempts_long_job_for_short_arrival(self, toy_lut):
        # Long job starts; a short job arrives mid-flight and SJF switches at
        # the next layer boundary (Fig 5 behaviour).
        a = long(0, 0.0)
        b = short(1, 0.005)
        result = simulate([a, b], make_scheduler("sjf", toy_lut))
        assert result.num_preemptions >= 1
        assert b.finish_time < a.finish_time

    def test_arrival_admitted_only_at_layer_boundary(self, toy_lut):
        # b arrives while a's first (10ms) layer runs; its first dispatch can
        # only happen after that layer completes.
        a = long(0, 0.0)
        b = short(1, 0.001)
        simulate([a, b], make_scheduler("sjf", toy_lut))
        assert b.first_dispatch_time >= 0.01

    def test_invocation_count_equals_total_layers(self, toy_lut):
        reqs = [long(0, 0.0), short(1, 0.0)]
        result = simulate(reqs, FirstInQueue(toy_lut))
        assert result.num_scheduler_invocations == 5  # 3 + 2 layers


class TestResultObject:
    def test_metrics_populated(self, toy_lut):
        result = simulate([short(0, 0.0)], FirstInQueue(toy_lut))
        assert result.antt == result.metrics["antt"]
        assert result.violation_rate == 0.0
        assert result.stp > 0


class TestReferenceOracle:
    """``simulate`` on both paths == the plain reference loop, bit for bit."""

    @pytest.mark.parametrize("scheduler_name", available_schedulers())
    @pytest.mark.parametrize("block_size", (1, 2))
    @pytest.mark.parametrize("switch_cost", (0.0, 0.003))
    @pytest.mark.parametrize("use_batch", (None, False))
    def test_simulate_matches_reference(self, scheduler_name, block_size,
                                        switch_cost, use_batch):
        for seed in range(4):
            lut, requests_a = build_world(seed, n_models=3, n_requests=12)
            _, requests_b = build_world(seed, n_models=3, n_requests=12)
            ref = reference_simulate(requests_a, make_scheduler(scheduler_name, lut),
                                     switch_cost=switch_cost, block_size=block_size)
            got = simulate(requests_b, make_scheduler(scheduler_name, lut),
                           switch_cost=switch_cost, block_size=block_size,
                           use_batch=use_batch)
            assert schedule_of(got) == schedule_of(ref), seed

    @pytest.mark.parametrize("scheduler_name", available_schedulers())
    @pytest.mark.parametrize("use_batch", (None, False))
    def test_deep_queue_matches_reference(self, toy_traces, toy_lut,
                                          scheduler_name, use_batch):
        # An overloaded stream: the queue grows past numpy_min_queue, so the
        # numpy scoring and the selection cache decide too.
        ref = reference_simulate(toy_workload(toy_traces, n=160, rate=200.0),
                                 make_scheduler(scheduler_name, toy_lut))
        got = simulate(toy_workload(toy_traces, n=160, rate=200.0),
                       make_scheduler(scheduler_name, toy_lut), use_batch=use_batch)
        assert ref.max_queue_length > 32
        assert schedule_of(got) == schedule_of(ref)
