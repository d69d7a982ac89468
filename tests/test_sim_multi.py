"""Unit + property tests for the multi-accelerator engine and the engine's
model-switch cost."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.cluster import Pool, simulate_cluster
from repro.schedulers.base import Scheduler, available_schedulers, make_scheduler
from repro.sim.engine import simulate
from repro.sim.multi import simulate_multi

from conftest import make_request
from test_property_engine import build_world


def short(rid, arrival, slo=10.0):
    return make_request(rid=rid, model="short", arrival=arrival, slo=slo,
                        latencies=(0.001, 0.002), sparsities=(0.5, 0.5))


def long(rid, arrival, slo=10.0):
    return make_request(rid=rid, model="long", arrival=arrival, slo=slo,
                        latencies=(0.01, 0.01, 0.01), sparsities=(0.3, 0.3, 0.3))


class TestSwitchCost:
    def test_negative_rejected(self, toy_lut):
        with pytest.raises(SchedulingError):
            simulate([short(0, 0.0)], make_scheduler("fcfs", toy_lut), switch_cost=-1.0)

    def test_single_request_pays_one_switch(self, toy_lut):
        req = short(0, arrival=0.0)
        result = simulate([req], make_scheduler("fcfs", toy_lut), switch_cost=0.5)
        assert req.finish_time == pytest.approx(0.5 + req.isolated_latency)
        assert result.makespan == pytest.approx(req.finish_time)

    def test_fcfs_pays_one_switch_per_request(self, toy_lut):
        reqs = [short(0, 0.0), short(1, 0.0), short(2, 0.0)]
        simulate(reqs, make_scheduler("fcfs", toy_lut), switch_cost=0.1)
        total_work = sum(r.isolated_latency for r in reqs)
        last = max(r.finish_time for r in reqs)
        assert last == pytest.approx(total_work + 3 * 0.1)

    def test_zero_cost_matches_default(self, toy_lut):
        a = [long(0, 0.0), short(1, 0.005)]
        b = [long(0, 0.0), short(1, 0.005)]
        ra = simulate(a, make_scheduler("sjf", toy_lut))
        rb = simulate(b, make_scheduler("sjf", toy_lut), switch_cost=0.0)
        assert [r.finish_time for r in ra.requests] == [
            r.finish_time for r in rb.requests
        ]

    def test_preemptive_policy_pays_more_under_switch_cost(self, toy_lut):
        # LAS-style thrashing is penalized; FCFS barely notices.
        from repro.schedulers.base import Scheduler

        class Thrash(Scheduler):
            name = "thrash"

            def select(self, queue, now):
                return min(queue, key=lambda r: (r.executed_time, r.rid))

        def makespan(factory, cost):
            reqs = [long(0, 0.0), long(1, 0.0), long(2, 0.0)]
            return simulate(reqs, factory, switch_cost=cost).makespan

        thrash_overhead = makespan(Thrash(toy_lut), 0.01) - makespan(Thrash(toy_lut), 0.0)
        fcfs_overhead = makespan(
            make_scheduler("fcfs", toy_lut), 0.01
        ) - makespan(make_scheduler("fcfs", toy_lut), 0.0)
        assert thrash_overhead > 2 * fcfs_overhead


class TestMultiAccelerator:
    def test_validation(self, toy_lut):
        with pytest.raises(SchedulingError):
            simulate_multi([], make_scheduler("fcfs", toy_lut))
        with pytest.raises(SchedulingError):
            simulate_multi([short(0, 0.0)], make_scheduler("fcfs", toy_lut),
                           num_accelerators=0)

    def test_two_npus_run_independent_requests_in_parallel(self, toy_lut):
        a, b = long(0, 0.0), long(1, 0.0)
        result = simulate_multi([a, b], make_scheduler("fcfs", toy_lut),
                                num_accelerators=2)
        # Perfect parallelism: both finish at their isolated latency.
        assert a.finish_time == pytest.approx(a.isolated_latency)
        assert b.finish_time == pytest.approx(b.isolated_latency)
        assert result.makespan == pytest.approx(0.03)

    def test_idle_npu_wakes_on_arrival(self, toy_lut):
        # NPU0 busy with a long layer; a new request arriving mid-layer must
        # start immediately on the idle NPU1.
        a = long(0, 0.0)
        b = short(1, 0.002)
        simulate_multi([a, b], make_scheduler("fcfs", toy_lut), num_accelerators=2)
        assert b.first_dispatch_time == pytest.approx(0.002)

    def test_pool_speedup_under_load(self, toy_lut):
        def run(k):
            reqs = [long(i, 0.0) for i in range(6)]
            return simulate_multi(reqs, make_scheduler("sjf", toy_lut),
                                  num_accelerators=k)

        assert run(3).makespan < run(1).makespan / 2.5

    @pytest.mark.parametrize("scheduler_name", available_schedulers())
    @given(seed=st.integers(min_value=0, max_value=5000),
           switch_cost=st.sampled_from([0.0, 0.003]))
    @settings(max_examples=8, deadline=None)
    def test_single_npu_pool_matches_engine(self, scheduler_name, seed, switch_cost):
        """Per-layer blocks: one NPU is bit-identical to the single engine."""
        lut, requests_a = build_world(seed, n_models=2, n_requests=10)
        _, requests_b = build_world(seed, n_models=2, n_requests=10)
        single = simulate(requests_a, make_scheduler(scheduler_name, lut),
                          switch_cost=switch_cost)
        pooled = simulate_multi(
            requests_b, make_scheduler(scheduler_name, lut), num_accelerators=1,
            switch_cost=switch_cost,
        )
        assert [(r.rid, r.finish_time) for r in single.requests] == [
            (r.rid, r.finish_time) for r in pooled.requests
        ]
        assert single.num_preemptions == pooled.num_preemptions
        assert single.num_scheduler_invocations == pooled.num_scheduler_invocations
        assert single.antt == pooled.antt

    def test_knob_validation(self, toy_lut):
        with pytest.raises(SchedulingError):
            simulate_multi([short(0, 0.0)], make_scheduler("fcfs", toy_lut),
                           switch_cost=-1.0)
        with pytest.raises(SchedulingError):
            simulate_multi([short(0, 0.0)], make_scheduler("fcfs", toy_lut),
                           block_size=0)

    @pytest.mark.parametrize("scheduler_name", ["fcfs", "sjf", "dysta"])
    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=6, deadline=None)
    def test_single_npu_pool_matches_engine_with_knobs(self, scheduler_name, seed):
        """Feature parity: switch_cost + block_size behave exactly as in the
        single-NPU engine when the pool has one accelerator."""
        lut, requests_a = build_world(seed, n_models=2, n_requests=10)
        _, requests_b = build_world(seed, n_models=2, n_requests=10)
        single = simulate(requests_a, make_scheduler(scheduler_name, lut),
                          switch_cost=0.003, block_size=2)
        pooled = simulate_multi(
            requests_b, make_scheduler(scheduler_name, lut),
            num_accelerators=1, switch_cost=0.003, block_size=2,
        )
        assert [(r.rid, r.finish_time) for r in single.requests] == [
            (r.rid, r.finish_time) for r in pooled.requests
        ]
        assert single.num_preemptions == pooled.num_preemptions
        assert single.num_scheduler_invocations == pooled.num_scheduler_invocations

    def test_each_npu_tracks_resident_weights(self, toy_lut):
        # Two independent requests on two NPUs: one switch each, so both
        # finish at isolated latency + one reload; a shared-resident model
        # would charge one of them twice.
        a, b = long(0, 0.0), long(1, 0.0)
        simulate_multi([a, b], make_scheduler("fcfs", toy_lut),
                       num_accelerators=2, switch_cost=0.5)
        assert a.finish_time == pytest.approx(0.5 + a.isolated_latency)
        assert b.finish_time == pytest.approx(0.5 + b.isolated_latency)

    def test_block_size_reduces_invocations(self, toy_lut):
        def run(block):
            reqs = [long(i, 0.0) for i in range(4)]
            return simulate_multi(reqs, make_scheduler("fcfs", toy_lut),
                                  num_accelerators=2, block_size=block)

        per_layer = run(1)
        per_model = run(3)
        assert per_model.num_scheduler_invocations < per_layer.num_scheduler_invocations
        assert per_model.makespan == pytest.approx(per_layer.makespan)

    @given(
        seed=st.integers(min_value=0, max_value=5000),
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_pool_invariants(self, seed, k):
        lut, requests = build_world(seed, n_models=3, n_requests=12)
        result = simulate_multi(requests, make_scheduler("dysta", lut),
                                num_accelerators=k)
        assert len(result.requests) == len(requests)
        for req in requests:
            assert req.is_done
            assert req.finish_time >= req.arrival + req.isolated_latency - 1e-9
            assert req.executed_time == pytest.approx(req.isolated_latency)
        # k accelerators can do at most k units of work per unit time.
        total_work = sum(r.isolated_latency for r in requests)
        span = result.makespan - min(r.arrival for r in requests)
        assert span * k >= total_work - 1e-9


class StrangerScheduler(Scheduler):
    """Picks a request that was never admitted to the queue."""

    name = "stranger"
    supports_batch = True

    def __init__(self, lut):
        super().__init__(lut)
        self.stranger = short(999, 0.0)

    def select(self, queue, now):
        return self.stranger

    select_single = select_batch = select


class ThiefScheduler(Scheduler):
    """Picks the lowest rid first, then keeps picking it while it runs on
    another accelerator (a parked row in batch mode)."""

    name = "thief"
    supports_batch = True

    def __init__(self, lut):
        super().__init__(lut)
        self.first = None

    def select(self, queue, now):
        if self.first is None:
            self.first = min(queue, key=lambda r: r.rid)
        return self.first

    select_single = select_batch = select


def _run_multi(use_batch):
    def run(requests, scheduler):
        simulate_multi(requests, scheduler, num_accelerators=2,
                       use_batch=use_batch)
    return run


def _run_cluster(requests, scheduler):
    simulate_cluster(requests, [Pool("a", scheduler, 2)])


def _run_single(use_batch):
    def run(requests, scheduler):
        simulate(requests, scheduler, use_batch=use_batch)
    return run


ENGINES = {
    "multi_batch": _run_multi(True),
    "multi_scalar": _run_multi(False),
    "cluster": _run_cluster,
}
#: A stranger can be picked at one NPU too; a running request cannot.
STRANGER_ENGINES = dict(ENGINES, single_batch=_run_single(True),
                        single_scalar=_run_single(False))


class TestOutsideQueueSelection:
    """Every engine rejects a pick outside the live queue before it touches
    the picked request (the batch paths' parking remove is the check)."""

    @staticmethod
    def state(req):
        return (req.next_layer, req.first_dispatch_time, req.num_weight_loads)

    @pytest.mark.parametrize("engine", sorted(STRANGER_ENGINES))
    def test_stranger_rejected(self, toy_lut, engine):
        scheduler = StrangerScheduler(toy_lut)
        before = self.state(scheduler.stranger)
        with pytest.raises(SchedulingError, match="outside the queue"):
            STRANGER_ENGINES[engine]([long(0, 0.0), long(1, 0.0)], scheduler)
        assert self.state(scheduler.stranger) == before == (0, None, 0)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_running_request_rejected(self, toy_lut, engine):
        scheduler = ThiefScheduler(toy_lut)
        requests = [long(0, 0.0), long(1, 0.0)]
        with pytest.raises(SchedulingError, match="outside the queue"):
            ENGINES[engine](requests, scheduler)
        # Dispatched once on NPU 0 and still mid-block: the second NPU's
        # rejected pick charged no weight load and moved no progress.
        assert scheduler.first is requests[0]
        assert self.state(requests[0]) == (0, 0.0, 1)
