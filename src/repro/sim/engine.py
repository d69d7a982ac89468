"""Layer-granularity preemptive scheduling engine (paper Fig 7, Phase 2).

The engine replays a request stream against a scheduling policy on a single
time-shared accelerator.  Execution is per layer: the scheduler picks a
request, the engine advances simulated time by that request's true latency
for its next layer, then re-invokes the scheduler — giving every policy the
chance to preempt at each layer boundary, exactly as the Dysta hardware
scheduler is triggered (Algorithm 2, line 6).  Arrivals are admitted at layer
boundaries (the hardware scheduler cannot interrupt a running layer).

:func:`simulate` and :func:`repro.sim.multi.simulate_multi` are one event
loop, :func:`_run`, at one and at ``num_accelerators`` NPUs: the paper's
single time-shared NPU and its data-center pool are one scheduling model at
two sizes.  A block advances the clock by its pre-summed latency, and the
last block dispatched in a pass completes without an event-heap round trip
when it ends strictly before the heap's top.  Converted schedulers score a
:class:`~repro.sim.ready_queue.ReadyQueue` with ``select_single`` /
``select_batch``; ``use_batch=False`` and unconverted schedulers run the
scalar ``select`` over a plain list.

Three shortcuts run only at one NPU, where no other accelerator can pick the
running request: its row stays live, refreshed by ``update_progress`` at the
block end instead of parked and un-parked; a ``trivial_single`` policy's
lone request is taken without a call; and a ``single_drain_safe`` policy's
lone request runs on through forced decisions (each still counted) while no
arrival is due.  With more NPUs every decision calls the policy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import SchedulingError
from repro.obs import Observability
from repro.obs.bus import (
    KIND_ARRIVE,
    KIND_COMPLETE,
    KIND_EXECUTE,
    KIND_PREEMPT,
    KIND_QUEUE,
    KIND_SELECT,
    KIND_SWITCH,
    KIND_VIOLATE,
)
from repro.obs.profile import (
    PHASE_ARRIVALS,
    PHASE_DISPATCH,
    PHASE_EVENT_HEAP,
    PHASE_QUEUE_UPDATE,
    PHASE_SELECT,
)
from repro.sim.metrics import summarize
from repro.sim.ready_queue import ReadyQueue
from repro.sim.request import Request

if TYPE_CHECKING:  # avoid a runtime circular import with repro.schedulers
    from repro.energy.accounting import EnergyAccountant
    from repro.schedulers.base import Scheduler

_EPS = 1e-12


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    requests: List[Request]
    makespan: float
    num_preemptions: int = 0
    num_scheduler_invocations: int = 0
    #: Largest ready-queue occupancy seen at any scheduling decision — the
    #: quantity the hardware scheduler's FIFO depth must cover (Sec 5.2.1).
    max_queue_length: int = 0
    #: Decisions served by the vectorized fast path (select_single /
    #: select_batch); 0 on the scalar path.  The CI perf smoke asserts this
    #: is nonzero so the fast path cannot silently regress to the fallback.
    num_batch_selects: int = 0
    metrics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.metrics:
            self.metrics = summarize(self.requests)

    @property
    def antt(self) -> float:
        return self.metrics["antt"]

    @property
    def violation_rate(self) -> float:
        return self.metrics["violation_rate"]

    @property
    def stp(self) -> float:
        return self.metrics["stp"]

    @property
    def p50(self) -> float:
        """Median normalized turnaround."""
        return self.metrics["p50"]

    @property
    def p95(self) -> float:
        """95th-percentile normalized turnaround."""
        return self.metrics["p95"]

    @property
    def p99(self) -> float:
        """99th-percentile normalized turnaround (the tail SLOs care about)."""
        return self.metrics["p99"]

    # Energy metrics exist when the run was given an EnergyAccountant.

    @property
    def energy_per_request(self) -> float:
        """Mean joules per completed inference (energy runs only)."""
        return self.metrics["energy_per_request"]

    @property
    def total_joules(self) -> float:
        """Joules drawn by all executed work (energy runs only)."""
        return self.metrics["total_joules"]

    @property
    def edp(self) -> float:
        """Mean per-request energy-delay product, J*s (energy runs only)."""
        return self.metrics["edp"]


def simulate(
    requests: Sequence[Request],
    scheduler: "Scheduler",
    *,
    switch_cost: float = 0.0,
    block_size: int = 1,
    use_batch: Optional[bool] = None,
    energy: Optional["EnergyAccountant"] = None,
    obs: Optional[Observability] = None,
) -> SimResult:
    """Run the full request stream to completion under ``scheduler``.

    Requests are mutated in place (progress + finish times) and returned in
    completion order inside the result.

    Args:
        energy: Optional :class:`~repro.energy.accounting.EnergyAccountant`;
            when given, the result's metrics additionally carry
            ``energy_per_request`` / ``total_joules`` / ``edp``.  Accounting
            is passive — the schedule is bit-identical with or without it.
        switch_cost: Time charged whenever the accelerator switches to a
            *different model instance* than the one whose weights are
            resident (weight reload from off-chip memory).  The paper's
            evaluation assumes pure time-sharing with negligible swap cost
            (default 0); the knob enables the preemption-cost ablation.
        block_size: Scheduling granularity in layers.  The paper's execution
            is "per-layer or per-layer-block" (Sec 4.2.2); 1 = per layer
            (default).  Larger blocks mean fewer scheduler invocations and
            coarser preemption points.
        use_batch: ``None`` (default) uses the vectorized path when the
            scheduler supports it; ``False`` forces the scalar reference
            path; ``True`` behaves like ``None`` (unconverted schedulers
            still fall back — the fast path is opt-in per policy).
        obs: Optional :class:`~repro.obs.Observability` bundle.  Tracing,
            telemetry and profiling are all passive — the schedule is
            bit-identical with or without them — and a fully-disabled
            bundle is normalized away, so the disabled path is literally
            the ``obs=None`` path.
    """
    return _run(requests, scheduler, 1, switch_cost, block_size, use_batch,
                energy, obs)


def _run(requests, scheduler, num_npus, switch_cost, block_size, use_batch,
         energy, obs) -> SimResult:
    """The event loop behind :func:`simulate` and ``simulate_multi``."""
    if not requests:
        raise SchedulingError("cannot simulate an empty workload")
    if switch_cost < 0:
        raise SchedulingError(f"switch cost must be >= 0, got {switch_cost}")
    if block_size < 1:
        raise SchedulingError(f"block size must be >= 1, got {block_size}")
    for req in requests:
        if req.next_layer != 0 or req.finish_time is not None:
            raise SchedulingError(f"request {req.rid} was already (partially) executed")
    if num_npus <= 0:
        raise SchedulingError(f"need >= 1 accelerator, got {num_npus}")
    pending = sorted(requests, key=lambda r: (r.arrival, r.rid))
    arrivals = [r.arrival for r in pending]
    scheduler.reset()
    obs = Observability.active(obs)
    tracer = obs.bus if obs is not None else None
    telem = obs.telemetry if obs is not None else None
    prof = obs.profiler if obs is not None else None
    scheduler.trace_bus = tracer
    t_begin = perf_counter() if prof is not None else 0.0
    batch_on = use_batch is not False and getattr(scheduler, "supports_batch", False)
    single = num_npus == 1
    if batch_on:
        queue = ReadyQueue(scheduler.lut, columns=scheduler.batch_columns)
        scheduler.bind_queue(queue)
        q_forget = queue.forget
        q_update = queue.update_progress
        q_rows = queue._requests  # mutated in place, never rebound
        q_row_of = queue._pos.get
    else:
        scheduler.bind_queue(None)
        queue = []  # type: ignore[assignment]
    # The one-NPU shortcuts (see the module docstring).
    live_rows = single and batch_on
    drain_ok = live_rows and scheduler.single_drain_safe
    trivial = live_rows and scheduler.trivial_single
    completed: List[Request] = []
    # Block-completion events: (time, tiebreak, npu_id, request, n_layers, dt);
    # request None marks a wake-up for idle NPUs at an arrival instant.
    next_id = itertools.count().__next__
    events: List = []
    idle: List[int] = list(range(num_npus))  # min-heap of idle NPUs
    n = len(pending)
    i = nq = 0  # next pending arrival, live queue length
    now = 0.0
    next_wake: Optional[float] = None
    preemptions = invocations = max_queue = batch_selects = 0
    last_on_npu: List[Optional[Request]] = [None] * num_npus
    # Whose weights currently sit in each accelerator (switch-cost tracking),
    # and which (model, pattern) key they belong to (weight-load counting).
    resident: List[Optional[Request]] = [None] * num_npus
    resident_key: List[Optional[str]] = [None] * num_npus
    outside = f"scheduler {scheduler.name!r} selected a request outside the queue"

    c_completed = c_violations = None
    if telem is not None:
        # Waiting requests only: at one NPU a running request stays queued.
        telem.registry.gauge("queue_depth", lambda: len(queue) - (single and not idle))
        telem.registry.gauge("busy_npus", lambda: num_npus - len(idle))
        c_completed = telem.registry.counter("completed")
        c_violations = telem.registry.counter("violations")
        telem.poll(0.0)

    # Local bindings for the hot loop.
    q_append = queue.append
    q_remove = queue.remove
    on_arrival = scheduler.on_arrival
    on_layer_complete = scheduler.on_layer_complete
    on_complete = scheduler.on_complete
    select_scalar = scheduler.select
    select_single = scheduler.select_single
    select_batch = scheduler.select_batch
    if prof is not None:
        # Chained stamps (each closes one segment and opens the next), as
        # in Pool.dispatch: the whole loop is attributed gap-free.
        t_seg = perf_counter()
        arr_s = sel_s = disp_s = heap_s = upd_s = 0.0
        passes = 0  # block ends and wake-ups processed

    while True:
        while i < n and arrivals[i] <= now + _EPS:
            req = pending[i]
            q_append(req)
            on_arrival(req, now)
            if tracer is not None:
                tracer.emit(KIND_ARRIVE, req.arrival, rid=req.rid)
            i += 1
            nq += 1
        if prof is not None:
            t1 = perf_counter()
            arr_s += t1 - t_seg
            t_seg = t1
        # Hand queued requests to idle accelerators (lowest NPU id first).
        req = None  # the pass's last block, kept off the heap (below)
        while idle and nq:
            npu = heappop(idle)
            if prof is not None:
                t1 = perf_counter()
            if not batch_on or queue._missing:
                chosen = select_scalar(queue, now)
            else:
                if nq > 1:
                    chosen = select_batch(queue, now)
                elif trivial:
                    chosen = q_rows[0]
                else:
                    chosen = select_single(queue, now)
                batch_selects += 1
            if prof is not None:
                t2 = perf_counter()
                sel_s += t2 - t1
            # Reject a pick outside the live queue (absent, or running on
            # another NPU) before touching it.  Nothing is parked at one NPU,
            # so a live pick owns its rid's row (an absent rid reads row -1);
            # with more NPUs parking the winner is the check.
            if live_rows:
                if q_rows[q_row_of(chosen.rid, -1)] is not chosen:
                    raise SchedulingError(outside)
            elif batch_on:
                try:
                    q_remove(chosen, True)  # requeue=True, positional: cheaper call
                except SchedulingError:
                    raise SchedulingError(outside) from None
            elif chosen not in queue:
                raise SchedulingError(outside)
            elif not single:
                q_remove(chosen)
            invocations += 1
            if nq > max_queue:
                max_queue = nq
            if tracer is not None:
                tracer.emit(KIND_SELECT, now, npu=npu, rid=chosen.rid,
                            args={"depth": nq})
            if not single:
                nq -= 1
            previous = last_on_npu[npu]
            if (previous is not None and chosen is not previous
                    and previous.next_layer < previous._num_layers):
                preemptions += 1
            last_on_npu[npu] = chosen
            if chosen.first_dispatch_time is None:
                chosen.first_dispatch_time = now
                if tracer is not None:
                    tracer.emit(KIND_QUEUE, chosen.arrival,
                                now - chosen.arrival, rid=chosen.rid)
            elif (tracer is not None and chosen.next_layer > 0
                    and now > chosen.last_run_end):
                # Stall span since the previous execute span, emitted late.
                tracer.emit(KIND_PREEMPT, chosen.last_run_end,
                            now - chosen.last_run_end, npu=npu, rid=chosen.rid)
            start = now
            if chosen is not resident[npu]:
                if switch_cost > 0.0:
                    if tracer is not None:
                        tracer.emit(KIND_SWITCH, now, switch_cost, npu=npu,
                                    rid=chosen.rid, args={"key": chosen._key})
                    start += switch_cost
                resident[npu] = chosen
                if chosen._key != resident_key[npu]:
                    chosen.num_weight_loads += 1
                    resident_key[npu] = chosen._key
            nl = nl0 = chosen.next_layer
            lats = chosen.layer_latencies
            if block_size == 1:
                layers = 1
                dt = lats[nl]
            else:
                layers = min(block_size, chosen._num_layers - nl)
                dt = sum(lats[nl + k] for k in range(layers))
            end = start + dt
            if drain_ok and nq == 1 and nl + layers < chosen._num_layers:
                # Lone request, nothing else to schedule: run on through
                # forced decisions (each still counts as an invocation) until
                # its last block or an arrival lands at a boundary.  Each
                # finished block is committed as its block end would;
                # drain-safe schedulers need only the final
                # `on_layer_complete` (overwrite-only monitor updates).
                num_layers = chosen._num_layers
                et = chosen.executed_time
                while nl + layers < num_layers and (i >= n or arrivals[i] > end + _EPS):
                    nl += layers
                    et += dt
                    if block_size == 1:
                        dt = lats[nl]
                    else:
                        layers = min(block_size, num_layers - nl)
                        dt = sum(lats[nl + k] for k in range(layers))
                    end += dt
                    invocations += 1
                    batch_selects += 1
                chosen.next_layer = nl
                chosen.executed_time = et
            if tracer is not None:
                # One span per contiguous run, from decision to block end:
                # switch cost and drained blocks included.
                tracer.emit(KIND_EXECUTE, now, end - now, npu=npu, rid=chosen.rid,
                            args={"layers": nl + layers - nl0, "key": chosen._key})
            if prof is not None:
                t3 = perf_counter()
                disp_s += (t1 - t_seg) + (t3 - t2)
                t_seg = t3
            if idle and nq:
                heappush(events, (end, next_id(), npu, chosen, layers, dt))
                if prof is not None:
                    t_seg = perf_counter()
                    heap_s += t_seg - t3
            else:
                req = chosen
        # Ensure an idle accelerator wakes at the next pending arrival.
        if idle and i < n and (next_wake is None or arrivals[i] < next_wake):
            if req is not None:
                heappush(events, (end, next_id(), npu, req, layers, dt))
                req = None
            next_wake = arrivals[i]
            heappush(events, (next_wake, next_id(), -1, None, 0, 0.0))
        if req is not None and (not events or end < events[0][0]):
            # The held block ends strictly first (always, at one NPU):
            # complete it without a heap round trip.  Its tiebreak id is
            # taken only on a push, and it is pushed before any wake-up,
            # so the (time, id) event order is unchanged.
            now = end
        else:
            if req is not None:
                heappush(events, (end, next_id(), npu, req, layers, dt))
            if not events:
                break
            now, _, npu, req, layers, dt = heappop(events)
        if prof is not None:
            t1 = perf_counter()
            heap_s += t1 - t_seg
            t_seg = t1
            passes += 1
        if telem is not None:
            telem.poll(now)
        if req is None:
            next_wake = None
            continue
        nl = req.next_layer + layers
        req.next_layer = nl
        req.executed_time += dt
        req.last_run_end = now
        if nl >= req._num_layers:
            if single:
                q_remove(req)
                nq -= 1
            elif batch_on:
                q_forget(req.rid)
            on_layer_complete(req, now)
            req.finish_time = now
            completed.append(req)
            on_complete(req, now)
            if tracer is not None:
                tracer.emit(KIND_VIOLATE if req.violated else KIND_COMPLETE,
                            now, npu=npu, rid=req.rid)
            if c_completed is not None:
                c_completed.inc()
                if req.violated:
                    c_violations.inc()
        else:
            # Refresh the row before the monitor callback: in place at one
            # NPU, else by re-admitting (un-parking) the request.
            if live_rows:
                q_update(req)
            elif not single:
                q_append(req)
                nq += 1
            on_layer_complete(req, now)
        heappush(idle, npu)
        if prof is not None:
            t1 = perf_counter()
            upd_s += t1 - t_seg
            t_seg = t1

    if len(completed) != n:
        raise SchedulingError(
            f"simulation ended with {n - len(completed)} unfinished requests")
    if prof is not None:
        prof.add(PHASE_ARRIVALS, arr_s, passes + 1)
        prof.add(PHASE_SELECT, sel_s, invocations)
        prof.add(PHASE_DISPATCH, disp_s, invocations)
        prof.add(PHASE_EVENT_HEAP, heap_s + (perf_counter() - t_seg),
                 invocations + passes)
        prof.add(PHASE_QUEUE_UPDATE, upd_s, invocations)  # one per block end
        prof.wall_s += perf_counter() - t_begin
    if telem is not None:
        telem.finish(now)
    result = SimResult(
        requests=completed,
        makespan=now,
        num_preemptions=preemptions,
        num_scheduler_invocations=invocations,
        max_queue_length=max_queue,
        num_batch_selects=batch_selects,
    )
    if energy is not None:
        # Extend the already-computed latency summary with the energy keys
        # only (no second summarize pass over the request list).
        from repro.energy.accounting import energy_summary

        result.metrics.update(energy_summary(completed, energy))
    return result
