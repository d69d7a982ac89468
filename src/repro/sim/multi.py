"""Multi-accelerator scheduling engine.

Extension beyond the paper's single-NPU evaluation: a pool of identical
time-shared accelerators serving one shared ready queue, as in the paper's
data-center scenario (Table 3) where multiple NPUs sit behind one request
stream.  Scheduling semantics are unchanged — whenever an accelerator
finishes a layer block, the scheduler picks the next request for it from the
ready queue (layer-granularity preemption, paper Sec 4.2.2) — so every
policy from the registry works unmodified.

With ``num_accelerators=1`` the simulation is step-for-step identical to
:func:`repro.sim.engine.simulate` (tested), because the single-NPU engine
also re-queues the running request at every layer boundary.  The engine's
``switch_cost`` and ``block_size`` knobs are supported with the same
semantics: each NPU tracks which model instance's weights are resident and
pays the reload cost when it switches to a different request.

Like the single-NPU engine, converted schedulers run on the vectorized
path: the shared queue is a :class:`~repro.sim.ready_queue.ReadyQueue`, a
running request's row is parked past the live queue, aux state and all,
and un-parked when its block ends, and selections dispatch to ``select_single`` /
``select_batch``.  ``use_batch=False`` forces the scalar reference path.
"""

from __future__ import annotations

import heapq
import itertools
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
    PHASE_EVENT_HEAP,
    PHASE_QUEUE_UPDATE,
    PHASE_SELECT,
)
from repro.sim.engine import SimResult
from repro.sim.ready_queue import ReadyQueue
from repro.sim.request import Request

if TYPE_CHECKING:  # avoid a runtime circular import with repro.schedulers
    from repro.energy.accounting import EnergyAccountant
    from repro.schedulers.base import Scheduler

_EPS = 1e-12


def simulate_multi(
    requests: Sequence[Request],
    scheduler: "Scheduler",
    *,
    num_accelerators: int = 2,
    switch_cost: float = 0.0,
    block_size: int = 1,
    use_batch: Optional[bool] = None,
    energy: Optional["EnergyAccountant"] = None,
    obs: Optional[Observability] = None,
) -> SimResult:
    """Run the request stream on a pool of identical accelerators.

    Requests are mutated in place, exactly as in the single-NPU engine.
    A request executes one layer block at a time on one accelerator; at each
    block boundary it returns to the shared queue and any idle accelerator
    may pick it (or anything else) up.

    Args:
        switch_cost: Time charged whenever an accelerator switches to a
            *different model instance* than the one whose weights it holds
            resident (per-NPU tracking; same semantics as the single-NPU
            engine).
        block_size: Scheduling granularity in layers, as in the single-NPU
            engine; 1 = per layer (default).
        use_batch: ``None``/``True`` uses the vectorized path for schedulers
            that support it; ``False`` forces the scalar reference path.
        energy: Optional energy accountant; adds ``energy_per_request`` /
            ``total_joules`` / ``edp`` to the result metrics (passive —
            the schedule is unchanged).
        obs: Optional :class:`~repro.obs.Observability` bundle; execute
            spans carry the accelerator id, so the Chrome-trace export
            shows one lane per NPU.  Passive, like ``energy``.
    """
    if not requests:
        raise SchedulingError("cannot simulate an empty workload")
    if num_accelerators <= 0:
        raise SchedulingError(f"need >= 1 accelerator, got {num_accelerators}")
    if switch_cost < 0:
        raise SchedulingError(f"switch cost must be >= 0, got {switch_cost}")
    if block_size < 1:
        raise SchedulingError(f"block size must be >= 1, got {block_size}")
    for req in requests:
        if req.next_layer != 0 or req.finish_time is not None:
            raise SchedulingError(f"request {req.rid} was already (partially) executed")

    pending = sorted(requests, key=lambda r: (r.arrival, r.rid))
    scheduler.reset()
    obs = Observability.active(obs)
    tracer = obs.bus if obs is not None else None
    telem = obs.telemetry if obs is not None else None
    prof = obs.profiler if obs is not None else None
    scheduler.trace_bus = tracer
    t_begin = perf_counter() if prof is not None else 0.0
    batch_on = use_batch is not False and getattr(scheduler, "supports_batch", False)
    if batch_on:
        queue = ReadyQueue(scheduler.lut, columns=scheduler.batch_columns)
        scheduler.bind_queue(queue)
    else:
        scheduler.bind_queue(None)
        queue = []  # type: ignore[assignment]
    completed: List[Request] = []
    # Block-completion events: (time, tiebreak, npu_id, request, n_layers, dt).
    counter = itertools.count()
    events: List = []
    idle: List[int] = list(range(num_accelerators))  # min-heap of idle NPUs
    heapq.heapify(idle)
    i = 0
    n = len(pending)
    now = 0.0
    preemptions = 0
    invocations = 0
    max_queue = 0
    batch_selects = 0
    last_on_npu: List[Optional[Request]] = [None] * num_accelerators
    # Whose weights currently sit in each accelerator (switch-cost tracking),
    # and which (model, pattern) key they belong to (weight-load counting).
    resident: List[Optional[Request]] = [None] * num_accelerators
    resident_key: List[Optional[str]] = [None] * num_accelerators

    c_completed = c_violations = None
    if telem is not None:
        telem.registry.gauge("queue_depth", lambda: len(queue))
        telem.registry.gauge(
            "busy_npus", lambda: num_accelerators - len(idle)
        )
        c_completed = telem.registry.counter("completed")
        c_violations = telem.registry.counter("violations")

    def admit(now: float) -> None:
        nonlocal i
        if prof is not None:
            t0 = perf_counter()
        while i < n and pending[i].arrival <= now + _EPS:
            queue.append(pending[i])
            scheduler.on_arrival(pending[i], now)
            if tracer is not None:
                tracer.emit(KIND_ARRIVE, pending[i].arrival, rid=pending[i].rid)
            i += 1
        if prof is not None:
            prof.add(PHASE_ARRIVALS, perf_counter() - t0)

    def dispatch(now: float) -> None:
        """Hand queued requests to idle accelerators (lowest NPU id first)."""
        nonlocal preemptions, invocations, max_queue, batch_selects
        while idle and queue:
            npu = heapq.heappop(idle)
            nq = len(queue)
            if prof is not None:
                t0 = perf_counter()
            if not batch_on or queue.missing_entries:
                chosen = scheduler.select(queue, now)
            elif nq == 1:
                chosen = scheduler.select_single(queue, now)
                batch_selects += 1
            else:
                chosen = scheduler.select_batch(queue, now)
                batch_selects += 1
            if prof is not None:
                prof.add(PHASE_SELECT, perf_counter() - t0)
            invocations += 1
            max_queue = max(max_queue, nq)
            if chosen not in queue:
                raise SchedulingError(
                    f"scheduler {scheduler.name!r} selected a request outside the queue"
                )
            if tracer is not None:
                tracer.emit(KIND_SELECT, now, npu=npu, rid=chosen.rid,
                            args={"depth": nq})
            previous = last_on_npu[npu]
            if previous is not None and chosen is not previous and not previous.is_done:
                preemptions += 1
            last_on_npu[npu] = chosen
            if chosen.first_dispatch_time is None:
                chosen.first_dispatch_time = now
                if tracer is not None:
                    tracer.emit(KIND_QUEUE, chosen.arrival,
                                now - chosen.arrival, rid=chosen.rid)
            elif (tracer is not None and chosen.next_layer > 0
                    and now > chosen.last_run_end):
                # Stall span: gap since this rid's previous execute span
                # ended (emitted retroactively at re-dispatch).
                tracer.emit(KIND_PREEMPT, chosen.last_run_end,
                            now - chosen.last_run_end, npu=npu,
                            rid=chosen.rid)
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
            if batch_on:
                queue.remove(chosen, requeue=True)
            else:
                queue.remove(chosen)
            nl = chosen.next_layer
            layers = min(block_size, chosen.num_layers - nl)
            if layers == 1:
                dt = chosen.layer_latencies[nl]
            else:
                dt = sum(
                    chosen.layer_latencies[nl + k] for k in range(layers)
                )
            if tracer is not None:
                # Span from decision to block end: switch cost included.
                tracer.emit(KIND_EXECUTE, now, (start + dt) - now, npu=npu,
                            rid=chosen.rid,
                            args={"layers": layers, "key": chosen._key})
            heapq.heappush(events, (start + dt, next(counter), npu, chosen, layers, dt))

    next_wake: Optional[float] = None

    def arm_wake() -> None:
        """Ensure an idle accelerator wakes at the next pending arrival."""
        nonlocal next_wake
        if idle and i < n and (next_wake is None or pending[i].arrival < next_wake):
            next_wake = pending[i].arrival
            heapq.heappush(events, (next_wake, next(counter), -1, None, 0, 0.0))

    if telem is not None:
        telem.poll(0.0)
    admit(0.0)
    dispatch(0.0)
    arm_wake()

    while events:
        if prof is not None:
            t0 = perf_counter()
        now, _, npu, req, layers, dt = heapq.heappop(events)
        if prof is not None:
            prof.add(PHASE_EVENT_HEAP, perf_counter() - t0)
        if telem is not None:
            telem.poll(now)
        if req is None:
            # Wake-up for idle accelerators at an arrival instant.
            next_wake = None
            admit(now)
            dispatch(now)
            arm_wake()
            continue
        if prof is not None:
            t0 = perf_counter()
        req.next_layer += layers
        req.executed_time += dt
        req.last_run_end = now
        if req.is_done:
            if batch_on:
                queue.forget(req.rid)
            scheduler.on_layer_complete(req, now)
            req.finish_time = now
            completed.append(req)
            scheduler.on_complete(req, now)
            if tracer is not None:
                tracer.emit(
                    KIND_VIOLATE if req.violated else KIND_COMPLETE,
                    now, npu=npu, rid=req.rid,
                )
            if c_completed is not None:
                c_completed.inc()
                if req.violated:
                    c_violations.inc()
        else:
            # Re-admit before the monitor callback so batch schedulers can
            # refresh the request's row (parked at dispatch, un-parked here).
            queue.append(req)
            scheduler.on_layer_complete(req, now)
        if prof is not None:
            prof.add(PHASE_QUEUE_UPDATE, perf_counter() - t0)
        heapq.heappush(idle, npu)
        admit(now)
        dispatch(now)
        arm_wake()

    if len(completed) != n:
        raise SchedulingError(
            f"simulation ended with {n - len(completed)} unfinished requests"
        )
    if prof is not None:
        prof.wall_s += perf_counter() - t_begin
    if telem is not None:
        telem.finish(now)
    result = SimResult(
        requests=completed,
        makespan=now,
        num_preemptions=preemptions,
        num_scheduler_invocations=invocations,
        max_queue_length=max_queue,
        num_batch_selects=batch_selects if batch_on else 0,
    )
    if energy is not None:
        from repro.energy.accounting import energy_summary

        result.metrics.update(energy_summary(completed, energy))
    return result
