"""Multi-accelerator scheduling engine.

Extension beyond the paper's single-NPU evaluation: a pool of identical
time-shared accelerators serving one shared ready queue, as in the paper's
data-center scenario (Table 3) where multiple NPUs sit behind one request
stream.  Scheduling semantics are unchanged — whenever an accelerator
finishes a layer block, the scheduler picks the next request for it from the
ready queue (layer-granularity preemption, paper Sec 4.2.2) — so every
policy from the registry works unmodified.  Each NPU tracks whose weights
are resident and pays ``switch_cost`` when it switches to another request.

With ``num_accelerators=1`` and ``block_size=1`` the schedule is
bit-identical to :func:`repro.sim.engine.simulate` for every registered
policy, with or without ``switch_cost`` (tested).  Larger blocks may differ
in the last float bits: this engine advances the clock by a block's
pre-summed latency, the single-NPU engine layer by layer.

Converted schedulers run on the vectorized path: the shared queue is a
:class:`~repro.sim.ready_queue.ReadyQueue`, a running request's row is
parked past the live queue, aux state and all, and un-parked when its block
ends.  The parking ``remove`` doubles as the check that the policy picked a
live request.  Every decision calls ``select_single`` / ``select_batch``,
singletons included (no lone-request drain as in the single-NPU engine).
``use_batch=False`` forces the scalar reference path.
"""

from __future__ import annotations

import itertools
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
from repro.sim.engine import SimResult, _validate
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
    _validate(requests, switch_cost, block_size)
    if num_accelerators <= 0:
        raise SchedulingError(f"need >= 1 accelerator, got {num_accelerators}")
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
    if batch_on:
        queue = ReadyQueue(scheduler.lut, columns=scheduler.batch_columns)
        scheduler.bind_queue(queue)
        q_forget = queue.forget
    else:
        scheduler.bind_queue(None)
        queue = []  # type: ignore[assignment]
    completed: List[Request] = []
    # Block-completion events: (time, tiebreak, npu_id, request, n_layers, dt);
    # request None marks a wake-up for idle NPUs at an arrival instant.
    next_id = itertools.count().__next__
    events: List = []
    idle: List[int] = list(range(num_accelerators))  # min-heap of idle NPUs
    n = len(pending)
    i = nq = 0  # next pending arrival, live queue length
    now = 0.0
    next_wake: Optional[float] = None
    preemptions = invocations = max_queue = batch_selects = 0
    last_on_npu: List[Optional[Request]] = [None] * num_accelerators
    # Whose weights currently sit in each accelerator (switch-cost tracking),
    # and which (model, pattern) key they belong to (weight-load counting).
    resident: List[Optional[Request]] = [None] * num_accelerators
    resident_key: List[Optional[str]] = [None] * num_accelerators
    outside = f"scheduler {scheduler.name!r} selected a request outside the queue"

    c_completed = c_violations = None
    if telem is not None:
        telem.registry.gauge("queue_depth", lambda: len(queue))
        telem.registry.gauge("busy_npus", lambda: num_accelerators - len(idle))
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
        passes = 0  # event-heap pops

    while True:
        horizon = now + _EPS
        while i < n and arrivals[i] <= horizon:
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
        while idle and nq:
            npu = heappop(idle)
            if prof is not None:
                t1 = perf_counter()
            if not batch_on or queue._missing:
                chosen = select_scalar(queue, now)
            else:
                chosen = select_single(queue, now) if nq == 1 else select_batch(queue, now)
                batch_selects += 1
            if prof is not None:
                t2 = perf_counter()
                sel_s += t2 - t1
            # Park the winner before any bookkeeping: a selection outside
            # the live queue (absent, or parked on another NPU) must leave
            # the request untouched.  The parked-row remove is the check.
            if batch_on:
                try:
                    q_remove(chosen, True)  # requeue=True, positional: cheaper call
                except SchedulingError:
                    raise SchedulingError(outside) from None
            elif chosen in queue:
                q_remove(chosen)
            else:
                raise SchedulingError(outside)
            invocations += 1
            if nq > max_queue:
                max_queue = nq
            if tracer is not None:
                tracer.emit(KIND_SELECT, now, npu=npu, rid=chosen.rid,
                            args={"depth": nq})
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
            nl = chosen.next_layer
            layers = 1 if block_size == 1 else min(block_size, chosen._num_layers - nl)
            lats = chosen.layer_latencies
            dt = lats[nl] if layers == 1 else sum(lats[nl + k] for k in range(layers))
            if tracer is not None:
                # Span from decision to block end: switch cost included.
                tracer.emit(KIND_EXECUTE, now, (start + dt) - now, npu=npu,
                            rid=chosen.rid, args={"layers": layers, "key": chosen._key})
            if prof is not None:
                t3 = perf_counter()
                disp_s += (t1 - t_seg) + (t3 - t2)
            heappush(events, (start + dt, next_id(), npu, chosen, layers, dt))
            if prof is not None:
                t_seg = perf_counter()
                heap_s += t_seg - t3
        # Ensure an idle accelerator wakes at the next pending arrival.
        if idle and i < n and (next_wake is None or arrivals[i] < next_wake):
            next_wake = arrivals[i]
            heappush(events, (next_wake, next_id(), -1, None, 0, 0.0))
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
            if batch_on:
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
            # Re-admit before the monitor callback so batch schedulers can
            # refresh the request's row (parked at dispatch, un-parked here).
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
        from repro.energy.accounting import energy_summary
        result.metrics.update(energy_summary(completed, energy))
    return result
