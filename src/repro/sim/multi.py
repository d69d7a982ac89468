"""Multi-accelerator scheduling engine.

Extension beyond the paper's single-NPU evaluation: a pool of identical
time-shared accelerators serving one shared ready queue, as in the paper's
data-center scenario (Table 3) where multiple NPUs sit behind one request
stream.  Scheduling semantics are unchanged — whenever an accelerator
finishes a layer block, the scheduler picks the next request for it from the
ready queue (layer-granularity preemption, paper Sec 4.2.2) — so every
policy from the registry works unmodified.  Each NPU tracks whose weights
are resident and pays ``switch_cost`` when it switches to another request.

:func:`simulate_multi` runs the event loop of
:func:`repro.sim.engine.simulate`, so ``num_accelerators=1`` reproduces it
bit for bit for every registered policy, block size and ``switch_cost``
(tested).  With more than one NPU, a running request's row is parked past
the live queue, aux state and all, and un-parked when its block ends (the
parking ``remove`` doubles as the check that the policy picked a live
request), and every decision calls the policy, singletons included.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.obs import Observability
from repro.sim.engine import SimResult, _run
from repro.sim.request import Request

if TYPE_CHECKING:  # avoid a runtime circular import with repro.schedulers
    from repro.energy.accounting import EnergyAccountant
    from repro.schedulers.base import Scheduler


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
    return _run(requests, scheduler, num_accelerators, switch_cost, block_size,
                use_batch, energy, obs)
