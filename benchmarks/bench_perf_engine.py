"""Performance benchmarks of the simulation infrastructure itself.

Unlike the experiment benches (which reproduce paper figures and run once),
these measure wall-clock throughput of the hot paths with real statistical
rounds — regression guards for the simulator.

``REPRO_BENCH_SMOKE=1`` switches to a single-round smoke mode sized for CI:
it still asserts that the vectorized fast path actually engaged
(``num_batch_selects > 0``), so a converted scheduler silently regressing to
the scalar fallback fails the build rather than just getting slower.
"""

import os
import time

from repro.core.lut import ModelInfoLUT
from repro.models.registry import build_model
from repro.obs import Observability
from repro.profiling.profiler import benchmark_suite, profile_model
from repro.schedulers.base import make_scheduler
from repro.sim.engine import simulate
from repro.sim.multi import simulate_multi
from repro.sim.workload import WorkloadSpec, generate_workload
from repro.sparsity.patterns import DENSE

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
ROUNDS = 1 if SMOKE else 5
N_REQUESTS = 60 if SMOKE else 200
N_SAMPLES = 40 if SMOKE else 100


def _fresh_workload(traces, n=N_REQUESTS, seed=0):
    spec = WorkloadSpec(30.0, n_requests=n, slo_multiplier=10.0, seed=seed)
    return generate_workload(traces, spec)


def bench_perf_profiling_throughput(benchmark):
    """Phase-1 speed: profile BERT x 200 samples (vectorized cost model)."""
    model = build_model("bert")

    def run():
        return profile_model(model, DENSE, n_samples=200, seed=1)

    trace = benchmark(run)
    assert trace.num_samples == 200


def bench_perf_engine_dysta(benchmark):
    """Phase-2 speed: Dysta on the vectorized fast path (~14k decisions)."""
    traces = benchmark_suite("attnn", n_samples=N_SAMPLES, seed=0)
    lut = ModelInfoLUT(traces)

    def setup():
        return (_fresh_workload(traces), make_scheduler("dysta", lut)), {}

    def run(requests, scheduler):
        return simulate(requests, scheduler)

    result = benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    assert len(result.requests) == N_REQUESTS
    # The fast path must actually engage — a silent regression to the scalar
    # fallback is a correctness bug for this bench, not just a slowdown.
    assert result.num_batch_selects > 0


def bench_perf_engine_dysta_scalar(benchmark):
    """Scalar reference path on the same workload (speedup denominator)."""
    traces = benchmark_suite("attnn", n_samples=N_SAMPLES, seed=0)
    lut = ModelInfoLUT(traces)

    def setup():
        return (_fresh_workload(traces), make_scheduler("dysta", lut)), {}

    def run(requests, scheduler):
        return simulate(requests, scheduler, use_batch=False)

    result = benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    assert len(result.requests) == N_REQUESTS
    assert result.num_batch_selects == 0


def bench_perf_engine_multi(benchmark):
    """Dysta on the multi-NPU engine (4 NPUs, parked-row ready queue)."""
    traces = benchmark_suite("attnn", n_samples=N_SAMPLES, seed=0)
    lut = ModelInfoLUT(traces)
    spec = WorkloadSpec(120.0, n_requests=N_REQUESTS, slo_multiplier=10.0,
                        seed=0)

    def setup():
        return (generate_workload(traces, spec), make_scheduler("dysta", lut)), {}

    def run(requests, scheduler):
        return simulate_multi(requests, scheduler, num_accelerators=4)

    result = benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    assert len(result.requests) == N_REQUESTS
    assert result.num_batch_selects > 0
    scalar = simulate_multi(generate_workload(traces, spec),
                            make_scheduler("dysta", lut), num_accelerators=4,
                            use_batch=False)
    assert [(r.rid, r.finish_time) for r in result.requests] == [
        (r.rid, r.finish_time) for r in scalar.requests
    ]


def bench_perf_engine_fcfs(benchmark):
    """Phase-2 baseline speed: FCFS has the cheapest select path."""
    traces = benchmark_suite("attnn", n_samples=N_SAMPLES, seed=0)
    lut = ModelInfoLUT(traces)

    def setup():
        return (_fresh_workload(traces), make_scheduler("fcfs", lut)), {}

    def run(requests, scheduler):
        return simulate(requests, scheduler)

    result = benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    assert len(result.requests) == N_REQUESTS
    assert result.num_batch_selects > 0


def bench_perf_engine_deep_queue(benchmark):
    """Overload regime (queues of hundreds): the numpy scoring path."""
    traces = benchmark_suite("attnn", n_samples=N_SAMPLES, seed=0)
    lut = ModelInfoLUT(traces)
    n = 120 if SMOKE else 400

    def setup():
        spec = WorkloadSpec(120.0, n_requests=n, slo_multiplier=10.0, seed=1)
        return (generate_workload(traces, spec), make_scheduler("dysta", lut)), {}

    def run(requests, scheduler):
        return simulate(requests, scheduler)

    result = benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    assert len(result.requests) == n
    assert result.num_batch_selects > 0
    assert result.max_queue_length > 32  # deep enough to exercise numpy


def bench_perf_disabled_obs_overhead():
    """A constructed-but-disabled Observability bundle costs nothing.

    Engines collapse it to the ``obs=None`` path, so the two runs must time
    alike.  Interleaved A/B: each round times both variants back to back
    (alternating which goes first), and the best of N per variant keeps
    scheduler noise out of the comparison.
    """
    traces = benchmark_suite("attnn", n_samples=N_SAMPLES, seed=0)
    lut = ModelInfoLUT(traces)
    spec = WorkloadSpec(60.0, n_requests=N_REQUESTS, slo_multiplier=10.0,
                        seed=0)

    def timed(obs):
        requests = generate_workload(traces, spec)
        scheduler = make_scheduler("dysta", lut)
        t0 = time.perf_counter()
        simulate(requests, scheduler, obs=obs)
        return time.perf_counter() - t0

    timed(None)  # warm-up: the first run pays cold caches
    best = {"none": float("inf"), "disabled": float("inf")}
    for i in range(2 * max(ROUNDS, 5)):
        order = ("none", "disabled") if i % 2 == 0 else ("disabled", "none")
        for name in order:
            obs = None if name == "none" else Observability()
            best[name] = min(best[name], timed(obs))
    # 2% relative plus a 2 ms absolute floor against timer jitter.
    assert best["disabled"] <= 1.02 * best["none"] + 0.002, best
