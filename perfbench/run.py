"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cluster_stream --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` runs the unit once untraced and once with span wrappers on
every layer, and reports the per-layer metrics.  The metric names in the
last line are the ones ``BENCHMARK.json`` lists; the lines before it give
every figure of the run, and the full result is also written under
``.perfbench_out/`` in the checkout.  The program under test is imported
from ``src/`` of the same checkout; without it the run fails before
printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: Extra set-up runs, each in a fresh process; with the main process's own
#: set-up they give the median ``setup_s``.
SETUP_PROBES = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="input size; toy is the self-test's")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _setup(args):
    """Import the program and set the workload up.

    Returns ``(workload, seconds, normalized seconds)``; the normalized
    figure scales the set-up time by a calibration run right after it (see
    :class:`~perfbench.hostinfo.Calibrator`).
    """
    t0 = time.perf_counter()
    import repro  # noqa: F401 - the import is part of the cold cost

    from perfbench import workloads

    workload = workloads.make(args.workload, args.size, OUT / "scratch")
    workload.setup()
    seconds = time.perf_counter() - t0
    from perfbench.hostinfo import Calibrator

    calibrator = Calibrator()
    at = time.perf_counter()
    calibrator.mark(at=at)
    return workload, seconds, seconds / calibrator.factor(at, at)


def _probe_setup(args):
    """``(seconds, normalized seconds)`` of a set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_raw_s"], probe["setup_s"]


def _rate(sample, factor=None) -> float:
    """Ops per host second of one sample's segments.

    With ``factor``, each segment's seconds are first scaled to the
    reference host by the calibration marks around it.
    """
    ops = sum(seg[0] for seg in sample)
    if factor is None:
        return ops / sum(seg[1] for seg in sample)
    return ops / sum(seconds / factor(a, b) for _, seconds, a, b in sample)


def _emit(result: dict, names, correct: bool, checks) -> None:
    metrics = {name: {"value": result[name][0], "unit": result[name][1]} for name in names}
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))


def _print_lines(title: str, figures: dict) -> None:
    for name in sorted(figures):
        value, unit = figures[name]
        print(f"{title} {name} = {value:.6g} {unit}")


def _write(name: str, payload: dict) -> Path:
    path = OUT / "results" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_untraced(args, spec, load_at_start) -> int:
    workload, *setup_main = _setup(args)
    from perfbench.hostinfo import Calibrator, host_block, peak_rss_mb
    from perfbench.workloads import Checks, digest

    setup_samples = [tuple(setup_main)] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
    # The first unit would pay one-time costs (lazy imports, first calls)
    # that later units do not; a toy-size unit pays them untimed.
    warm = workload.warm_up(args.seed)
    units = []
    calibrator = workload.calibrator = Calibrator()
    t_start = time.perf_counter()
    calibrator.mark()
    while True:
        units.append(workload.run_unit(args.seed))
        calibrator.mark()
        if time.perf_counter() - t_start >= args.seconds:
            break
    checks = Checks()
    for unit in [warm] + units:
        checks.merge(unit.checks)
    digests = [digest(u.sim_rows) for u in units]
    checks.check(len(set(digests)) == 1, f"unit digests differ across repeats: {digests}")

    samples = [s for u in units for s in u.samples]
    rates = [_rate(sample) for sample in samples]
    normalized = [_rate(sample, calibrator.factor) for sample in samples]
    e2e = {
        "setup_s": (statistics.median(n for _, n in setup_samples), "s"),
        "setup_raw_s": (statistics.median(r for r, _ in setup_samples), "s"),
        "norm_ops_per_s": (statistics.median(normalized), "1/s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    # The workload's own end-to-end figures: host rates as medians over
    # units, simulated statistics (identical in every unit) from the first.
    report = dict(e2e)
    for name, (value, unit) in units[0].report.items():
        if unit == "1/s":
            value = statistics.median(u.report[name][0] for u in units)
        report[name] = (value, unit)
    report["failed_frac"] = (checks.failed / checks.attempted if checks.attempted else 1.0, "frac")

    host = host_block(load_at_start)
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(units)} timed units, {len(samples)} samples, "
          f"{time.perf_counter() - t_start:.2f} s measured")
    print(f"host {json.dumps(host, sort_keys=True)}")
    _print_lines("metric", report)
    print(f"schedule_digest {digests[0]}")
    for problem in checks.problems:
        print(f"problem {problem}")
    _write(f"{args.workload}-seed{args.seed}-trace0.json", {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "host": host, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "schedule_digest": digests[0], "setup_samples_s": setup_samples,
        "samples": rates, "normalized_samples": normalized,
        "calibration_ns": [ns for _, ns in calibrator.log], "units": len(units),
        "attempted": checks.attempted, "failed": checks.failed,
        "problems": checks.problems,
    })
    _emit(e2e, [m["name"] for m in spec["end_to_end"]], checks.failed == 0, checks)
    return 0


def run_traced(args, spec, load_at_start) -> int:
    import repro  # noqa: F401 - before wrapping, so every layer module is loaded

    from perfbench import layers, tracing, workloads
    from perfbench.hostinfo import host_block

    rec = tracing.SpanRecorder()
    tracing.install_cold(rec)
    workload = workloads.make(args.workload, args.size, OUT / "scratch")
    rec.begin_phase("setup")
    workload.setup()
    rec.begin_phase("warmup")
    warm = workload.warm_up(args.seed)
    rec.begin_phase("reference")
    ref = workload.run_unit(args.seed)
    # The program's own profiler and ledger run in a unit of their own, so
    # their cost stays out of the span timings and the tracing overhead.
    rec.begin_phase("observed")
    observed = workload.run_unit(args.seed, observe=True)
    rec.end_phase()
    tracing.install_hot(rec)
    rec.begin_phase("traced")
    traced = workload.run_unit(args.seed, rec=rec)
    rec.end_phase()

    units = (ref, observed, traced)
    checks = workloads.Checks()
    for unit in (warm,) + units:
        checks.merge(unit.checks)
    digests = [workloads.digest(u.sim_rows) for u in units]
    checks.check(len(set(digests)) == 1,
                 f"digests of untraced, observed and traced units differ: {digests}")
    checks.merge(layers.cross_check(rec, traced))
    per_layer = layers.compute(rec, ref, observed, traced)

    spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.npz"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    rec.write(spans_path)
    host = host_block(load_at_start)
    print(f"workload {args.workload} seed {args.seed} size {args.size}: traced run, "
          f"{len(rec)} spans written to {spans_path.relative_to(ROOT)}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    _print_lines("layer", per_layer)
    print(f"schedule_digest {digests[0]} traced {digests[-1]}")
    for problem in checks.problems:
        print(f"problem {problem}")
    _write(f"{args.workload}-seed{args.seed}-trace1.json", {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "host": host,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "schedule_digest": digests[0], "traced_digest": digests[-1],
        "attempted": checks.attempted, "failed": checks.failed,
        "problems": checks.problems,
    })
    _emit(per_layer, [m["name"] for m in spec["per_layer"]], checks.failed == 0, checks)
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    load_at_start = os.getloadavg()
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC / 'repro'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(SRC), str(ROOT)] + [p for p in sys.path if p != here]
    if args.setup_probe:
        _, seconds, normalized = _setup(args)
        print(json.dumps({"setup_raw_s": seconds, "setup_s": normalized}))
        return 0
    if args.trace:
        return run_traced(args, spec, load_at_start)
    return run_untraced(args, spec, load_at_start)


if __name__ == "__main__":
    sys.exit(main())
