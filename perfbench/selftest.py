"""Fast self-test of the benchmark (about a minute on 2 CPUs).

Runs every workload at toy size, untraced and traced, and checks that:

* the last line is the result object, with exactly the metrics and units
  ``BENCHMARK.json`` lists for the mode, ``correct`` true and no failures;
* the written result holds every end-to-end figure the workload reports
  (``perfbench/workloads.json``) and every per-layer metric, with
  ``failed_frac == 0``;
* the traced run's schedule digest equals the untraced run's;
* a directory holding only ``BENCHMARK.json`` and ``perfbench/`` fails
  without printing a result.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
SEED = 7


def _run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = RUN + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    path = ROOT / ".perfbench_out" / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text())


def _check_last_line(proc, expected: dict, errors: list, label: str) -> None:
    if proc.returncode != 0:
        errors.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(last)}")
    if not last["correct"] or last["failed"] != 0 or last["attempted"] < 1:
        errors.append(f"{label}: correct={last['correct']} failed={last['failed']} "
                      f"attempted={last['attempted']}")
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    if got != expected:
        errors.append(f"{label}: metrics {got} != {expected}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layer_names = set()
    for name in manifest["per_layer"]:
        if "<phase>" in name:
            for phase in ("arrivals", "route", "select", "dispatch", "queue_update",
                          "event_heap", "execute"):
                layer_names.add(name.replace("<phase>", phase))
        else:
            layer_names.add(name)
    errors: list = []
    for workload, info in manifest["workloads"].items():
        untraced = _run(workload, 0)
        _check_last_line(untraced, e2e, errors, f"{workload} trace 0")
        traced = _run(workload, 1)
        _check_last_line(traced, per_layer, errors, f"{workload} trace 1")
        if errors:
            continue
        r0, r1 = _result(workload, 0), _result(workload, 1)
        missing = [m for m in info["reports"] if m != "schedule_digest" and m not in r0["metrics"]]
        if missing:
            errors.append(f"{workload}: end-to-end figures missing: {missing}")
        if r0["metrics"]["failed_frac"]["value"] != 0:
            errors.append(f"{workload}: failed_frac {r0['metrics']['failed_frac']}")
        missing = sorted(layer_names - set(r1["per_layer"]))
        if missing:
            errors.append(f"{workload}: per-layer metrics missing: {missing}")
        if not (r0["schedule_digest"] == r1["schedule_digest"] == r1["traced_digest"]):
            errors.append(f"{workload}: digests {r0['schedule_digest']} "
                          f"{r1['schedule_digest']} {r1['traced_digest']} differ")
        print(f"ok {workload}: digest {r0['schedule_digest']}, "
              f"overhead {r1['per_layer']['trace.overhead_frac']['value']:+.0%}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(spec["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("a checkout without the program printed a result")
    shutil.rmtree(bare)

    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
