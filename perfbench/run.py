#!/usr/bin/env python3
"""Benchmark of vlinkpoly: one workload, one single-threaded process.

    python3 perfbench/run.py --workload verify_virtual --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
The run attempts whole rounds of operations until the timed operations
add up to --seconds, checks every output (untimed), and prints one JSON
object as the last line of stdout: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json; with --trace 1 the public functions are wrapped at run
time (spans.py) and the metrics are the per-layer ones, each per
operation. A fuller record goes to perfbench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 10
CALIBRATION_REPS = 3


def calibrate() -> list[float]:
    """Seconds per pass of a fixed pure-Python loop, to show host-speed drift."""
    samples = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(time.perf_counter() - t0)
    return samples


def probe_setup(workload: str, seed: int) -> float:
    """One set-up sample in a fresh interpreter (probe.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    calib = calibrate()
    t_start = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    vp = workloads.vp
    if not os.path.abspath(vp.__file__).startswith(SRC + os.sep):
        print(f"error: vlinkpoly was imported from {vp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(vp)

    durations: dict[str, list[float]] = {}
    timed = 0.0
    items = attempted = failed = rounds = 0
    errors: list[str] = []
    setup_s = None
    cases = workload.round(args.seed, 0)
    while True:
        for case in cases:
            if setup_s is None:
                setup_s = time.perf_counter() - t_start
            gc.collect()
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                output = workload.run(case)
            except Exception as exc:  # a failed operation is counted, not fatal
                output = exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            attempted += 1
            timed += dt
            if isinstance(output, Exception):
                failed += 1
                errors.append(f"{case.kind}: {type(output).__name__}: {output}")
                continue
            items += case.items
            durations.setdefault(case.kind, []).append(dt)
            try:
                workload.check(case, output)
            except workloads.CheckError as exc:
                errors.append(f"check failed on {case.kind}: {exc}")
            del output
        rounds += 1
        # The wall-clock limit only matters if operations fail instantly.
        if timed >= args.seconds or time.perf_counter() - t_start > 2 * args.seconds + 30:
            break
        cases = workload.round(args.seed, rounds)
    check_failures = len(errors) - failed

    calib += calibrate()
    setup_samples = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    kind_medians = {k: statistics.median(v) for k, v in durations.items()}
    values: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "items_per_s": (items / timed, "1/s"),
        "op_p50_ms": (1000 * statistics.fmean(kind_medians.values()), "ms") if kind_medians else (0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "host.calib_s": (statistics.median(calib), "s"),
    }
    if tracer:
        for layer, total in tracer.self_s.items():
            values[f"{layer}_s"] = (total / attempted, "s/op")
        for name, total in tracer.counts.items():
            values[name] = (total / attempted, "count/op")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in manifest[section]:
        value, unit = values[spec["name"]]
        if unit != spec["unit"]:
            raise SystemExit(f"error: {spec['name']} is measured in {unit}, BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "rounds": rounds, "attempted": attempted, "failed": failed, "items": items, "timed_s": timed,
        "op_s": durations, "setup_samples_s": setup_samples, "calib_s": calib,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "absent_layers": tracer.absent if tracer else [], "errors": errors,
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in errors[:10]:
        print(line, file=sys.stderr)
    if tracer and tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}", file=sys.stderr)
    print(json.dumps({"correct": check_failures == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
