"""The repository benchmark: four workloads, measured end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload deep-queue --seed 1 --seconds 10 --trace 0

Workloads (why each exists is recorded in BENCHMARK.json):

* ``deep-queue`` — SDSC, 50k jobs, EASY, DVFS(2,NO) on the columnar
  lane; one operation is ``Simulation(spec).run()`` plus the canonical
  result bytes.
* ``paper-sweep`` — the default ``repro-sim sweep`` grid (65 specs),
  aggregates-only, through ``run_sweep`` with 2 workers and a fresh
  cache and manifest per sweep.
* ``serve-mixed`` — a ``repro-sim serve`` daemon driven by a closed loop
  of 2 client threads over cold, disk-cached and deduplicated requests.
* ``conservative-sleep`` — CTC, conservative backfilling with the
  in-engine ``default`` sleep preset, DVFS(2,NO), columnar lane
  requested; one operation simulates one of twenty 250-job traces.

Timed end-to-end metrics are scaled to a reference host speed (see
``hostspeed.py``); the unscaled values are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with a span recorder wrapped around each layer's public
functions and prints the per-layer metrics.  Human-readable lines come
first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.  ``--corrupt`` alters one
expected value, so the checks must fail (the benchmark's own tests use
it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import common
import hostspeed

WORKLOADS = ("deep-queue", "paper-sweep", "serve-mixed", "conservative-sleep")

#: End-to-end metrics every workload reports (name -> unit); these are
#: the ones BENCHMARK.json bounds.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "cold_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics of the traced run: name -> (unit, the end-to-end
#: metric it should move and where).  Layers are named after modules;
#: a layer's metrics read 0 on workloads where it does no work.  Times
#: and counts are per operation (one simulation, one sweep, one request).
PER_LAYER = {
    "workloads.materialise_s": ("s", "setup_s on deep-queue, conservative-sleep; runs_per_s on paper-sweep"),
    "workloads.jobs": ("count", "setup_s on deep-queue, conservative-sleep; runs_per_s on paper-sweep"),
    "columnar.simulate_s": ("s", "jobs_per_s on deep-queue"),
    "columnar.fallback_ratio": ("ratio", "jobs_per_s on deep-queue (0) and conservative-sleep (1)"),
    "scheduling.run_s": ("s", "runs_per_s on paper-sweep"),
    "scheduling.events": ("count", "count; repeats exactly"),
    "session.run_for_s": ("s", "cold_p50_ms on serve-mixed"),
    "queue.backfill_calls": ("count", "jobs_per_s on deep-queue"),
    "queue.backfill_candidates": ("count", "jobs_per_s on deep-queue"),
    "queue.backfill_s": ("s", "jobs_per_s on deep-queue"),
    "queue.admit_ratio": ("ratio", "jobs_per_s on deep-queue"),
    "scheduling.peak_queue_depth": ("count", "count; repeats exactly"),
    "profile.calls": ("count", "jobs_per_s on conservative-sleep"),
    "profile.s": ("s", "jobs_per_s on conservative-sleep"),
    "power.calls": ("count", "jobs_per_s on conservative-sleep"),
    "power.s": ("s", "jobs_per_s on conservative-sleep"),
    "core.select_gear_calls": ("count", "runs_per_s on paper-sweep"),
    "core.select_gear_s": ("s", "runs_per_s on paper-sweep"),
    "core.reduced_ratio": ("ratio", "canary; repeats exactly"),
    "result.to_aggregates_s": ("s", "runs_per_s on paper-sweep"),
    "serialize.to_dict_s": ("s", "jobs_per_s on deep-queue; cold_p50_ms, disk_p50_ms on serve-mixed"),
    "serialize.dumps_s": ("s", "jobs_per_s on deep-queue; cold_p50_ms, disk_p50_ms on serve-mixed"),
    "serialize.from_dict_s": ("s", "disk_p50_ms on serve-mixed"),
    "serialize.bytes_per_job": ("B/job", "count; repeats exactly"),
    "batch.run_s": ("s", "runs_per_s on paper-sweep"),
    "batch.worker_busy_ratio": ("ratio", "runs_per_s on paper-sweep"),
    "batch.cache_store_s": ("s", "runs_per_s on paper-sweep; cold_p50_ms on serve-mixed"),
    "batch.cache_load_s": ("s", "disk_p50_ms on serve-mixed"),
    "batch.cache_hits": ("count", "disk_p50_ms on serve-mixed"),
    "batch.cache_misses": ("count", "disk_p50_ms on serve-mixed"),
    "sweep.manifest_s": ("s", "runs_per_s on paper-sweep"),
    "serve.queue_wait_ms": ("ms", "cold_p50_ms, disk_p50_ms on serve-mixed"),
    "serve.exec_ms.cold": ("ms", "cold_p50_ms on serve-mixed"),
    "serve.exec_ms.disk": ("ms", "disk_p50_ms on serve-mixed"),
    "serve.transport_ms": ("ms", "dedup_p50_ms on serve-mixed"),
    "serve.simulations_run": ("count", "count; equals the schedule"),
    "serve.deduped_submissions": ("count", "count; equals the schedule"),
    "serve.cache_hits": ("count", "count; equals the schedule"),
    "trace.overhead_ratio": ("ratio", "traced over untraced operation time"),
    "self_s.workloads": ("s", "self time of the layer"),
    "self_s.sim.columnar": ("s", "self time of the layer"),
    "self_s.scheduling": ("s", "self time of the layer"),
    "self_s.scheduling.queue": ("s", "self time of the layer"),
    "self_s.cluster.profile": ("s", "self time of the layer"),
    "self_s.cluster.power": ("s", "self time of the layer"),
    "self_s.core": ("s", "self time of the layer"),
    "self_s.scheduling.result": ("s", "self time of the layer"),
    "self_s.serialize": ("s", "self time of the layer"),
    "self_s.batch": ("s", "self time of the layer"),
    "self_s.sweep": ("s", "self time of the layer"),
}


def _spawn_child(args, *extra: str) -> tuple[float, dict]:
    """Run child.py once; returns (spawn stamp, its JSON document)."""
    command = [
        sys.executable,
        str(common.BENCH_DIR / "child.py"),
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(args.trace),
        *extra,
    ]
    spawned = time.monotonic()
    completed = subprocess.run(
        command, cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE,
        timeout=170, check=False,
    )
    if completed.returncode != 0:
        common.fail(f"{args.workload} child exited with {completed.returncode}", 1)
    lines = completed.stdout.decode().strip().splitlines()
    return spawned, json.loads(lines[-1])


def run_in_process(args) -> dict:
    """deep-queue, conservative-sleep and paper-sweep (a fresh child each)."""
    flags = ["--corrupt"] if args.corrupt else []
    # Setup is sampled in setup-only children, each bracketed by host
    # probes taken while no other benchmark process runs.  Traced runs
    # report no setup time and skip them.
    setups = []
    for _ in range(0 if args.trace else common.SETUP_SAMPLES):
        before = hostspeed.probe()
        spawned, doc = _spawn_child(args, "--setup-only")
        setups.append((doc["ready"] - spawned) * hostspeed.scale(before, hostspeed.probe()))
    _, doc = _spawn_child(args, *flags)
    ops = doc["op_seconds"]
    median = statistics.median(ops)
    metrics = {
        "setup_s": statistics.median(setups) if setups else None,
        "jobs_per_s": doc["jobs_per_op"] / median,
        "cold_p50_ms": 1000.0 * median,
        "peak_rss_mib": doc["peak_rss_mib"],
    }
    extra = {
        "failed_ratio": doc["failed"] / doc["attempted"],
        "unscaled_cold_p50_ms": 1000.0 * statistics.median(doc["raw_op_seconds"]),
        "unscaled_jobs_per_s": doc["jobs_per_op"] / statistics.median(doc["raw_op_seconds"]),
    }
    samples = {"operations": len(ops), "setup samples": len(setups)}
    if args.workload == "paper-sweep":
        extra["runs_per_s"] = doc["runs_per_op"] / median
    return {
        "metrics": metrics,
        "extra": extra,
        "samples": samples,
        "layers": doc["layers"],
        "spans": doc.get("spans"),
        "checks": doc["checks"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
    }


EXTRA_UNITS = {
    "runs_per_s": "runs/s",
    "requests_per_s": "req/s",
    "cold_p90_ms": "ms",
    "disk_p50_ms": "ms",
    "disk_p90_ms": "ms",
    "dedup_p50_ms": "ms",
    "dedup_p90_ms": "ms",
    "failed_ratio": "ratio",
    "unscaled_cold_p50_ms": "ms",
    "unscaled_jobs_per_s": "jobs/s",
}


def _environment_lines(args) -> list[str]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        f"python {platform.python_version()}  numpy {numpy_version}  nproc {os.cpu_count()}",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    common.use_checkout_sources()
    common.WORK.mkdir(exist_ok=True)

    if args.workload == "serve-mixed":
        import serve_mixed

        outcome = serve_mixed.run(args)
    else:
        outcome = run_in_process(args)

    for line in _environment_lines(args):
        print(line)
    for check in outcome["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"check {status} {check['name']}" + ("" if check["ok"] else f": {check['detail']}"))
    print("samples " + ", ".join(f"{k} {v}" for k, v in outcome["samples"].items()))
    if args.trace:
        trace_file = common.WORK / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(outcome["spans"]), encoding="utf-8")
        print(f"spans written to {trace_file}")
        chosen = {}
        for name, (unit, moves) in PER_LAYER.items():
            chosen[name] = (outcome["layers"].get(name, 0.0), unit)
            print(f"{name:28s} {chosen[name][0]:14.6g} {unit:6s} -> {moves}")
    else:
        for name, value in outcome["extra"].items():
            print(f"{name:28s} {value:14.6g} {EXTRA_UNITS[name]}")
        chosen = {name: (outcome["metrics"][name], unit) for name, unit in END_TO_END.items()}
        for name, (value, unit) in chosen.items():
            print(f"{name:28s} {value:14.6g} {unit}")
    correct = all(check["ok"] for check in outcome["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
