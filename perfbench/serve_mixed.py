"""serve-mixed: a ``repro-sim serve`` daemon under a closed loop of clients.

Setup pre-stores the disk-class results in the daemon's cache, starts
the daemon :data:`common.SETUP_SAMPLES` times (each start is a setup
sample, from spawn until ``/healthz`` answers; the last one stays up)
and runs the warm keys the dedup class resubmits.  The timed schedule
is two halves with equal class counts, each shuffled by the seed; in a
traced run the recorder in the daemon is off for the first half and on
for the second, so the overhead ratio compares like with like.

Request classes:

* ``cold``  — a fresh trace seed: the daemon runs a reference session,
  stores the result in its cache and encodes it;
* ``disk``  — a key stored at setup: cache load, decode and re-encode;
* ``dedup`` — a finished warm key: answered from single-flight memory.
"""

from __future__ import annotations

import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import common
import hostspeed
import spans
from common import digest

CLASSES = ("cold", "disk", "dedup")


class Daemon:
    """One launcher process serving on an ephemeral port."""

    def __init__(self, cache_dir, log_path, trace_dir=None) -> None:
        command = [
            sys.executable,
            str(common.BENCH_DIR / "serve_launcher.py"),
            str(trace_dir) if trace_dir is not None else "-",
            "--cache-dir", str(cache_dir),
            "serve", "--port", "0",
            "--max-workers", str(common.SERVE_WORKERS),
            "--drain-grace", "10",
        ]
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.spawned = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=common.ROOT, env=common.child_env(),
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.address = self._await_address()
        from repro.serve.client import ServeClient

        self.client = ServeClient(self.address, retries=0)
        deadline = time.monotonic() + 60
        while True:
            try:
                self.client.health()
                break
            except OSError:
                if time.monotonic() > deadline:
                    self.stop()
                    common.fail("serve daemon never answered /healthz", 1)
                time.sleep(0.005)
        self.ready = time.monotonic()

    def _await_address(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = re.search(rb"listening on (\S+)", self.log_path.read_bytes())
            if match:
                return match.group(1).decode()
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        common.fail(f"serve daemon did not start; log: {self.log_path}", 1)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _schedule(rng: random.Random, per_class: int, specs: dict) -> list[list[tuple]]:
    """Two halves of (class, spec) entries, equal class counts in each."""
    halves = []
    for half in range(2):
        lo, hi = half * per_class // 2, (half + 1) * per_class // 2
        entries = [("cold", spec) for spec in specs["cold"][lo:hi]]
        entries += [("disk", spec) for spec in specs["disk"][lo:hi]]
        entries += [
            ("dedup", specs["warm"][i % len(specs["warm"])]) for i in range(lo, hi)
        ]
        rng.shuffle(entries)
        halves.append(entries)
    return halves


def _closed_loop(address: str, entries: list[tuple]) -> tuple[float, list[dict]]:
    """Run ``entries`` with N client threads, one client each; returns wall, records."""
    from repro.serve.client import ServeClient

    lock = threading.Lock()
    pending = iter(entries)
    records: list[dict] = []

    def worker() -> None:
        client = ServeClient(address, retries=0)
        while True:
            with lock:
                entry = next(pending, None)
            if entry is None:
                return
            kind, spec = entry
            record = {"class": kind, "spec": spec, "ok": False}
            start = time.perf_counter()
            try:
                job = client.submit(spec)
                body = client.result_bytes(job["job_id"], wait=True)
                record["latency"] = time.perf_counter() - start
                record.update(ok=True, job_id=job["job_id"], digest=digest(body))
            except Exception as exc:  # a failed request is counted, not fatal
                record["error"] = f"{type(exc).__name__}: {exc}"
            with lock:
                records.append(record)

    threads = [threading.Thread(target=worker) for _ in range(common.SERVE_CLIENT_THREADS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, records


def _in_process(specs, cache_dir=None) -> tuple[dict[str, str], list[dict]]:
    """Digest and facts of each spec's in-process canonical bytes.

    Runs through a 2-worker BatchRunner; with ``cache_dir`` the results
    are also stored there, which is how the disk class is prepared.
    """
    from repro.batch import BatchRunner
    from repro.serialize import result_to_dict, spec_key
    from repro.serve.server import canonical_result_bytes

    runner = BatchRunner(max_workers=common.SERVE_WORKERS, cache_dir=cache_dir)
    digests, facts = {}, []
    for spec, result in zip(specs, runner.run(specs), strict=True):
        data = canonical_result_bytes(result_to_dict(result))
        digests[spec_key(spec)] = digest(data)
        facts.append(common.result_facts(result, len(data)))
    return digests, facts


def run(args) -> dict:
    from repro.serialize import spec_key

    # Even, so both halves of the schedule hold the same requests per class.
    per_class = 2 * math.ceil(common.SERVE_PER_CLASS_PER_SECOND * args.seconds / 2)
    rng = random.Random(args.seed)
    seeds = rng.sample(range(1, 2**31), 2 * per_class + common.SERVE_WARM_KEYS)
    specs = {
        "cold": [common.serve_spec(s) for s in seeds[:per_class]],
        "disk": [common.serve_spec(s) for s in seeds[per_class : 2 * per_class]],
        "warm": [common.serve_spec(s) for s in seeds[2 * per_class :]],
    }
    halves = _schedule(rng, per_class, specs)
    work = common.WORK / f"serve-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cache_dir = work / "cache"
    trace_dir = work / "trace" if args.trace else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
    checks: list[dict] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    # Fixture: the disk class reads results stored before the daemon starts.
    expected, facts = _in_process(specs["disk"], cache_dir)

    setups = []
    daemon = None
    try:
        for sample in range(common.SETUP_SAMPLES):
            last = sample == common.SETUP_SAMPLES - 1
            before = hostspeed.probe()
            daemon = Daemon(cache_dir, work / f"daemon-{sample}.log", trace_dir if last else None)
            scale = hostspeed.scale(before, hostspeed.probe())
            setups.append((daemon.ready - daemon.spawned) * scale)
            if not last:
                daemon.stop()
        served: dict[str, str] = {}
        for spec in specs["warm"]:
            job = daemon.client.submit(spec)
            served[spec_key(spec)] = digest(daemon.client.result_bytes(job["job_id"]))

        walls, records = [], []
        unscaled_wall = 0.0
        for index, entries in enumerate(halves):
            if trace_dir is not None and index == 1:
                (trace_dir / "enable").touch()
                deadline = time.monotonic() + 10
                while not (trace_dir / "enabled").exists():
                    if time.monotonic() > deadline:
                        common.fail("daemon never enabled its span recorder", 1)
                    time.sleep(0.005)
            # The daemon does the work; this process mostly waits on
            # sockets, so a sampler thread can watch the host meanwhile.
            with hostspeed.Sampler() as sampler:
                wall, half_records = _closed_loop(daemon.address, entries)
            scale = sampler.scale()
            walls.append(wall * scale)
            unscaled_wall += wall
            for record in half_records:
                record["half"] = index
                if record["ok"]:
                    record["scaled"] = record["latency"] * scale
            records.extend(half_records)
        timestamps = {}
        if trace_dir is not None:
            for record in records:
                if record["ok"] and record["half"] == 1 and record["class"] != "dedup":
                    timestamps[record["job_id"]] = daemon.client.status(record["job_id"])
        stats = daemon.client.stats()
        peak_rss = common.vm_hwm_mib(daemon.process.pid)
    finally:
        if daemon is not None:
            daemon.stop()

    # -- output checks (outside the timed region) ---------------------------------
    more_digests, more_facts = _in_process(specs["cold"] + specs["warm"])
    expected.update(more_digests)
    facts += more_facts
    if args.corrupt:
        key = spec_key(specs["cold"][0])
        expected[key] = digest(b"corrupted " + expected[key].encode())
    check(
        "warm-up bodies equal in-process canonical bytes",
        all(expected[key] == got for key, got in served.items()),
    )
    wrong = [r for r in records if r["ok"] and r["digest"] != expected[spec_key(r["spec"])]]
    check(
        "served bodies equal in-process canonical bytes",
        not wrong,
        f"{len(wrong)} of {len(records)} bodies differ",
    )
    n_cold, n_disk, n_dedup = (
        sum(1 for entries in halves for kind, _ in entries if kind == c) for c in CLASSES
    )
    warm = len(specs["warm"])
    want = {
        "simulations_run": warm + n_cold,
        "cache_misses": warm + n_cold,
        "cache_hits": n_disk,
        "deduped_submissions": n_dedup,
        "submissions": warm + n_cold + n_disk,
    }
    got = {name: stats[name] for name in want}
    check("/stats counts equal the schedule", got == want, f"got {got}, want {want}")
    failed = [r for r in records if not r["ok"]]
    check("no failed requests", not failed, "; ".join(r["error"] for r in failed[:3]))

    # -- metrics ----------------------------------------------------------------------
    # A failed request counts as missing every latency bound.
    latencies = {
        kind: [1000.0 * r["scaled"] if r["ok"] else math.inf
               for r in records if r["class"] == kind]
        for kind in CLASSES
    }
    wall = sum(walls)
    completed = sum(1 for r in records if r["ok"])
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": completed * common.SERVE_JOBS / wall,
        "cold_p50_ms": statistics.median(latencies["cold"]),
        "peak_rss_mib": peak_rss,
    }
    extra = {
        "requests_per_s": completed / wall,
        "unscaled_cold_p50_ms": 1000.0 * statistics.median(
            r["latency"] for r in records if r["ok"] and r["class"] == "cold"
        ),
        "unscaled_jobs_per_s": completed * common.SERVE_JOBS / unscaled_wall,
    }
    for kind in CLASSES:
        if kind != "cold":  # cold_p50_ms is an end-to-end metric
            extra[f"{kind}_p50_ms"] = statistics.median(latencies[kind])
        extra[f"{kind}_p90_ms"] = common.percentile(latencies[kind], 90)
    extra["failed_ratio"] = len(failed) / len(records)
    layers, recorded = {}, None
    if trace_dir is not None:
        daemon_records = spans.load_records([trace_dir / "daemon.json"])
        recorded = spans.merge(daemon_records)
        layers = _layers(daemon_records, records, timestamps, stats, walls, facts)
    shutil.rmtree(work, ignore_errors=True)
    return {
        "metrics": metrics,
        "extra": extra,
        "samples": {f"{kind} requests": len(latencies[kind]) for kind in CLASSES}
        | {"setup samples": len(setups)},
        "layers": layers,
        "spans": recorded,
        "checks": checks,
        "attempted": len(records),
        "failed": len(failed),
    }


def _layers(daemon_records, records, timestamps, stats, walls, facts) -> dict:
    """Per-layer metrics of the traced half, from daemon spans and timestamps.

    Result facts (events, queue depth, reduced share, bytes per job)
    describe the distinct keys served.
    """
    traced = [r for r in records if r["half"] == 1]
    layers, _ = spans.layer_metrics(daemon_records, len(traced))
    combined = common.combine_facts(facts)
    del combined["backfilled_starts"]
    layers.update(combined)

    def median_ms(values) -> float:
        return 1000.0 * statistics.median(values) if values else 0.0

    stamps = {kind: [] for kind in CLASSES}
    for record in traced:
        status = timestamps.get(record.get("job_id"))
        if status is not None and record["class"] != "dedup":
            stamps[record["class"]].append((record, status))
    both = stamps["cold"] + stamps["disk"]
    layers["serve.queue_wait_ms"] = median_ms(
        [s["started_at"] - s["submitted_at"] for _, s in both]
    )
    for kind in ("cold", "disk"):
        layers[f"serve.exec_ms.{kind}"] = median_ms(
            [s["finished_at"] - s["started_at"] for _, s in stamps[kind]]
        )
    layers["serve.transport_ms"] = median_ms(
        [r["latency"] - (s["finished_at"] - s["submitted_at"]) for r, s in both]
    )
    layers["serve.simulations_run"] = stats["simulations_run"]
    layers["serve.deduped_submissions"] = stats["deduped_submissions"]
    layers["serve.cache_hits"] = stats["cache_hits"]
    layers["trace.overhead_ratio"] = walls[1] / walls[0]
    return layers
