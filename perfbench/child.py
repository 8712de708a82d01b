"""One fresh process running an in-process workload of the benchmark.

Run by ``run.py``, never by hand::

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE [--setup-only] [--corrupt]

``WORKLOAD`` is ``deep-queue``, ``conservative-sleep`` or
``paper-sweep``.  The process sets up (imports, and for the
single-simulation workloads the trace materialisation), notes the
monotonic clock, and with ``--setup-only`` stops there: the parent
takes setup time from its own spawn stamp to that note.  Otherwise it
runs timed operations for ``SECONDS``, reads its own VmHWM, then checks
the outputs outside the timed region.  The last stdout line is one JSON
document for the parent.  ``--corrupt`` alters one expected value so the
checks must fail (used by the benchmark's own tests).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time

import common
import hostspeed
import spans
from common import digest

SINGLE_RUN_SPECS = {
    "deep-queue": common.deep_queue_specs,
    "conservative-sleep": common.conservative_sleep_specs,
}


class Report:
    """What the child hands back to the parent."""

    def __init__(self) -> None:
        self.doc: dict = {"checks": [], "attempted": 0, "failed": 0, "layers": {}}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.doc["checks"].append({"name": name, "ok": bool(ok), "detail": detail})


def _recorder(trace: bool, spill_dir=None):
    if not trace:
        return None
    recorder = spans.Recorder()
    recorder.spill_dir = spill_dir
    spans.install(recorder)
    return recorder


def run_single(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool,
               corrupt: bool) -> dict:
    """deep-queue / conservative-sleep: simulations plus their canonical bytes.

    One operation simulates one trace and encodes the result.  A round
    runs every trace of the workload once (one for deep-queue, several
    for conservative-sleep); rounds repeat for ``seconds``.
    """
    recorder = _recorder(trace)
    from repro.api import Simulation
    from repro.serialize import result_to_dict
    from repro.serve.server import canonical_result_bytes

    specs = SINGLE_RUN_SPECS[workload](seed)
    if recorder is not None:
        recorder.enabled = True
    traces = []
    for spec in specs:
        setup = Simulation(spec)
        traces.append((spec, setup.jobs, setup.machine))
    ready = time.monotonic()
    report = Report()
    report.doc.update(ready=ready, jobs_per_op=len(traces[0][1]))
    if recorder is not None:
        setup_records = recorder.snapshot()
        recorder.reset()
        recorder.enabled = False
    if setup_only:
        return report.doc

    stages = []
    for spec, jobs, machine in traces:
        stages.append(
            lambda _r, spec=spec, jobs=jobs, machine=machine:
            Simulation(spec, jobs=jobs, machine=machine).run()
        )
        stages.append(lambda result: canonical_result_bytes(result_to_dict(result)))

    raw: list[float] = []
    plain: list[float] = []
    traced: list[float] = []
    rounds = {False: 0, True: 0}
    digests: set[tuple[str, ...]] = set()
    facts: set[tuple] = set()
    traced_facts: list[dict] = []
    elapsed = 0.0
    # Untraced runs time every round with the recorder off.  Traced runs
    # alternate off/on rounds, so the overhead ratio compares neighbours
    # under the same conditions.
    while elapsed < seconds or not rounds[False] or (trace and not rounds[True]):
        tracing = trace and rounds[True] < rounds[False]
        if recorder is not None:
            recorder.enabled = tracing
        report.doc["attempted"] += len(traces)
        try:
            seconds_taken, scaled, outputs = hostspeed.staged(stages)
        except Exception as exc:  # a failed round is counted, not fatal
            report.doc["failed"] += len(traces)
            report.check("operation", False, f"{type(exc).__name__}: {exc}")
            break
        finally:
            if recorder is not None:
                recorder.enabled = False
        rounds[tracing] += 1
        # Each operation is a (simulate, encode) pair of stages.
        (traced if tracing else plain).extend(map(sum, zip(scaled[0::2], scaled[1::2])))
        if not tracing:
            raw.extend(map(sum, zip(seconds_taken[0::2], seconds_taken[1::2])))
        elapsed += sum(seconds_taken)
        results, documents = outputs[0::2], outputs[1::2]
        digests.add(tuple(digest(data) for data in documents))
        facts.add(tuple(
            (r.events_processed, r.reduced_jobs, r.job_count, len(data))
            for r, data in zip(results, documents, strict=True)
        ))
        if tracing:
            traced_facts = [
                common.result_facts(r, len(data))
                for r, data in zip(results, documents, strict=True)
            ]
        del outputs, results, documents
    report.doc["peak_rss_mib"] = common.vm_hwm_mib()
    report.doc.update(op_seconds=plain, raw_op_seconds=raw)

    report.check("repeatable bytes", len(digests) == 1, f"{len(digests)} distinct digests")
    report.check("repeatable counts", len(facts) == 1, f"{len(facts)} distinct count sets")
    if not plain:
        return report.doc
    expected = tuple(
        digest(canonical_result_bytes(result_to_dict(
            Simulation(spec.with_engine("reference"), jobs=jobs, machine=machine).run()
        )))
        for spec, jobs, machine in traces
    )
    if corrupt:
        expected = (digest(b"corrupted " + expected[0].encode()), *expected[1:])
    report.check(
        "bytes equal the reference lane",
        digests == {expected},
        f"got {sorted(digests)}, reference {expected}",
    )
    if recorder is not None:
        report.doc["spans"] = spans.merge([setup_records, recorder.snapshot()])
        layers, _ = spans.layer_metrics([recorder.snapshot()], len(traced))
        # The traces are materialised once, at setup, for the whole run.
        setup_layers, _ = spans.layer_metrics([setup_records], 1)
        for name in ("workloads.materialise_s", "workloads.jobs", "self_s.workloads"):
            layers[name] = setup_layers[name]
        combined = common.combine_facts(traced_facts)
        candidates = layers["queue.backfill_candidates"]
        backfilled = combined.pop("backfilled_starts")
        layers.update(combined)
        layers["queue.admit_ratio"] = backfilled / candidates if candidates else 0.0
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        report.doc["layers"] = layers
    return report.doc


def run_sweep_workload(seed: int, seconds: float, trace: bool, setup_only: bool,
                       corrupt: bool) -> dict:
    """paper-sweep: the default sweep grid through run_sweep, cold each time."""
    spill_dir = common.WORK / f"spans-{os.getpid()}"
    if trace:
        shutil.rmtree(spill_dir, ignore_errors=True)
        spill_dir.mkdir(parents=True)
    recorder = _recorder(trace, spill_dir)
    from repro.batch import BatchRunner
    from repro.serialize import result_to_dict
    from repro.serve.server import canonical_result_bytes
    from repro.sweep import run_sweep

    specs = common.sweep_specs(seed)
    report = Report()
    report.doc.update(ready=time.monotonic(), runs_per_op=len(specs),
                      jobs_per_op=len(specs) * common.SWEEP_JOBS)
    if setup_only:
        return report.doc

    def sweep(index: int):
        target = common.WORK / f"sweep-{os.getpid()}-{index}"
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        try:
            # The work runs in the pool workers; this process mostly
            # waits, so a sampler thread can watch the host meanwhile.
            with hostspeed.Sampler() as sampler:
                start = time.perf_counter()
                outcome = run_sweep(
                    specs,
                    manifest_path=target / "manifest.jsonl",
                    cache_dir=target / "cache",
                    max_workers=common.SWEEP_WORKERS,
                    aggregates_only=True,
                )
                seconds_taken = time.perf_counter() - start
            return seconds_taken, sampler.scale(), outcome
        finally:
            shutil.rmtree(target, ignore_errors=True)

    raw: list[float] = []
    plain: list[float] = []
    traced: list[float] = []
    documents: list[list[bytes]] = []
    elapsed = 0.0
    while elapsed < seconds or len(plain) < 1 or (trace and len(traced) < 1):
        tracing = trace and len(traced) < len(plain)
        if recorder is not None:
            recorder.enabled = tracing
        try:
            seconds_taken, scale, outcome = sweep(len(plain) + len(traced))
        finally:
            if recorder is not None:
                recorder.enabled = False
        (traced if tracing else plain).append(seconds_taken * scale)
        if not tracing:
            raw.append(seconds_taken)
        elapsed += seconds_taken
        report.doc["attempted"] += outcome.total
        report.doc["failed"] += len(outcome.failures)
        documents.append([
            canonical_result_bytes(result_to_dict(r)) if r is not None else b""
            for r in outcome.results
        ])
        if trace and len(plain) >= 1 and len(traced) >= 1:
            break
    report.doc["peak_rss_mib"] = common.vm_hwm_mib()
    report.doc.update(op_seconds=plain, raw_op_seconds=raw)

    serial = BatchRunner(max_workers=0, aggregates_only=True).run(specs)
    expected = [canonical_result_bytes(result_to_dict(r)) for r in serial]
    if corrupt:
        expected[0] += b" "
    mismatches = sum(
        1 for run in documents for got, want in zip(run, expected, strict=True) if got != want
    )
    report.check(
        "aggregates equal a serial in-process run",
        mismatches == 0,
        f"{mismatches} of {len(documents) * len(expected)} results differ",
    )
    if recorder is not None:
        workers = spans.load_records(sorted(spill_dir.glob("worker-*.jsonl")))
        shutil.rmtree(spill_dir, ignore_errors=True)
        records = [recorder.snapshot(), *workers]
        report.doc["spans"] = spans.merge(records)
        layers, total = spans.layer_metrics(records, len(traced))
        layers["batch.worker_busy_ratio"] = total.get("batch.execute", 0.0) / (
            common.SWEEP_WORKERS * total["batch.run"]
        )
        layers["scheduling.events"] = sum(r.events_processed for r in serial)
        layers["core.reduced_ratio"] = (
            sum(r.reduced_jobs for r in serial) / sum(r.job_count for r in serial)
        )
        layers["serialize.bytes_per_job"] = (
            sum(len(doc) for doc in expected) / (len(specs) * common.SWEEP_JOBS)
        )
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        report.doc["layers"] = layers
    return report.doc


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[:4]
    flags = set(argv[4:])
    common.use_checkout_sources()
    kwargs = dict(
        seed=int(seed),
        seconds=float(seconds),
        trace=trace == "1",
        setup_only="--setup-only" in flags,
        corrupt="--corrupt" in flags,
    )
    if workload == "paper-sweep":
        doc = run_sweep_workload(**kwargs)
    else:
        doc = run_single(workload, **kwargs)
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
