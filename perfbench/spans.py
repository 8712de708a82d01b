"""Span recorder for the benchmark's traced runs.

The recorder patches public functions of the simulator from the
outside: each layer boundary listed in :data:`BOUNDARIES` is wrapped so
a call records a span (name, start, end, parent) while the recorder is
enabled.  Hot leaf calls (gear selection, the backfill candidate scan,
availability-profile and node-power operations) run millions of times,
so they are aggregated per parent span as a call count and a total
duration instead of one span each; self-time accounting treats the
aggregate exactly like child spans.

Spans stay in memory.  The process that installed the recorder writes
them out with :meth:`Recorder.dump`; forked sweep workers append theirs
after every task (they exit without running ``atexit`` handlers), and
the serve daemon writes them when its launcher returns.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path

# (module, qualified attribute, span name, leaf?).  Functions imported
# by name into other repro modules are patched there too.
BOUNDARIES: tuple[tuple[str, str, str, bool], ...] = (
    ("repro.sim.columnar", "try_run_columnar", "columnar.simulate", False),
    ("repro.scheduling.base", "Scheduler.run", "scheduling.run", False),
    ("repro.session", "SimulationSession.run_for", "session.run_for", False),
    ("repro.scheduling.queue", "JobQueue.backfill_candidates", "queue.backfill", True),
    ("repro.cluster.profile", "AvailabilityProfile.reserve", "profile", True),
    ("repro.cluster.profile", "AvailabilityProfile.release", "profile", True),
    ("repro.cluster.profile", "AvailabilityProfile.find_start", "profile", True),
    ("repro.cluster.profile", "AvailabilityProfile.advance_origin", "profile", True),
    ("repro.cluster.power", "NodePowerManager.acquire", "power", True),
    ("repro.cluster.power", "NodePowerManager.release", "power", True),
    ("repro.cluster.power", "NodePowerManager.on_timer", "power", True),
    ("repro.core.frequency_policy", "BsldThresholdPolicy.select_gear", "core.select_gear", True),
    ("repro.core.frequency_policy", "FixedGearPolicy.select_gear", "core.select_gear", True),
    ("repro.scheduling.result", "SimulationResult.to_aggregates", "result.to_aggregates", False),
    ("repro.serialize", "result_to_dict", "serialize.to_dict", False),
    ("repro.serialize", "result_from_dict", "serialize.from_dict", False),
    ("repro.serve.server", "canonical_result_bytes", "serialize.dumps", False),
    ("repro.batch", "BatchRunner.run", "batch.run", False),
    ("repro.batch", "_execute", "batch.execute", False),
    ("repro.batch", "BatchRunner.cache_store", "batch.cache_store", False),
    ("repro.batch", "BatchRunner.cache_load", "batch.cache_load", False),
    ("repro.sweep", "SweepManifest.begin", "sweep.manifest", False),
    ("repro.sweep", "SweepManifest.record_done", "sweep.manifest", False),
    ("repro.sweep", "SweepManifest.record_failed", "sweep.manifest", False),
)

#: Layer of each span name (its prefix up to the first dot, except
#: where a module hosts two layers).
LAYER_OF = {
    "workloads.materialise": "workloads",
    "columnar.simulate": "sim.columnar",
    "scheduling.run": "scheduling",
    "session.run_for": "scheduling",
    "queue.backfill": "scheduling.queue",
    "profile": "cluster.profile",
    "power": "cluster.power",
    "core.select_gear": "core",
    "result.to_aggregates": "scheduling.result",
    "serialize.to_dict": "serialize",
    "serialize.from_dict": "serialize",
    "serialize.dumps": "serialize",
    "batch.run": "batch",
    "batch.execute": "batch",
    "batch.cache_store": "batch",
    "batch.cache_load": "batch",
    "sweep.manifest": "sweep",
}


class Recorder:
    """In-memory spans plus per-parent leaf aggregates and counters.

    A span is ``(id, parent, name, start, end, pid, tid)`` with
    ``time.perf_counter`` stamps (CLOCK_MONOTONIC on Linux, so stamps
    from forked workers share the parent's time base).  Span ids are
    ``"<pid>:<n>"`` so workers never collide with their parent.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.leaves: dict[tuple[str | None, str], list[float]] = {}
        self.counts: Counter[str] = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.pid = os.getpid()
        self.spill_dir: Path | None = None

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        span_id = f"{os.getpid()}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, parent, name, start, end, os.getpid(), threading.get_ident())
                )

    def leaf(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            key = (stack[-1] if stack else None, name)
            with self._lock:
                entry = self.leaves.get(key)
                if entry is None:
                    self.leaves[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.leaves.clear()
            self.counts.clear()

    def _after_fork(self) -> None:
        # A forked worker starts with a copy of the parent's records
        # (and possibly a held lock): keep only what it records itself.
        self._lock = threading.Lock()
        self.reset()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": list(self.spans),
                "leaves": [[p, n, c, s] for (p, n), (c, s) in self.leaves.items()],
                "counts": dict(self.counts),
            }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.snapshot()), encoding="utf-8")

    def spill(self) -> None:
        """Append this (forked worker) process's records and forget them."""
        if self.spill_dir is None:
            return
        data = self.snapshot()
        self.reset()
        with open(self.spill_dir / f"worker-{os.getpid()}.jsonl", "a", encoding="utf-8") as out:
            out.write(json.dumps(data) + "\n")


def _resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return module, owner, attr


def _make_wrapper(recorder: Recorder, name: str, leaf: bool, fn):
    record = recorder.leaf if leaf else recorder.span
    counted = _COUNTERS.get(name)
    # A sweep worker's task is its unit of work: spill after each one.
    spills = name == "batch.execute"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        result = record(name, fn, *args, **kwargs)
        if counted is not None:
            counted(recorder, result)
        if spills and os.getpid() != recorder.pid:
            recorder.spill()
        return result

    return wrapper


def _count_candidates(recorder: Recorder, positions) -> None:
    recorder.count("queue.backfill_candidates", len(positions))


def _count_columnar(recorder: Recorder, result) -> None:
    recorder.count("columnar.calls")
    if result is None:
        recorder.count("columnar.fallbacks")


def _count_cache_load(recorder: Recorder, result) -> None:
    recorder.count("batch.cache_hits" if result is not None else "batch.cache_misses")


_COUNTERS = {
    "queue.backfill": _count_candidates,
    "columnar.simulate": _count_columnar,
    "batch.cache_load": _count_cache_load,
}


def install(recorder: Recorder) -> None:
    """Patch every boundary in :data:`BOUNDARIES` and the workload source.

    Call once per process, before any simulation object is built.
    """
    os.register_at_fork(after_in_child=recorder._after_fork)
    # Import every boundary's module before patching any, so the scan
    # below sees every module that copied a function by name.
    resolved = [(*_resolve(module_name, qualname), name, leaf)
                for module_name, qualname, name, leaf in BOUNDARIES]
    for module, owner, attr, name, leaf in resolved:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_make_wrapper(recorder, name, leaf, raw.__func__)))
            continue
        wrapper = _make_wrapper(recorder, name, leaf, raw)
        setattr(owner, attr, wrapper)
        if owner is module:
            # `from module import fn` copies: patch every repro module
            # still holding the original object.
            for other in list(sys.modules.values()):
                if (
                    getattr(other, "__name__", "").startswith("repro.")
                    and getattr(other, attr, None) is raw
                ):
                    setattr(other, attr, wrapper)

    from repro.registry import WORKLOAD_SOURCES

    source = WORKLOAD_SOURCES.get("synthetic")

    @functools.wraps(source)
    def materialise(workload, n_jobs, seed):
        if not recorder.enabled:
            return source(workload, n_jobs, seed)
        bundle = recorder.span("workloads.materialise", source, workload, n_jobs, seed)
        recorder.count("workloads.jobs", len(bundle.jobs))
        return bundle

    WORKLOAD_SOURCES.add("synthetic", materialise, overwrite=True)


def load_records(paths) -> list[dict]:
    """Read dumped/spilled record files (one JSON document per line)."""
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as stream:
            records.extend(json.loads(line) for line in stream if line.strip())
    return records


def merge(records: list[dict]) -> dict:
    merged: dict = {"spans": [], "leaves": [], "counts": Counter()}
    for record in records:
        merged["spans"].extend(record["spans"])
        merged["leaves"].extend(record["leaves"])
        merged["counts"].update(record["counts"])
    return merged


def layer_times(merged: dict) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Total time and call count per span name, and self time per layer.

    A span's self time is its duration minus the time its children in
    the same thread cover (child spans and leaf aggregates).  Children
    in other processes (sweep workers) run in parallel and are not
    subtracted.
    """
    total: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    self_time: Counter[str] = Counter()
    by_id = {}
    for span_id, parent, name, start, end, pid, tid in merged["spans"]:
        by_id[span_id] = (name, end - start, pid, tid)
        total[name] += end - start
        calls[name] += 1
    covered: Counter[str] = Counter()
    for span_id, parent, name, start, end, pid, tid in merged["spans"]:
        owner = by_id.get(parent)
        if owner is not None and owner[2] == pid and owner[3] == tid:
            covered[parent] += end - start
    for parent, name, count, seconds in merged["leaves"]:
        total[name] += seconds
        calls[name] += count
        self_time[LAYER_OF[name]] += seconds
        if parent in by_id:
            covered[parent] += seconds
    for span_id, (name, duration, _pid, _tid) in by_id.items():
        self_time[LAYER_OF[name]] += duration - covered[span_id]
    return dict(total), dict(self_time), dict(calls)


def layer_metrics(records: list[dict], n_ops: int) -> tuple[dict, dict]:
    """Per-operation layer times, call counts and self time, plus raw totals."""
    merged = merge(records)
    total, self_time, calls = layer_times(merged)
    counts = merged["counts"]

    def per_op(value: float) -> float:
        return value / n_ops

    layers = {
        "workloads.materialise_s": per_op(total.get("workloads.materialise", 0.0)),
        "workloads.jobs": per_op(counts.get("workloads.jobs", 0)),
        "columnar.simulate_s": per_op(total.get("columnar.simulate", 0.0)),
        "columnar.fallback_ratio": (
            counts.get("columnar.fallbacks", 0) / counts["columnar.calls"]
            if counts.get("columnar.calls")
            else 0.0
        ),
        "scheduling.run_s": per_op(total.get("scheduling.run", 0.0)),
        "session.run_for_s": per_op(total.get("session.run_for", 0.0)),
        "queue.backfill_calls": per_op(calls.get("queue.backfill", 0)),
        "queue.backfill_candidates": per_op(counts.get("queue.backfill_candidates", 0)),
        "queue.backfill_s": per_op(total.get("queue.backfill", 0.0)),
        "profile.calls": per_op(calls.get("profile", 0)),
        "profile.s": per_op(total.get("profile", 0.0)),
        "power.calls": per_op(calls.get("power", 0)),
        "power.s": per_op(total.get("power", 0.0)),
        "core.select_gear_calls": per_op(calls.get("core.select_gear", 0)),
        "core.select_gear_s": per_op(total.get("core.select_gear", 0.0)),
        "result.to_aggregates_s": per_op(total.get("result.to_aggregates", 0.0)),
        "serialize.to_dict_s": per_op(total.get("serialize.to_dict", 0.0)),
        "serialize.dumps_s": per_op(total.get("serialize.dumps", 0.0)),
        "serialize.from_dict_s": per_op(total.get("serialize.from_dict", 0.0)),
        "batch.run_s": per_op(total.get("batch.run", 0.0)),
        "batch.cache_store_s": per_op(total.get("batch.cache_store", 0.0)),
        "batch.cache_load_s": per_op(total.get("batch.cache_load", 0.0)),
        "batch.cache_hits": per_op(counts.get("batch.cache_hits", 0)),
        "batch.cache_misses": per_op(counts.get("batch.cache_misses", 0)),
        "sweep.manifest_s": per_op(total.get("sweep.manifest", 0.0)),
    }
    for layer in sorted(set(LAYER_OF.values())):
        layers[f"self_s.{layer}"] = per_op(self_time.get(layer, 0.0))
    return layers, total
