"""Why a run falls back from the fused core to the reference core.

:func:`~repro.sim.columnar.fallback_reason` names the first condition
the fused core does not meet, or returns ``None`` when it covers the
run.  One case per reason pins the names; the covered cases pin that
the fused coverage (EASY/FCFS under every bundled policy kind) reports
none.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import Simulation
from repro.cluster.machine import Machine
from repro.cluster.power import SleepPolicy
from repro.experiments.config import InstrumentSpec, PolicySpec, RunSpec
from repro.sim import columnar
from repro.sim.columnar import fallback_reason

SPEC = RunSpec(workload="SDSC", n_jobs=40, seed=3, policy=PolicySpec.power_aware(2.0, 4))

needs_numpy = pytest.mark.skipif(columnar._np is None, reason="the fused core needs numpy")


def _numpy_absent(monkeypatch) -> Simulation:
    monkeypatch.setattr(columnar, "_np", None)
    return Simulation(SPEC)


def _sanitize_process_wide(monkeypatch) -> Simulation:
    from repro.analysis import sanitize

    monkeypatch.setattr(sanitize, "_ENABLED", True)  # what REPRO_SANITIZE=1 sets
    return Simulation(SPEC)


# (case id, expected reason, builder taking the monkeypatch fixture)
REASONS = [
    ("numpy", "numpy is not installed", _numpy_absent),
    ("validate", "validate mode is on", lambda mp: Simulation(SPEC, validate=True)),
    ("sanitize", "the sanitizer is on", lambda mp: Simulation(SPEC, sanitize=True)),
    ("sanitize-process-wide", "the sanitizer is on", _sanitize_process_wide),
    (
        "scheduler",
        "scheduler 'conservative' is not fused",
        lambda mp: Simulation(replace(SPEC, scheduler="conservative")),
    ),
    (
        "boost",
        "boost is set",
        lambda mp: Simulation(
            replace(SPEC, policy=PolicySpec.power_aware(2.0, 4, boost_trigger=8))
        ),
    ),
    (
        "sleep",
        "a sleep policy is set",
        lambda mp: Simulation(replace(SPEC, sleep=SleepPolicy.preset("default"))),
    ),
    (
        "timeline",
        "timeline recording is on",
        lambda mp: Simulation(replace(SPEC, record_timeline=True)),
    ),
    (
        "instruments",
        "instruments are attached",
        lambda mp: Simulation(
            replace(SPEC, instruments=(InstrumentSpec.of("bsld_monitor"),))
        ),
    ),
    (
        "empty-trace",
        "the trace is empty",
        lambda mp: Simulation(SPEC, jobs=[], machine=Machine("m", 8)),
    ),
]


@pytest.mark.parametrize(
    "expected, build", [case[1:] for case in REASONS], ids=[case[0] for case in REASONS]
)
def test_each_reason_is_named(expected, build, monkeypatch):
    if expected != "numpy is not installed" and columnar._np is None:
        pytest.skip("without numpy every run falls back for that reason first")
    simulation = build(monkeypatch)
    assert fallback_reason(simulation) == expected
    assert columnar.try_run_columnar(simulation) is None


@needs_numpy
def test_first_unmet_condition_wins():
    """A spec missing several conditions reports the earliest one."""
    spec = replace(
        SPEC, scheduler="conservative", sleep=SleepPolicy.preset("default"),
        record_timeline=True,
    )
    assert fallback_reason(Simulation(spec, validate=True)) == "validate mode is on"
    assert fallback_reason(Simulation(spec)) == "scheduler 'conservative' is not fused"


@needs_numpy
@pytest.mark.parametrize("scheduler", ["easy", "fcfs"])
@pytest.mark.parametrize(
    "policy",
    [
        PolicySpec.baseline(),
        PolicySpec(kind="fixed", fixed_frequency=1.7),
        PolicySpec.power_aware(1.5, None),
        PolicySpec.power_aware(3.0, 0, strict_top_backfill=True),
        PolicySpec(kind="util"),
    ],
    ids=["nodvfs", "fixed", "bsld", "bsld-strict", "util"],
)
def test_covered_specs_have_no_reason(scheduler, policy):
    assert fallback_reason(Simulation(replace(SPEC, scheduler=scheduler, policy=policy))) is None
