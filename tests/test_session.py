"""Tests for the steppable SimulationSession and the instrument API.

Covers the session driving surface (step / run_until / run_for /
result), the typed lifecycle stream, the bundled instruments, spec
addressability (``RunSpec.instruments``) with exact serialisation, and
the two runtime-control scenarios: power capping and mid-run policy
hot-swap.  The hypothesis property at the bottom is the tentpole
invariant: attaching passive observers never changes what a simulation
computes.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation
from repro.batch import BatchRunner
from repro.cluster.power import SleepPolicy
from repro.experiments.config import InstrumentSpec, PolicySpec, RunSpec
from repro.instruments import Instrument, PowerCapController, PowerTelemetrySampler
from repro.registry import INSTRUMENTS, RegistryError
from repro.scheduling.export import event_trace_to_csv
from repro.serialize import result_to_dict, spec_from_dict, spec_json, spec_to_dict
from repro.session import SessionCancelled
from repro.sim.events import (
    ClockTick,
    GearSelected,
    JobFinished,
    JobStarted,
    JobSubmitted,
    QueueDepthChanged,
)

SMALL = RunSpec(workload="SDSC", n_jobs=120, seed=7, policy=PolicySpec.baseline())
SMALL_DVFS = SMALL.with_policy(PolicySpec.power_aware(2.0, None))


def comparable(result) -> dict:
    """The result dict minus instrument reports (observation metadata)."""
    data = result_to_dict(result)
    data.pop("instruments")
    return data


class TestSessionDriving:
    def test_session_starts_unstarted(self):
        session = Simulation(SMALL).session()
        assert session.now == 0.0
        assert session.events_processed == 0
        assert session.pending_events == SMALL.n_jobs
        assert not session.done

    def test_step_until_drained_matches_run(self):
        base = Simulation(SMALL_DVFS).run()
        session = Simulation(SMALL_DVFS).session()
        steps = 0
        while session.step():
            steps += 1
        assert session.done
        assert steps == session.events_processed
        assert comparable(session.result()) == comparable(base)

    def test_run_for_counts_events(self):
        session = Simulation(SMALL).session()
        assert session.run_for(10) == 10
        assert session.events_processed == 10
        # Draining returns fewer than asked once the queue empties.
        total = session.run_for(10**9)
        assert session.done
        assert 10 + total == session.events_processed

    def test_run_for_rejects_negative(self):
        session = Simulation(SMALL).session()
        with pytest.raises(ValueError, match="non-negative"):
            session.run_for(-1)

    def test_stepping_enforces_the_event_budget(self):
        from repro.sim.engine import SimulationError

        session = Simulation(SMALL).session()
        session._scheduler._event_budget = 3  # simulate a runaway scheduler
        with pytest.raises(SimulationError, match="event budget"):
            session.run_for(10)
        assert session.events_processed == 3
        with pytest.raises(SimulationError, match="event budget"):
            session.step()

    def test_run_until_stops_the_clock(self):
        session = Simulation(SMALL).session()
        session.run_until(50_000.0)
        assert session.now <= 50_000.0
        assert not session.done
        before = session.events_processed
        session.run_until(50_000.0)  # idempotent: nothing earlier remains
        assert session.events_processed == before
        assert comparable(session.result()) == comparable(Simulation(SMALL).run())

    def test_mixed_driving_matches_run(self):
        session = Simulation(SMALL_DVFS).session()
        session.run_for(17)
        session.run_until(40_000.0)
        session.step()
        assert comparable(session.result()) == comparable(Simulation(SMALL_DVFS).run())

    def test_result_is_idempotent_and_seals_the_session(self):
        session = Simulation(SMALL).session()
        first = session.result()
        assert first is session.result()
        for drive in (session.step, lambda: session.run_for(1),
                      lambda: session.run_until(1.0), session.run_to_completion):
            with pytest.raises(RuntimeError, match="finalised"):
                drive()

    def test_facade_run_unchanged_without_instruments(self):
        # The trivial wrapper contract: run() == session().result() and
        # neither carries instrument reports when the spec names none.
        assert Simulation(SMALL).run().instruments == ()
        assert result_to_dict(Simulation(SMALL).session().result()) == result_to_dict(
            Simulation(SMALL).run()
        )


class TestInstrumentSpec:
    def test_params_are_canonicalised(self):
        a = InstrumentSpec.of("power_cap", release=0.9, cap=700.0)
        b = InstrumentSpec.of("power_cap", cap=700.0, release=0.9)
        assert a == b
        assert hash(a) == hash(b)
        assert a.params == (("cap", 700.0), ("release", 0.9))

    def test_unknown_instrument_rejected(self):
        with pytest.raises(ValueError, match="unknown instrument"):
            InstrumentSpec.of("definitely_not_registered")

    def test_nested_lists_become_tuples(self):
        spec = InstrumentSpec.of("power_cap", cap=700.0, schedule=[[0.0, 700.0], [10.0, 500.0]])
        assert spec.params == (
            ("cap", 700.0),
            ("schedule", ((0.0, 700.0), (10.0, 500.0))),
        )
        hash(spec)  # still hashable

    def test_build_materialises_registered_class(self):
        instrument = InstrumentSpec.of("power_telemetry", min_interval=60.0).build()
        assert isinstance(instrument, PowerTelemetrySampler)
        assert instrument.min_interval == 60.0

    def test_registry_carries_bundled_instruments(self):
        for name in ("power_telemetry", "bsld_monitor", "event_trace", "power_cap"):
            assert name in INSTRUMENTS
        with pytest.raises(RegistryError):
            INSTRUMENTS.get("nope")

    def test_spec_serialisation_round_trips(self):
        spec = SMALL.with_instruments(
            InstrumentSpec.of("power_cap", cap=700.0, schedule=((0.0, 700.0), (9.0, 500.0))),
            InstrumentSpec.of("power_telemetry", min_interval=30.0),
        )
        assert spec_from_dict(spec_to_dict(spec)) == spec
        assert spec_json(spec) != spec_json(SMALL)  # instruments are cache-key relevant

    def test_runspec_rejects_non_specs(self):
        with pytest.raises(ValueError, match="InstrumentSpec"):
            RunSpec(workload="SDSC", instruments=("power_telemetry",))

    def test_runspec_label_names_instruments(self):
        spec = SMALL.with_instruments(InstrumentSpec.of("power_telemetry"))
        assert spec.label().endswith("+power_telemetry")


class TestBundledInstruments:
    def test_power_telemetry_samples(self):
        spec = SMALL.with_instruments(InstrumentSpec.of("power_telemetry"))
        result = Simulation(spec).run()
        report = result.instrument("power_telemetry")
        samples = report["samples"]
        assert samples and report["sample_count"] == len(samples)
        times = [row[0] for row in samples]
        assert times == sorted(times)
        assert report["peak_watts"] == max(row[1] for row in samples)
        total = result.machine.total_cpus
        idle = Simulation(spec).build_scheduler().power_model.idle_power()
        for _, watts, busy, depth, asleep in samples:
            assert 0 <= busy <= total and depth >= 0
            assert asleep == 0  # no sleep policy on this spec
            assert watts >= idle * (total - busy) - 1e-9

    def test_power_telemetry_min_interval_thins(self):
        dense = Simulation(SMALL.with_instruments(
            InstrumentSpec.of("power_telemetry"))).run()
        sparse = Simulation(SMALL.with_instruments(
            InstrumentSpec.of("power_telemetry", min_interval=50_000.0))).run()
        assert (len(sparse.instrument("power_telemetry")["samples"])
                < len(dense.instrument("power_telemetry")["samples"]))

    def test_power_telemetry_max_samples_truncates_but_tracks_peak(self):
        capped = Simulation(SMALL.with_instruments(
            InstrumentSpec.of("power_telemetry", max_samples=3))).run()
        full = Simulation(SMALL.with_instruments(
            InstrumentSpec.of("power_telemetry"))).run()
        report = capped.instrument("power_telemetry")
        assert len(report["samples"]) == 3
        assert report["dropped_samples"] > 0
        assert report["peak_watts"] == full.instrument("power_telemetry")["peak_watts"]

    def test_bsld_monitor_matches_result_metrics(self):
        spec = SMALL_DVFS.with_instruments(InstrumentSpec.of("bsld_monitor", sample_every=25))
        result = Simulation(spec).run()
        report = result.instrument("bsld_monitor")
        assert report["count"] == result.job_count
        assert report["mean"] == pytest.approx(result.average_bsld())
        bslds = sorted(result.bslds())
        assert report["p50"] in bslds
        assert report["max"] == pytest.approx(bslds[-1])
        assert report["p50"] <= report["p90"] <= report["p99"] <= report["max"]
        # Periodic snapshots plus the closing one covering the tail
        # (120 jobs at sample_every=25 -> 4 periodic + 1 closing).
        assert len(report["series"]) == result.job_count // 25 + 1
        assert report["series"][-1][1] == result.job_count
        assert report["series"][-1][2] == pytest.approx(report["mean"])

    def test_bsld_monitor_series_closes_at_the_tail(self):
        """Regression: jobs finishing after the last sample_every multiple
        were missing from the series; the closing snapshot must agree
        with the report's own totals."""
        spec = SMALL_DVFS.with_instruments(InstrumentSpec.of("bsld_monitor", sample_every=50))
        report = Simulation(spec).run().instrument("bsld_monitor")
        # 120 jobs at sample_every=50: snapshots at 50, 100, then the tail.
        assert len(report["series"]) == 3
        closing = report["series"][-1]
        assert closing[1] == report["count"]
        assert closing[2] == pytest.approx(report["mean"])
        assert closing[3] == report["p50"]
        assert closing[4] == report["p90"]
        assert closing[5] == report["p99"]
        times = [row[0] for row in report["series"]]
        assert times == sorted(times)

    def test_bsld_monitor_series_not_doubled_when_divisible(self):
        """When the job count lands exactly on a sampling boundary the
        periodic snapshot already covers the tail; no duplicate."""
        spec = SMALL_DVFS.with_instruments(InstrumentSpec.of("bsld_monitor", sample_every=40))
        result = Simulation(spec).run()
        report = result.instrument("bsld_monitor")
        assert len(report["series"]) == result.job_count // 40
        assert report["series"][-1][1] == report["count"]

    def test_event_trace_records_full_lifecycle(self):
        spec = SMALL_DVFS.with_instruments(InstrumentSpec.of("event_trace"))
        result = Simulation(spec).run()
        events = result.instrument("event_trace")["events"]
        kinds = {row["event"] for row in events}
        assert {"JobSubmitted", "JobStarted", "JobFinished", "GearSelected",
                "ClockTick", "QueueDepthChanged"} <= kinds
        n = SMALL.n_jobs
        assert sum(row["event"] == "JobSubmitted" for row in events) == n
        assert sum(row["event"] == "JobStarted" for row in events) == n
        assert sum(row["event"] == "JobFinished" for row in events) == n
        times = [row["time"] for row in events]
        assert times == sorted(times)

    def test_event_trace_accepts_bare_kind_string(self):
        spec = SMALL.with_instruments(InstrumentSpec.of("event_trace", kinds="JobFinished"))
        report = Simulation(spec).run().instrument("event_trace")
        assert report["recorded"] == SMALL.n_jobs
        assert all(row["event"] == "JobFinished" for row in report["events"])

    def test_event_trace_kind_filter_and_limit(self):
        spec = SMALL.with_instruments(
            InstrumentSpec.of("event_trace", kinds=("JobFinished",), limit=10)
        )
        report = Simulation(spec).run().instrument("event_trace")
        assert len(report["events"]) == 10
        assert all(row["event"] == "JobFinished" for row in report["events"])
        assert report["dropped"] == SMALL.n_jobs - 10

    def test_event_trace_to_csv(self, tmp_path):
        spec = SMALL.with_instruments(InstrumentSpec.of("event_trace"))
        result = Simulation(spec).run()
        path = tmp_path / "trace.csv"
        rows = event_trace_to_csv(result, path)
        lines = path.read_text().splitlines()
        assert rows == result.instrument("event_trace")["recorded"]
        assert len(lines) == rows + 1
        assert lines[0].startswith("event,time,job_id")

    def test_event_trace_to_csv_rejects_unknown_fields(self, tmp_path):
        with pytest.raises(ValueError, match="outside the trace schema"):
            event_trace_to_csv([{"event": "X", "mystery": 1}], tmp_path / "bad.csv")


class TestPowerCapScenario:
    def test_cap_forces_reduced_gears_under_nodvfs(self):
        plain = Simulation(SMALL).run()
        telemetry = Simulation(SMALL.with_instruments(
            InstrumentSpec.of("power_telemetry"))).run()
        peak = telemetry.instrument("power_telemetry")["peak_watts"]
        capped = Simulation(SMALL.with_instruments(
            InstrumentSpec.of("power_cap", cap=0.8 * peak))).run()
        report = capped.instrument("power_cap")
        assert plain.reduced_jobs == 0
        assert capped.reduced_jobs > 0
        assert report["reductions"] > 0
        assert report["time_capped"] > 0.0
        assert report["transitions"]

    def test_generous_cap_never_engages(self):
        telemetry = Simulation(SMALL.with_instruments(
            InstrumentSpec.of("power_telemetry"))).run()
        peak = telemetry.instrument("power_telemetry")["peak_watts"]
        result = Simulation(SMALL.with_instruments(
            InstrumentSpec.of("power_cap", cap=2.0 * peak))).run()
        report = result.instrument("power_cap")
        assert report["reductions"] == 0
        assert report["transitions"] == []
        assert comparable(result) == comparable(Simulation(SMALL).run())

    def test_end_of_run_settles_open_capped_interval(self):
        """Satellite sweep: a run that ends while still capped must fold
        the open ``_capped_since`` interval into ``time_capped``."""
        result = Simulation(SMALL.with_instruments(
            InstrumentSpec.of("power_cap", cap=1.0))).run()  # unmeetable cap
        report = result.instrument("power_cap")
        assert report["engaged_at_end"] is True
        first_engaged = report["transitions"][0][0]
        assert report["time_capped"] == pytest.approx(result.makespan - first_engaged)
        assert report["time_capped"] > 0.0

    def test_capped_report_is_stable_across_calls(self):
        """The end-of-run settlement must not double-count when the
        report is read more than once."""
        session = Simulation(SMALL.with_instruments(
            InstrumentSpec.of("power_cap", cap=1.0))).session()
        session.run_to_completion()
        controller = session.instrument("power_cap")
        assert controller.report() == controller.report()

    def test_cap_schedule_steps(self):
        controller = PowerCapController(cap=100.0, schedule=((50.0, 80.0), (10.0, 90.0)))
        assert controller.schedule == ((10.0, 90.0), (50.0, 80.0))  # sorted
        assert controller.active_cap(0.0) == 100.0
        assert controller.active_cap(10.0) == 90.0
        assert controller.active_cap(49.9) == 90.0
        assert controller.active_cap(1e9) == 80.0

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="cap must be positive"):
            PowerCapController(cap=0.0)
        with pytest.raises(ValueError, match="release"):
            PowerCapController(cap=1.0, release=0.0)
        with pytest.raises(ValueError, match="scheduled caps"):
            PowerCapController(cap=1.0, schedule=((0.0, -5.0),))


class TestSessionCancel:
    """Satellite: cancel mid-slice is pinned — scheduler handles stood
    down, no dangling engine timers, result() raises a clear error."""

    SLEEPY = dataclasses.replace(SMALL, sleep=SleepPolicy(sleep_after_seconds=10.0))

    def test_cancel_mid_run_stands_down_engine_handles(self):
        session = Simulation(self.SLEEPY).session()
        session.run_for(40)  # mid-flight: running jobs + armed sleep timer
        scheduler = session._scheduler
        assert scheduler._running  # jobs genuinely in flight
        assert not session.cancelled
        session.cancel("test teardown")
        assert session.cancelled
        for running in scheduler._running.values():
            assert running.finish_handle is None
        assert scheduler._sleep._timer is None
        assert scheduler._sleep._emit is None  # nothing can re-arm it

    def test_cancelled_session_refuses_everything(self):
        session = Simulation(SMALL).session()
        session.run_for(10)
        session.cancel("client went away")
        for drive in (session.step, lambda: session.run_for(1),
                      lambda: session.run_until(1.0), session.run_to_completion,
                      session.result):
            with pytest.raises(SessionCancelled, match="client went away"):
                drive()

    def test_cancel_without_reason_has_generic_message(self):
        session = Simulation(SMALL).session()
        session.cancel()
        with pytest.raises(SessionCancelled, match="session cancelled"):
            session.result()

    def test_cancel_is_idempotent(self):
        session = Simulation(SMALL).session()
        session.cancel("first")
        session.cancel("second")  # no-op, keeps the original reason
        with pytest.raises(SessionCancelled, match="first"):
            session.result()

    def test_cancel_after_result_is_rejected(self):
        session = Simulation(SMALL).session()
        result = session.result()
        with pytest.raises(RuntimeError, match="already finalised"):
            session.cancel()
        assert session.result() is result  # result stays retrievable

    def test_cancel_before_any_driving(self):
        session = Simulation(self.SLEEPY).session()
        session.cancel("never started")
        with pytest.raises(SessionCancelled, match="never started"):
            session.step()


class TestRuntimeControl:
    def test_policy_hot_swap_midrun(self):
        session = Simulation(SMALL).session()
        session.run_until(40_000.0)
        session.set_policy(PolicySpec.power_aware(3.0, None))
        result = session.result()
        assert "BSLDthreshold=3" in result.policy
        # Jobs started before the swap ran at the fixed top gear.
        swap_time = 40_000.0
        for outcome in result.outcomes:
            if outcome.start_time <= swap_time:
                assert not outcome.was_reduced

    def test_policy_hot_swap_accepts_built_policy(self):
        from repro.core.frequency_policy import FixedGearPolicy

        session = Simulation(SMALL_DVFS).session()
        session.run_for(5)
        session.set_policy(FixedGearPolicy())
        assert "FixedGear" in session.result().policy

    def test_manual_gear_cap(self):
        session = Simulation(SMALL).session()
        gears = Simulation(SMALL).machine.gears
        session.set_gear_cap(gears.lowest.frequency)
        assert session.gear_cap == gears.lowest.frequency
        result = session.result()
        assert result.reduced_jobs == result.job_count
        assert all(o.gear == gears.lowest for o in result.outcomes)
        # The label stays the configured policy: cap state is transient
        # controller input, not part of the run's identity.
        assert "cap" not in result.policy

    def test_gear_cap_lift_restores_base_policy(self):
        session = Simulation(SMALL).session()
        session.set_gear_cap(1.4)
        session.set_gear_cap(None)
        result = session.result()
        assert result.reduced_jobs == 0
        assert "cap" not in result.policy


    @pytest.mark.parametrize("validate", [True, False], ids=["validate", "plain"])
    def test_conservative_runtime_control_matches_reference(self, validate):
        """Policy swaps and gear caps mid-run on conservative backfilling
        land exactly as on the rebuild-per-pass reference given the same
        calls at the same times: a plan kept across arrivals never
        outlives the policy that made it.  Under ``validate`` the plan
        logs must match pass for pass, so a stale kept plan shows even
        when it happens not to move a start."""
        from repro.scheduling.base import SchedulerConfig
        from repro.scheduling.reference import ReferenceConservativeBackfilling

        spec = RunSpec(
            workload="SDSC",
            n_jobs=300,
            seed=1,
            scheduler="conservative",
            policy=PolicySpec.power_aware(2.0, None),
        )
        cycle = [
            ("policy", PolicySpec.power_aware(3.0, 4)),
            ("cap", 1.4),
            ("cap", 1.1),
            ("cap", None),
            ("policy", PolicySpec.baseline()),
            ("policy", PolicySpec.power_aware(1.5, None)),
            ("cap", 0.8),
            ("cap", None),
            ("policy", PolicySpec.power_aware(2.0, None)),
        ]
        simulation = Simulation(spec, validate=validate)
        jobs = simulation.jobs
        # One control call just after every 11th arrival.
        controls = [
            (jobs[index].submit_time + 1.0, *cycle[k % len(cycle)])
            for k, index in enumerate(range(11, len(jobs), 11))
        ]
        session = simulation.session()
        reference = ReferenceConservativeBackfilling(
            simulation.machine, spec.policy.build(), config=SchedulerConfig(validate=validate)
        )
        engine = reference.prepare(jobs)
        for time, kind, value in controls:
            session.run_until(time)
            engine.run(until=time, max_events=reference.event_budget)
            if kind == "policy":
                session.set_policy(value)
                reference.set_policy(value.build())
            else:
                session.set_gear_cap(value)
                reference.set_gear_cap(value)
        fast = session.result()
        engine.run(max_events=reference.event_budget)
        expected = reference.finalize()
        assert fast.reduced_jobs > 0
        assert [(o.start_time, o.gear) for o in fast.outcomes] == [
            (o.start_time, o.gear) for o in expected.outcomes
        ]
        if validate:
            assert session._scheduler.plan_log == reference.plan_log


class _Recorder(Instrument):
    """A bare instrument accumulating every event it sees."""

    def __init__(self) -> None:
        super().__init__()
        self.seen = []

    def on_event(self, event) -> None:
        self.seen.append(event)


class TestObserverSafety:
    """Satellite: observers can never mutate engine state."""

    EVENTS = (
        JobSubmitted(1.0, 7, 4, 100.0),
        JobStarted(1.0, 7, 4, 2.3, 0.0),
        JobFinished(2.0, 7, 4, 2.3, 50.0, 50.0, 55.0, 10.0, False),
        GearSelected(1.0, 7, 2.3, "start"),
        QueueDepthChanged(1.0, 3),
        ClockTick(1.0),
    )

    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: type(e).__name__)
    def test_lifecycle_events_are_frozen(self, event):
        for field in dataclasses.fields(event):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(event, field.name, None)
        # Slots block novel attributes too; the exception type varies by
        # Python version (3.10/3.11 raise TypeError from the frozen
        # __setattr__'s super() call, later versions AttributeError).
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
            event.novel_attribute = 1

    def test_events_carry_scalars_only(self):
        for event in self.EVENTS:
            for field in dataclasses.fields(event):
                assert isinstance(
                    getattr(event, field.name), (int, float, str, bool)
                ), f"{type(event).__name__}.{field.name} is not a plain scalar"

    def test_direct_instrument_attachment(self):
        recorder = _Recorder()
        session = Simulation(SMALL).session(instruments=[recorder])
        result = session.result()
        assert len(recorder.seen) > 3 * SMALL.n_jobs
        assert result.instrument("_Recorder").summary == {}

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        workload=st.sampled_from(["SDSC", "CTC"]),
        policy=st.sampled_from(
            [
                PolicySpec.baseline(),
                PolicySpec.power_aware(2.0, 4),
                PolicySpec.power_aware(1.5, None),
            ]
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_passive_observers_never_change_the_simulation(self, seed, workload, policy):
        spec = RunSpec(workload=workload, n_jobs=60, seed=seed, policy=policy)
        plain = Simulation(spec).run()
        observed = Simulation(
            spec.with_instruments(
                InstrumentSpec.of("power_telemetry"),
                InstrumentSpec.of("bsld_monitor", sample_every=10),
                InstrumentSpec.of("event_trace"),
            )
        ).run()
        assert comparable(observed) == comparable(plain)


class TestBatchIntegration:
    def test_batch_runner_handles_instrumented_specs(self, tmp_path):
        spec = SMALL.with_instruments(InstrumentSpec.of("power_telemetry"))
        runner = BatchRunner(max_workers=0, cache_dir=tmp_path)
        first = runner.run([spec, SMALL])
        assert first[0].instrument("power_telemetry")["samples"]
        assert first[1].instruments == ()
        again = BatchRunner(max_workers=0, cache_dir=tmp_path).run([spec])
        assert again[0] == first[0]  # exact cache round-trip, reports included

    def test_instrumented_and_plain_specs_have_distinct_cache_keys(self):
        from repro.serialize import spec_key

        spec = SMALL.with_instruments(InstrumentSpec.of("power_telemetry"))
        assert spec_key(spec) != spec_key(SMALL)
