"""Engine lanes: registry resolution, spec neutrality, structured errors.

The lane contract has three legs, each pinned here:

1. *Resolution* — ``spec.engine`` → ``REPRO_ENGINE`` → ``"columnar"``
   when numpy is installed, else ``"reference"``.  A named
   unknown/unavailable lane fails fast as
   :class:`~repro.serialize.SpecValidationError` (field ``engine``);
   the default never does.
2. *Neutrality* — which lane runs a spec is execution metadata: cache
   keys, canonical spec JSON, equality and hashing are all identical
   with and without an engine selection, so cached results are shared
   across lanes.
3. *Surfacing* — the CLI, the serve daemon and the API all turn an
   unavailable lane into the structured ``{error: {code, message,
   field}}`` document (exit code 3 / HTTP 400), not a traceback.

The byte-identity of the lanes themselves is pinned by the differential
tests in ``test_lane_differential.py`` and the golden-trace suite.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Simulation
from repro.experiments.config import PolicySpec, RunSpec
from repro.registry import ENGINES
from repro.serialize import SpecValidationError, spec_key, spec_to_dict
from repro.sim.lanes import (
    DEFAULT_ENGINE,
    ENGINE_ENV,
    check_engine_available,
    check_engine_name,
    resolve_engine_name,
    resolve_lane,
)


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


SPEC = RunSpec(workload="SDSC", n_jobs=50, seed=7, policy=PolicySpec.power_aware(2.0, 4))


class TestResolution:
    def test_both_lanes_registered(self):
        assert "reference" in ENGINES
        assert "columnar" in ENGINES

    def test_reference_always_available(self):
        assert ENGINES.get("reference").available()

    def test_default_is_columnar_when_available(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert DEFAULT_ENGINE == "columnar"
        expected = DEFAULT_ENGINE if _numpy_available() else "reference"
        assert resolve_engine_name(SPEC) == expected

    def test_environment_selects_lane(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "columnar")
        assert resolve_engine_name(SPEC) == "columnar"

    def test_spec_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "columnar")
        assert resolve_engine_name(SPEC.with_engine("reference")) == "reference"

    def test_unknown_environment_lane_is_spec_error(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "warp-drive")
        with pytest.raises(SpecValidationError) as excinfo:
            check_engine_available(SPEC)
        assert excinfo.value.path == "engine"

    def test_unknown_name_is_spec_error(self):
        with pytest.raises(SpecValidationError) as excinfo:
            check_engine_name("warp-drive")
        assert excinfo.value.path == "engine"

    def test_runspec_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RunSpec(workload="SDSC", engine="warp-drive")

    def test_resolve_lane_returns_runnable(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        lane = resolve_lane(SPEC)
        assert lane.name == (DEFAULT_ENGINE if _numpy_available() else "reference")
        assert lane.available()


class TestLaneNeutrality:
    """Engine choice never enters spec identity, bytes, or cache keys."""

    @pytest.mark.parametrize("engine", [None, "reference", "columnar"])
    def test_cache_key_is_lane_free(self, engine):
        assert spec_key(SPEC.with_engine(engine)) == spec_key(SPEC)

    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    def test_canonical_json_is_lane_free(self, engine):
        plain = json.dumps(spec_to_dict(SPEC), sort_keys=True)
        laned = json.dumps(spec_to_dict(SPEC.with_engine(engine)), sort_keys=True)
        assert plain == laned
        assert "engine" not in spec_to_dict(SPEC.with_engine(engine))

    def test_equality_and_hash_are_lane_free(self):
        assert SPEC.with_engine("columnar") == SPEC.with_engine("reference") == SPEC
        assert hash(SPEC.with_engine("columnar")) == hash(SPEC)

    @pytest.mark.skipif(not _numpy_available(), reason="columnar lane needs numpy")
    def test_cache_entries_shared_across_lanes(self, tmp_path):
        """A result cached under one lane satisfies the other lane."""
        from repro.batch import BatchRunner

        writer = BatchRunner(cache_dir=tmp_path, engine="reference")
        (first,) = writer.run([SPEC])
        assert writer.cache_misses == 1
        reader = BatchRunner(cache_dir=tmp_path, engine="columnar")
        (second,) = reader.run([SPEC])
        assert reader.cache_hits == 1 and reader.cache_misses == 0
        assert first.outcomes == second.outcomes

    def test_batch_runner_rejects_unknown_engine(self):
        from repro.batch import BatchRunner

        with pytest.raises(SpecValidationError):
            BatchRunner(engine="warp-drive")

    @pytest.mark.skipif(not _numpy_available(), reason="columnar lane needs numpy")
    def test_batch_runner_respects_spec_pinned_engine(self, tmp_path):
        """A spec that pins its own lane keeps it under a runner default."""
        from repro.batch import BatchRunner

        runner = BatchRunner(engine="columnar")
        pinned = SPEC.with_engine("reference")
        normalized = runner._prepare([pinned, SPEC], {})
        assert normalized[0].engine == "reference"
        assert normalized[1].engine == "columnar"


class _Unavailable:
    """Force the columnar lane unavailable regardless of numpy."""

    @pytest.fixture(autouse=True)
    def _make_unavailable(self, monkeypatch):
        lane = ENGINES.get("columnar")
        monkeypatch.setattr(lane, "available", lambda: False)
        monkeypatch.delenv(ENGINE_ENV, raising=False)


class TestUnavailableLaneSurfacing(_Unavailable):
    """All three entry points speak the structured error document.

    The ``tests-no-numpy`` CI lane runs the same three paths with the
    lane *genuinely* unavailable (no monkeypatch needed); here the
    availability probe is forced off so the contract is also pinned on
    developer machines that do have numpy.
    """

    def test_api_raises_spec_validation_error(self):
        with pytest.raises(SpecValidationError) as excinfo:
            Simulation(SPEC.with_engine("columnar")).run()
        assert excinfo.value.path == "engine"
        assert "numpy" in excinfo.value.reason

    def test_cli_structured_error_exit_code_3(self, capsys):
        from repro.cli import main

        code = main(
            ["--json", "--jobs", "50", "run", "SDSC", "--engine", "columnar"]
        )
        assert code == 3
        document = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert document["error"]["code"] == "invalid_spec"
        assert document["error"]["field"] == "engine"
        assert "numpy" in document["error"]["message"]

    def test_cli_plain_error_mentions_engine(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--jobs", "50", "run", "SDSC", "--engine", "columnar"])
        assert "engine" in str(excinfo.value)

    def test_serve_submit_rejected_400(self):
        import urllib.error
        import urllib.request

        from repro.serve.server import ReproServer

        server = ReproServer("127.0.0.1", 0, max_workers=1)
        server.start_in_thread()
        try:
            document = spec_to_dict(SPEC)
            document["engine"] = "columnar"
            request = urllib.request.Request(
                f"http://{server.address}/runs",
                data=json.dumps(document).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
            assert body["error"]["code"] == "invalid_spec"
            assert body["error"]["field"] == "engine"
        finally:
            server.stop()

    def test_reference_still_runs(self):
        result = Simulation(SPEC.with_engine("reference")).run()
        assert len(result.outcomes) == SPEC.n_jobs


def _forbid_fused_core(monkeypatch) -> None:
    """Make any call into the fused core fail loudly."""

    def refuse(simulation):
        raise AssertionError("try_run_columnar was called")

    monkeypatch.setattr("repro.sim.columnar.try_run_columnar", refuse)


class TestDefaultWithoutColumnar(_Unavailable):
    """With the fused core unavailable the default quietly runs reference.

    Every entry point accepts a spec that names no lane, runs it on the
    reference core (the fused core is never entered) and produces the
    same bytes as a spec pinned to ``engine="reference"``.
    """

    @pytest.fixture(autouse=True)
    def _no_fused_core(self, monkeypatch):
        _forbid_fused_core(monkeypatch)

    @staticmethod
    def _reference_document() -> dict:
        from repro.serialize import result_to_dict

        return result_to_dict(Simulation(SPEC.with_engine("reference")).run())

    def test_default_resolves_to_reference(self):
        check_engine_available(SPEC)
        assert resolve_engine_name(SPEC) == "reference"
        assert resolve_lane(SPEC).name == "reference"

    def test_simulation_run(self):
        from repro.serialize import result_to_dict

        assert result_to_dict(Simulation(SPEC).run()) == self._reference_document()

    def test_batch_runner(self):
        from repro.batch import BatchRunner
        from repro.serialize import result_to_dict

        (result,) = BatchRunner(max_workers=0).run([SPEC])
        assert result_to_dict(result) == self._reference_document()

    def test_cli_run_json(self, capsys):
        from repro.cli import main

        argv = ["--json", "--jobs", "50", "run", "SDSC", "--bsld-threshold", "2",
                "--wq-threshold", "4", "--seed", "7"]
        assert main(argv) == 0
        default = capsys.readouterr()
        assert main([*argv, "--engine", "reference"]) == 0
        pinned = capsys.readouterr()
        assert default.err == ""
        assert default.out == pinned.out and default.out.strip()

    def test_serve_submit_accepted_202(self):
        import urllib.request

        from repro.serve.client import ServeClient
        from repro.serve.server import ReproServer, canonical_result_bytes

        server = ReproServer("127.0.0.1", 0, max_workers=1)
        server.start_in_thread()
        try:
            request = urllib.request.Request(
                f"http://{server.address}/runs",
                data=json.dumps({"spec": spec_to_dict(SPEC)}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 202
                job_id = json.loads(response.read())["job_id"]
            served = ServeClient(server.address).result_bytes(job_id)
        finally:
            server.stop()
        assert served == canonical_result_bytes(self._reference_document())

    def test_explicit_columnar_still_fails(self):
        """Naming the lane still fails (the API, CLI and serve cases are
        pinned by TestUnavailableLaneSurfacing)."""
        from repro.batch import BatchRunner

        with pytest.raises(SpecValidationError) as excinfo:
            BatchRunner(engine="columnar")
        assert excinfo.value.path == "engine"


class TestReferenceNeverEntersFusedCore:
    """Naming the reference lane keeps every run off the fused core."""

    @pytest.fixture(autouse=True)
    def _no_fused_core(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        _forbid_fused_core(monkeypatch)

    def test_spec_pinned_reference(self):
        from repro.batch import BatchRunner

        assert len(Simulation(SPEC.with_engine("reference")).run().outcomes) == SPEC.n_jobs
        (result,) = BatchRunner(max_workers=0, engine="reference").run([SPEC])
        assert result.job_count == SPEC.n_jobs

    def test_environment_reference(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        assert len(Simulation(SPEC).run().outcomes) == SPEC.n_jobs

    @pytest.mark.skipif(not _numpy_available(), reason="columnar lane needs numpy")
    def test_default_does_enter_fused_core(self):
        """Control: the patch is live, so the default run trips it."""
        with pytest.raises(AssertionError, match="try_run_columnar was called"):
            Simulation(SPEC).run()


@pytest.mark.skipif(_numpy_available(), reason="exercises the real numpy-less probe")
class TestGenuinelyWithoutNumpy:
    """The no-numpy CI lane: the availability probe itself is honest."""

    def test_columnar_lane_reports_unavailable(self):
        lane = ENGINES.get("columnar")
        assert not lane.available()
        assert "numpy" in lane.unavailable_reason()

    def test_api_raises_spec_validation_error(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        with pytest.raises(SpecValidationError) as excinfo:
            Simulation(SPEC.with_engine("columnar")).run()
        assert excinfo.value.path == "engine"

    def test_environment_selected_columnar_fails_fast(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "columnar")
        with pytest.raises(SpecValidationError):
            check_engine_available(SPEC)
