"""Lane differential over the exact grid the default ``repro-sim sweep`` runs.

The default sweep (every workload × BSLD {1.5, 2, 3} × WQ {0, 4, 16,
NO}, plus one no-DVFS baseline per workload) is the paper's evaluation
and runs on the fused core by default.  At a short trace length, every
one of its 65 specs must be covered by the fused core, and both the
full and the aggregates-only result documents must be byte-identical
to the reference core's.
"""

from __future__ import annotations

import pytest

from repro.api import Simulation
from repro.experiments.config import PolicySpec, RunSpec
from repro.serialize import result_to_dict
from repro.serve.server import canonical_result_bytes
from repro.sim.columnar import fallback_reason
from repro.workloads.models import WORKLOAD_NAMES

pytest.importorskip("numpy", reason="the columnar lane needs numpy")

N_JOBS = 300
BASELINES = [RunSpec(workload=w, n_jobs=N_JOBS) for w in WORKLOAD_NAMES]
GRID = [
    RunSpec(workload=w, n_jobs=N_JOBS, policy=PolicySpec.power_aware(bsld, wq))
    for w in WORKLOAD_NAMES
    for bsld in (1.5, 2.0, 3.0)
    for wq in (0, 4, 16, None)
]


@pytest.fixture(scope="module")
def traces():
    """Each workload's trace and machine, materialised once."""
    bundles = {}
    for spec in BASELINES:
        simulation = Simulation(spec)
        bundles[spec.workload] = (simulation.jobs, simulation.machine)
    return bundles


def _simulation(spec: RunSpec, engine: str, traces) -> Simulation:
    jobs, machine = traces[spec.workload]
    return Simulation(spec.with_engine(engine), jobs=jobs, machine=machine)


def test_grid_is_the_default_sweep():
    assert len(WORKLOAD_NAMES) == 5
    assert len(BASELINES) + len(GRID) == 65


@pytest.mark.parametrize("spec", BASELINES + GRID, ids=lambda spec: spec.label())
def test_sweep_spec_is_fused_and_identical(spec, traces):
    assert fallback_reason(_simulation(spec, "columnar", traces)) is None
    reference = _simulation(spec, "reference", traces).run()
    columnar = _simulation(spec, "columnar", traces).run()
    assert canonical_result_bytes(result_to_dict(columnar)) == canonical_result_bytes(
        result_to_dict(reference)
    )
    assert canonical_result_bytes(
        result_to_dict(columnar.to_aggregates())
    ) == canonical_result_bytes(result_to_dict(reference.to_aggregates()))
