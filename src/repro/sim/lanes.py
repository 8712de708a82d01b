"""Engine lanes: registry-selectable simulation cores.

A *lane* is an alternative implementation of "run this spec to
completion".  Every lane is pinned byte-identical to the reference core
(the golden traces and the lane-vs-lane differentials enforce it), so
which lane executes a run is pure execution metadata: it never enters
the canonical spec JSON or the cache key, and cached/served results are
shared across lanes.

Two lanes ship:

``reference``
    The event-driven :class:`~repro.scheduling.base.Scheduler` core —
    the semantics everything else is verified against.  Always
    available: the fallback for specs the fused core does not cover,
    the core under sessions and the serve daemon, and the oracle.

``columnar``
    A fused, allocation-light EASY/FCFS core
    (:mod:`repro.sim.columnar`) holding job state in preallocated numpy
    arrays and batching event runs between scheduler decision points.
    Requires numpy; configurations it does not cover (validate mode,
    sleep policies, boost, timelines, the conservative scheduler, the
    ``util`` policy) fall back to the reference core transparently —
    the results are identical either way
    (:func:`~repro.sim.columnar.fallback_reason` names why).

Resolution order: ``spec.engine`` → the ``REPRO_ENGINE`` environment
variable → :data:`DEFAULT_ENGINE` (``columnar``) when numpy is
installed, else ``reference``.  The default never fails: without numpy
it quietly resolves to the reference lane.  An unavailable or unknown
lane that is *named* (by the spec or the environment) raises
:class:`~repro.serialize.SpecValidationError` with field ``engine``,
which the CLI and the serve daemon surface as the structured
``{error: {code, message, field}}`` document.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any

from repro.registry import ENGINES

if TYPE_CHECKING:  # imported for annotations only; avoids package cycles
    from repro.api import Simulation
    from repro.experiments.config import RunSpec
    from repro.scheduling.result import SimulationResult

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_ENV",
    "EngineLane",
    "check_engine_available",
    "check_engine_name",
    "resolve_engine_name",
    "resolve_lane",
]

#: The lane used when neither the spec nor the environment selects one,
#: provided it is available here (otherwise the reference lane runs).
DEFAULT_ENGINE = "columnar"

#: Environment variable naming the process-default lane (CI uses it to
#: drive the whole suite through the reference core).
ENGINE_ENV = "REPRO_ENGINE"


class EngineLane:
    """Base lane: run a materialised :class:`~repro.api.Simulation`."""

    name = "abstract"

    def available(self) -> bool:
        """Whether this lane can run in the current environment."""
        return True

    def unavailable_reason(self) -> str:
        """Why :meth:`available` is False (used in structured errors)."""
        return f"engine {self.name!r} is unavailable"

    def run(self, simulation: Simulation) -> SimulationResult:
        raise NotImplementedError


class ReferenceLane(EngineLane):
    """The event-driven reference core — always available."""

    name = "reference"

    def run(self, simulation: Simulation) -> SimulationResult:
        return simulation.build_scheduler().run(simulation.jobs)


class ColumnarLane(EngineLane):
    """The vectorized columnar core; numpy-only, reference fallback."""

    name = "columnar"

    def available(self) -> bool:
        try:
            import numpy  # noqa: F401
        except ImportError:
            return False
        return True

    def unavailable_reason(self) -> str:
        return (
            "engine 'columnar' requires numpy, which is not installed; "
            "install numpy or select engine 'reference'"
        )

    def run(self, simulation: Simulation) -> SimulationResult:
        from repro.sim.columnar import try_run_columnar

        result = try_run_columnar(simulation)
        if result is not None:
            return result
        # Configurations outside the fused core's coverage execute on
        # the reference core — byte-identical by the lane contract.
        return _REFERENCE.run(simulation)


#: Registered as instances: a lane is stateless, so one object serves
#: every run, and lookups return something immediately runnable.
_REFERENCE = ReferenceLane()
ENGINES.add(_REFERENCE.name, _REFERENCE)
ENGINES.add("columnar", ColumnarLane())


def resolve_engine_name(spec: RunSpec) -> str:
    """The lane name ``spec`` resolves to.

    ``spec.engine`` → ``REPRO_ENGINE`` → :data:`DEFAULT_ENGINE` if it is
    available here, else ``reference``.  Only a named lane can resolve
    to one that is unavailable.
    """
    if spec.engine is not None:
        return spec.engine
    named = os.environ.get(ENGINE_ENV)
    if named:
        return named
    return DEFAULT_ENGINE if ENGINES.get(DEFAULT_ENGINE).available() else _REFERENCE.name


def check_engine_name(name: str) -> None:
    """Fail fast when the named lane cannot run here.

    Raises :class:`~repro.serialize.SpecValidationError` with field
    ``engine`` for an unknown name or an unavailable lane (e.g.
    ``columnar`` without numpy).
    """
    from repro.serialize import SpecValidationError  # deferred: avoids a cycle

    if name not in ENGINES:
        raise SpecValidationError(
            "engine",
            f"unknown engine {name!r}; available: {', '.join(ENGINES.names())}",
        )
    lane = ENGINES.get(name)
    if not lane.available():
        raise SpecValidationError("engine", lane.unavailable_reason())


def check_engine_available(spec: RunSpec) -> None:
    """Fail fast when the lane ``spec`` resolves to cannot run here.

    Raises :class:`~repro.serialize.SpecValidationError` with field
    ``engine`` for an unknown name (only reachable via ``REPRO_ENGINE``;
    ``RunSpec`` validates its own field) or an unavailable lane (e.g.
    ``columnar`` without numpy).  The CLI maps this to the structured
    JSON error document and exit code 3; the serve daemon to HTTP 400.
    """
    check_engine_name(resolve_engine_name(spec))


def resolve_lane(spec: RunSpec) -> Any:
    """The :class:`EngineLane` that should execute ``spec`` (checked)."""
    check_engine_available(spec)
    return ENGINES.get(resolve_engine_name(spec))
