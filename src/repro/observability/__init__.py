"""FastScope: the runtime observability layer of the reproduction.

The paper (§3, §4.7) argues FAST statistics should flow through a
tree-based statistics network routed along the Connectors, with
run-time queries evaluated continuously and traces gathered with little
to no performance degradation.  This package realizes that design in
the Python runtime:

* :class:`StatsFabric` -- the hierarchical statistics fabric: typed
  Counter/Gauge/Histogram stats registered per Module, aggregated
  hop-by-hop up the Module tree and snapshotted per sampling window,
  idle fast-forward spans accounted for explicitly;
* :class:`EventTracer` -- a structured, cycle-stamped event tracer
  (bounded ring buffer -> JSONL) for the FM/TM seam: mispredict and
  resolution round trips, rollbacks, interrupt deliveries,
  trace-buffer high-water marks, checkpoint creation;
* :class:`CompiledTriggerQuery` -- run-time trigger queries whose
  edge test is spliced into the observation plane *with an idle hint*,
  so a standing query does not pin the engine to single-stepping;
* :class:`TickProfiler` -- host wall-time attribution per module tick
  and per pipeline stage, over the compiled schedule;
* :class:`InvariantMonitor` -- the FastWatch invariant fabric: typed
  per-Module invariants fused into one conjunction on the observation
  plane, checked after every executed cycle on both engines, with
  violations feeding the time-travel debug-capsule capture
  (:mod:`repro.functional.replay` +
  :mod:`repro.observability.flight.capsule`);
* :class:`PulseEmitter` -- the FastPulse live telemetry: an
  idle-hinted subscriber that snapshots progress every N cycles into
  an append-only ``pulse.jsonl`` sidecar (host-timing fields kept in
  each record's ``host`` object), with a :class:`LivenessWatchdog`
  classifying no-progress stalls while out-of-process readers
  (``python -m repro top``, the OpenMetrics exporter) tail the stream;
* :class:`FastScope` -- the facade wiring all of the above onto a
  :class:`~repro.fast.simulator.FastSimulator` (or bare TimingModel).

Every per-cycle observer above subscribes to one
:class:`~repro.observability.plane.ObservationPlane` per timing model:
each hands it a guard expression, a cold-path method and an idle hint,
and the plane compiles them into a single generated cycle listener
with one folded idle hint.  Every deterministic stream they write
(trace, pulse sidecar, capsule window and events) shares one record
format, footer, hash rule and reader: :mod:`repro.observability.events`.

Exposed on the command line as ``python -m repro stats``,
``python -m repro trace``, ``python -m repro debug``,
``python -m repro top`` and ``python -m repro pulse``.
"""

from repro.observability.events import Event, EventTracer, attach_tracer
from repro.observability.fabric import StatWindow, StatsFabric
from repro.observability.profiler import TickProfiler
from repro.observability.pulse import (
    LivenessWatchdog,
    PulseEmitter,
    capture_stall_capsule,
    classify,
    load_sidecar,
    render_openmetrics,
)
from repro.observability.scope import FastScope
from repro.observability.triggers import (
    CompiledTriggerQuery,
    rob_occupancy,
    trace_buffer_occupancy,
)
from repro.observability.watch import (
    InvariantMonitor,
    Violation,
    capture_debug_capsule,
    find_first_violation,
    inject_violation,
)

__all__ = [
    "CompiledTriggerQuery",
    "Event",
    "EventTracer",
    "FastScope",
    "InvariantMonitor",
    "LivenessWatchdog",
    "PulseEmitter",
    "StatWindow",
    "StatsFabric",
    "TickProfiler",
    "Violation",
    "attach_tracer",
    "capture_debug_capsule",
    "capture_stall_capsule",
    "classify",
    "find_first_violation",
    "inject_violation",
    "load_sidecar",
    "render_openmetrics",
    "rob_occupancy",
    "trace_buffer_occupancy",
]
