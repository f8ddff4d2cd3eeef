"""FastFlight: persistent run artifacts and offline trace analytics.

FastScope (PR 3) made a running simulator observable; FastFlight makes
finished runs *durable and comparable*.  The paper's evaluation is
post-run analysis -- attributing lost cycles to rollbacks, interrupts
and trace-buffer starvation (section 6) -- and that analysis needs runs
that survive the process that produced them:

* :mod:`repro.observability.flight.artifact` -- the one
  content-addressed artifact store: self-describing
  ``results/runs/<id>/`` directories of any kind (``run`` or
  ``capsule``) holding the manifest, the final stats snapshot, the
  fabric window series, the seam event stream and (optionally) the
  tick-time profile, with one id scheme, loader and verifier;
* :mod:`repro.observability.flight.columns` -- a small columnar table
  the offline queries run over (no external dependencies);
* :mod:`repro.observability.flight.analytics` -- the offline query
  engine: seam-cost attribution, per-window IPC/occupancy timelines,
  collapsed-stack flame-graph export from TickProfiler samples;
* :mod:`repro.observability.flight.regression` -- cross-run diffing
  with noise bands, baseline gating against committed ``BENCH_*.json``
  files, and event-stream bisection to the first diverging event when
  two supposedly deterministic runs disagree;
* :mod:`repro.observability.flight.capsule` -- time-travel debug
  capsules: ``kind: "capsule"`` artifacts capturing a re-executed
  window around an invariant violation or watchpoint (FastWatch), with
  cycle-by-cycle diffing and first-divergence search.

Exposed on the command line as ``python -m repro report`` and
``python -m repro debug``.
"""

from repro.observability.flight.analytics import (
    events_table,
    flame_stacks,
    seam_attribution,
    window_timeline,
)
from repro.observability.flight.artifact import (
    RunArtifact,
    emit_artifact,
    list_artifacts,
    load_artifact,
    verify_artifact,
)
from repro.observability.flight.capsule import (
    Capsule,
    as_capsule,
    diff_capsules,
    emit_capsule,
    find_capsules,
)
from repro.observability.flight.columns import ColumnTable
from repro.observability.flight.regression import (
    Divergence,
    RegressionReport,
    bisect_divergence,
    compare_against_bench,
    compare_runs,
)

__all__ = [
    "Capsule",
    "ColumnTable",
    "Divergence",
    "RegressionReport",
    "RunArtifact",
    "as_capsule",
    "bisect_divergence",
    "compare_against_bench",
    "compare_runs",
    "diff_capsules",
    "emit_artifact",
    "emit_capsule",
    "events_table",
    "find_capsules",
    "flame_stacks",
    "list_artifacts",
    "load_artifact",
    "seam_attribution",
    "verify_artifact",
    "window_timeline",
]
