"""The offline query engine over run artifacts.

Answers the paper's post-run questions (section 6) from the files a
:class:`~repro.observability.flight.artifact.RunArtifact` persisted,
without re-running anything:

* :func:`seam_attribution` -- where did the cycles go?  Useful commit
  work vs pipe drains by cause (mispredict rollbacks, interrupts,
  exceptions, serialization) vs idle/HALT spans, each joined with the
  seam event counts that explain it (``fm_rollback``, ``tm_interrupt``,
  ``tb_highwater`` starvation warnings, ...);
* :func:`window_timeline` -- per-sampling-window IPC, busy/idle split
  and gauge occupancies, the offline rendering of Figure 6;
* :func:`flame_stacks` -- TickProfiler samples collapsed into the
  folded-stack format flame-graph tooling consumes (one
  ``frame;frame;frame value`` line per stack, values in microseconds),
  the same pipeline FireSim's TracerV feeds.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.observability.flight.artifact import RunArtifact
from repro.observability.flight.columns import ColumnTable

# Event kind -> the module of the simulator that raised it (the seam
# vocabulary established by repro.observability.events / PR 3).
KIND_MODULES: Dict[str, str] = {
    "fm_checkpoint": "functional-model",
    "fm_rollback": "functional-model",
    "tb_mispredict": "trace-buffer",
    "tb_resolve": "trace-buffer",
    "tb_interrupt": "trace-buffer",
    "tb_highwater": "trace-buffer",
    "tm_interrupt": "interrupt-coordinator",
    "idle_span": "compiled-schedule",
}

_PREFIX_MODULES = {
    "fm": "functional-model",
    "tb": "trace-buffer",
    "tm": "timing-model",
}


def module_for_kind(kind: str) -> str:
    """Best-effort module attribution for an event kind."""
    if kind in KIND_MODULES:
        return KIND_MODULES[kind]
    prefix = kind.split("_", 1)[0]
    return _PREFIX_MODULES.get(prefix, "unknown")


# -- columnar views ---------------------------------------------------------


def events_table(artifact: RunArtifact) -> ColumnTable:
    """The retained seam events as a columnar table: ``seq``, ``cycle``,
    ``kind``, ``module`` plus the union of payload fields."""
    records = []
    for event in artifact.events():
        record = dict(event)
        record["module"] = module_for_kind(str(event.get("kind", "")))
        records.append(record)
    head = ["seq", "cycle", "kind", "module"]
    seen: Dict[str, None] = {}
    for record in records:
        for key in record:
            if key not in head:
                seen.setdefault(key)
    return ColumnTable.from_records(records, columns=head + list(seen))


def _event_kind_counts(artifact: RunArtifact) -> Dict[str, int]:
    """Whole-run per-kind totals: prefer the trace footer (counts survive
    ring overflow), fall back to the retained records."""
    footer = artifact.footer("trace")
    if footer is not None and isinstance(footer.get("kinds"), dict):
        return {str(k): int(v) for k, v in footer["kinds"].items()}
    counts: Dict[str, int] = {}
    for event in artifact.events():
        kind = str(event.get("kind", ""))
        counts[kind] = counts.get(kind, 0) + 1
    return counts


# -- seam-cost attribution --------------------------------------------------


def seam_attribution(artifact: RunArtifact) -> List[Dict[str, Any]]:
    """Attribute the run's target cycles to commit work, drains by
    cause, and idle spans, with the seam event counts alongside.

    Cycle columns come from the (exactly counted) ``TimingStats`` drain
    counters; event columns come from the trace and *explain* the
    cycles: a drain:mispredict cycle exists because a ``tb_mispredict``
    round trip and an ``fm_rollback`` replay happened.  ``tb_highwater``
    has no drain counter -- the timing model does not stall, the
    functional model ran too far ahead -- so its row reports pressure
    events only.
    """
    timing = artifact.timing()
    kinds = _event_kind_counts(artifact)
    cycles = int(timing.get("cycles", 0))
    idle = int(timing.get("idle_cycles", 0))
    drains = {
        "mispredict": int(timing.get("drain_mispredict", 0)),
        "interrupt": int(timing.get("drain_interrupt", 0)),
        "exception": int(timing.get("drain_exception", 0)),
        "serialize": int(timing.get("drain_serialize", 0)),
    }
    drain_total = sum(drains.values())
    useful = max(0, cycles - idle - drain_total)

    replayed = 0
    highwater_runahead = 0
    for event in artifact.events():
        if event.get("kind") == "fm_rollback":
            replayed += int(event.get("replayed", 0))
        elif event.get("kind") == "tb_highwater":
            highwater_runahead = max(
                highwater_runahead, int(event.get("runahead", 0))
            )

    def share(n: int) -> float:
        return round(n / cycles, 4) if cycles else 0.0

    rows: List[Dict[str, Any]] = [
        {
            "category": "commit",
            "cycles": useful,
            "share": share(useful),
            "events": int(timing.get("instructions", 0)),
            "detail": "committed instructions",
        },
        {
            "category": "drain:mispredict",
            "cycles": drains["mispredict"],
            "share": share(drains["mispredict"]),
            "events": kinds.get("tb_mispredict", 0),
            "detail": "fm_rollback=%d replayed=%d (retained)"
            % (kinds.get("fm_rollback", 0), replayed),
        },
        {
            "category": "drain:interrupt",
            "cycles": drains["interrupt"],
            "share": share(drains["interrupt"]),
            "events": kinds.get("tm_interrupt", 0)
            + kinds.get("tb_interrupt", 0),
            "detail": "tm_interrupt=%d tb_interrupt=%d"
            % (kinds.get("tm_interrupt", 0), kinds.get("tb_interrupt", 0)),
        },
        {
            "category": "drain:exception",
            "cycles": drains["exception"],
            "share": share(drains["exception"]),
            "events": 0,
            "detail": "",
        },
        {
            "category": "drain:serialize",
            "cycles": drains["serialize"],
            "share": share(drains["serialize"]),
            "events": 0,
            "detail": "",
        },
        {
            "category": "idle:halt",
            "cycles": idle,
            "share": share(idle),
            "events": kinds.get("idle_span", 0),
            "detail": "fast-forwarded spans",
        },
        {
            "category": "tb:starvation",
            "cycles": 0,
            "share": 0.0,
            "events": kinds.get("tb_highwater", 0),
            "detail": "high-water warnings, max runahead %d"
            % highwater_runahead,
        },
    ]
    return rows


def render_attribution(rows: List[Dict[str, Any]],
                       title: str = "seam-cost attribution") -> str:
    lines = [
        title,
        "%-18s %12s %7s %10s  %s"
        % ("category", "cycles", "share", "events", "detail"),
    ]
    for row in rows:
        lines.append(
            "%-18s %12d %6.1f%% %10d  %s"
            % (
                row["category"],
                row["cycles"],
                100 * row["share"],
                row["events"],
                row["detail"],
            )
        )
    return "\n".join(lines)


# -- per-window timelines ---------------------------------------------------

_INSTR_SUFFIX = "/backend/instructions"


def window_timeline(artifact: RunArtifact) -> ColumnTable:
    """Per-window IPC and occupancy timeline from the fabric series.

    Columns: window index, start/end cycle, cycles, busy/idle split,
    elided window count, committed-instruction delta, IPC over busy
    cycles, plus one column per sampled gauge (e.g. the trace-buffer
    occupancy the starvation analysis reads).
    """
    report = artifact.windows()
    if report is None:
        return ColumnTable()
    records = []
    for window in report.get("windows", []):
        deltas = window.get("deltas", {})
        instructions = 0
        for key, value in deltas.items():
            if key.endswith(_INSTR_SUFFIX):
                instructions += int(value)
        busy = int(window.get("cycles", 0)) - int(window.get("idle_cycles", 0))
        record: Dict[str, Any] = {
            "index": window.get("index"),
            "start_cycle": window.get("start_cycle"),
            "end_cycle": window.get("end_cycle"),
            "cycles": window.get("cycles"),
            "busy_cycles": busy,
            "idle_cycles": window.get("idle_cycles"),
            "elided_windows": window.get("elided_windows"),
            "partial": window.get("partial"),
            "instructions": instructions,
            "ipc": round(instructions / busy, 4) if busy > 0 else 0.0,
        }
        for name, value in window.get("gauges", {}).items():
            record["gauge:" + name] = value
        records.append(record)
    return ColumnTable.from_records(records)


def render_timeline(artifact: RunArtifact, limit: int = 20) -> str:
    table = window_timeline(artifact)
    lines = [
        "per-window timeline (%d windows)" % len(table),
        "%6s %12s %12s %10s %10s %8s"
        % ("window", "start", "end", "busy", "idle", "ipc"),
    ]
    for record in table.records()[:limit]:
        lines.append(
            "%6s %12s %12s %10s %10s %8.3f"
            % (
                record["index"],
                record["start_cycle"],
                record["end_cycle"],
                record["busy_cycles"],
                record["idle_cycles"],
                record["ipc"],
            )
        )
    if len(table) > limit:
        lines.append("... %d more windows" % (len(table) - limit))
    return "\n".join(lines)


# -- flame-graph export -----------------------------------------------------


def flame_stacks(artifact: RunArtifact) -> List[str]:
    """TickProfiler samples as collapsed stacks (``a;b;c value`` lines,
    microsecond values), ready for any flamegraph renderer.

    Module rows become one stack per schedule path; the pipeline-stage
    brackets (``backend.commit`` ...) nest *inside* their owner's frame,
    so the owner's own line carries only its self time.
    """
    profile = artifact.profile()
    if profile is None:
        return []
    module_rows = profile.get("modules", [])
    stage_rows = profile.get("stages", [])

    # Stage seconds nested under the schedule path that ends with the
    # owning module's name (frontend/backend).
    stage_under: Dict[str, List[Dict[str, Any]]] = {}
    for stage in stage_rows:
        owner, _, _method = str(stage.get("stage", "")).partition(".")
        stage_under.setdefault(owner, []).append(stage)

    lines = []
    for row in module_rows:
        path = str(row.get("path", ""))
        frames = [frame for frame in path.split("/") if frame]
        if not frames:
            continue
        total_us = int(round(float(row.get("seconds", 0.0)) * 1e6))
        nested = stage_under.get(frames[-1], [])
        nested_us = 0
        for stage in nested:
            stage_us = int(round(float(stage.get("seconds", 0.0)) * 1e6))
            nested_us += stage_us
            _owner, _, method = str(stage.get("stage", "")).partition(".")
            lines.append("%s;%s %d" % (";".join(frames), method, stage_us))
        self_us = max(0, total_us - nested_us)
        lines.append("%s %d" % (";".join(frames), self_us))
    return sorted(lines)


def write_flame(artifact: RunArtifact, path: str) -> int:
    """Write the collapsed stacks to *path*; returns the line count."""
    stacks = flame_stacks(artifact)
    with open(path, "w") as fh:
        for line in stacks:
            fh.write(line + "\n")
    return len(stacks)
