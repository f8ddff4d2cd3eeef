"""Debug capsules: time-travel captures stored as run artifacts.

A capsule is the maximum-detail record of one re-executed window
``[C-delta, C+delta]`` around a cycle of interest -- an invariant
violation, an armed watchpoint, or the first-diverging event of a
regression bisection.  It is a ``kind: "capsule"`` artifact in the one
artifact store (:mod:`repro.observability.flight.artifact`), so it
shares the run artifacts' id scheme, load-by-prefix, listing and
:func:`~repro.observability.flight.artifact.verify_artifact`::

    manifest.json   identity: kind "capsule", experiment
                    "capsule-<label>", workload, and extra = reason,
                    violation, window, source run; the volatile host
                    section (engine) is kept outside the hash
    capsule.json    window summary, violation record, baseline stats
    window.jsonl    one per-tick capture row per record, then the footer
    events.jsonl    the window's seam events (unbounded tracer), footer
    profile.json    TickProfiler rows        (compiled engine only)

The identity deliberately excludes the tick engine and the profile --
both engines visit bit-identical per-cycle state, so a same-seed
capture under ``legacy`` and ``compiled`` produces byte-identical
hashed payloads and therefore the same content hash.  That property is
pinned by tests and is what makes a capsule a trustworthy record rather
than a screenshot.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.observability.events import stream_jsonl
from repro.observability.flight.artifact import (
    DEFAULT_ROOT,
    PROFILE_NAME,
    SCHEMA_VERSION,
    ArtifactError,
    RunArtifact,
    canonical_json,
    list_artifacts,
    load_artifact,
    write_artifact,
)

CAPSULE_KIND = "capsule"

CAPSULE_NAME = "capsule.json"
WINDOW_NAME = "window.jsonl"
EVENTS_NAME = "events.jsonl"

TICK_KIND = "tick"


class Capsule(RunArtifact):
    """A loaded ``kind: "capsule"`` artifact with the window and
    violation accessors."""

    @property
    def reason(self) -> str:
        return str(self.extra.get("reason", ""))

    @property
    def window(self) -> Dict[str, Any]:
        return dict(self.extra.get("window", {}))

    @property
    def violation(self) -> Optional[Dict[str, Any]]:
        return self.extra.get("violation")

    @property
    def violation_cycle(self) -> Optional[int]:
        violation = self.violation
        return None if violation is None else violation.get("cycle")

    @property
    def source_run(self) -> Optional[str]:
        return self.extra.get("source_run")

    def contains_cycle(self, cycle: int) -> bool:
        window = self.window
        start, end = window.get("start"), window.get("end")
        if start is None or end is None:
            return False
        return start <= cycle <= end

    def payload(self) -> Dict[str, Any]:
        return self._read_json(CAPSULE_NAME) or {}

    def rows(self) -> List[Dict[str, Any]]:
        """The per-tick capture rows, in cycle order."""
        return self._stream(WINDOW_NAME)[0]

    def events(self) -> List[Dict[str, Any]]:
        """The window's seam events."""
        return self._stream(EVENTS_NAME)[0]


def as_capsule(artifact: RunArtifact) -> Capsule:
    """The capsule view of a loaded artifact; an error for other kinds."""
    if artifact.kind != CAPSULE_KIND:
        raise ArtifactError(
            "%s is a %r artifact, not a capsule (try 'python -m repro "
            "debug list')" % (artifact.run_id, artifact.kind)
        )
    return Capsule(path=artifact.path, manifest=artifact.manifest)


def emit_capsule(
    capture,
    label: str,
    workload: Optional[str] = None,
    reason: str = "",
    violation: Optional[Dict[str, Any]] = None,
    source_run: Optional[str] = None,
    host: Optional[Dict[str, Any]] = None,
    root: str = DEFAULT_ROOT,
) -> Capsule:
    """Store one debug capsule from a
    :class:`~repro.functional.replay.WindowCapture` and return it
    loaded.

    *violation* is the triggering :class:`Violation` as a dict (or None
    for watchpoint/explicit-cycle captures); *source_run* optionally
    links the run artifact whose cycle numbering the window used.
    """
    window = capture.summary()
    payload: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": CAPSULE_KIND,
        "label": label,
        "workload": workload,
        "reason": reason,
        "violation": violation,
        "window": window,
        "baseline": dict(sorted(capture.baseline.items())),
    }
    rows = [
        dict(row, kind=TICK_KIND, seq=seq)
        for seq, row in enumerate(capture.rows)
    ]
    files: Dict[str, str] = {
        CAPSULE_NAME: canonical_json(payload),
        WINDOW_NAME: stream_jsonl("window", rows),
        EVENTS_NAME: stream_jsonl("events", capture.events),
    }
    if capture.profile is not None:
        files[PROFILE_NAME] = canonical_json(capture.profile)
    extra = {
        "reason": reason,
        "violation": violation,
        "window": window,
        "source_run": source_run,
    }
    host = dict(host or {}, engine=capture.engine)
    artifact = write_artifact(CAPSULE_KIND, "capsule-%s" % label, workload,
                              {}, extra, files, host, root)
    return as_capsule(artifact)


def find_capsules(
    root: str = DEFAULT_ROOT,
    workload: Optional[str] = None,
    containing_cycle: Optional[int] = None,
    source_run: Optional[str] = None,
) -> List[Capsule]:
    """Capsules matching every given filter (None filters match all)."""
    out = []
    for capsule_id in list_artifacts(root, kind=CAPSULE_KIND):
        capsule = as_capsule(load_artifact(capsule_id, root))
        if workload is not None and capsule.workload != workload:
            continue
        if containing_cycle is not None and not capsule.contains_cycle(
            containing_cycle
        ):
            continue
        if source_run is not None and capsule.source_run != source_run:
            continue
        out.append(capsule)
    return out


# -- capsule diffing -------------------------------------------------------

# Scalar per-tick row fields compared cycle-by-cycle, in report order.
ROW_FIELDS = (
    "pc", "in_count", "halted", "flags", "regs", "fregs_digest",
    "srs_digest", "rob", "rs", "lsq", "tb", "buffered", "committed",
    "checkpoints", "stats",
)


def diff_capsules(
    a: Capsule,
    b: Capsule,
    max_diffs: int = 64,
) -> Dict[str, Any]:
    """Cycle-by-cycle field diff of two capsules.

    Rows are aligned by target cycle; the first differing (cycle,
    field) pair is the first divergence.  Two capsules of the same
    same-seed run diff clean by construction -- anything else is the
    exact point two 'identical' histories stopped agreeing.
    """
    rows_a = {row["cycle"]: row for row in a.rows()}
    rows_b = {row["cycle"]: row for row in b.rows()}
    shared = sorted(set(rows_a) & set(rows_b))
    only_a = sorted(set(rows_a) - set(rows_b))
    only_b = sorted(set(rows_b) - set(rows_a))

    diffs: List[Dict[str, Any]] = []
    truncated = False
    for cycle in shared:
        row_a, row_b = rows_a[cycle], rows_b[cycle]
        for fld in ROW_FIELDS:
            va, vb = row_a.get(fld), row_b.get(fld)
            if va != vb:
                if len(diffs) < max_diffs:
                    diffs.append(
                        {"cycle": cycle, "field": fld, "a": va, "b": vb}
                    )
                else:
                    truncated = True
    first = diffs[0] if diffs else None
    identical = (
        not diffs and not only_a and not only_b
        and a.content_hash == b.content_hash
    )
    return {
        "identical": identical,
        "content_hash_match": a.content_hash == b.content_hash,
        "first_divergence": first,
        "diffs": diffs,
        "diffs_truncated": truncated,
        "cycles_only_a": only_a,
        "cycles_only_b": only_b,
    }
