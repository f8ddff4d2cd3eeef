"""Debug capsules: content-addressed time-travel captures.

A capsule is a new FastFlight artifact kind: the maximum-detail record
of one re-executed window ``[C-delta, C+delta]`` around a cycle of
interest -- an invariant violation, an armed watchpoint, or the first-
diverging event of a regression bisection.  It lives alongside run
artifacts under ``results/runs/<id>/`` so the existing listing and
upload machinery see it::

    manifest.json   identity, file hashes, volatile host section
                    (engine, wall seconds) kept outside the hash
    capsule.json    window summary, violation record, baseline stats
    window.jsonl    one per-tick capture row per line
    events.jsonl    the window's seam events (unbounded tracer)
    profile.json    TickProfiler rows        (compiled engine only)

Content addressing follows the run-artifact contract: the id hashes
the *target-deterministic* payload (capsule.json, window.jsonl,
events.jsonl) plus the identity fields.  The identity deliberately
excludes the tick engine and the profile -- both engines visit
bit-identical per-cycle state, so a same-seed capture under ``legacy``
and ``compiled`` produces byte-identical hashed payloads and therefore
the same content hash.  That property is pinned by tests and is what
makes a capsule a trustworthy record rather than a screenshot.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.observability.events import jsonl
from repro.observability.flight.artifact import (
    DEFAULT_ROOT,
    MANIFEST_NAME,
    PROFILE_NAME,
    ArtifactError,
    _content_hash,
    _sha256_text,
    _slug,
    canonical_json,
)

CAPSULE_SCHEMA_VERSION = 1
CAPSULE_KIND = "capsule"
CAPSULE_PREFIX = "capsule"

CAPSULE_NAME = "capsule.json"
WINDOW_NAME = "window.jsonl"
EVENTS_NAME = "events.jsonl"

# Payload files whose bytes enter the content hash.  profile.json is
# host wall-time and engine-specific; it rides along unhashed.
CAPSULE_HASHED_FILES = (CAPSULE_NAME, WINDOW_NAME, EVENTS_NAME)


@dataclass
class CapsuleArtifact:
    """One loaded capsule directory."""

    path: str
    manifest: Dict[str, Any]

    @property
    def capsule_id(self) -> str:
        return str(self.manifest.get("run_id", os.path.basename(self.path)))

    @property
    def content_hash(self) -> str:
        return str(self.manifest.get("content_hash", ""))

    @property
    def label(self) -> str:
        return str(self.manifest.get("label", ""))

    @property
    def workload(self) -> Optional[str]:
        return self.manifest.get("workload")

    @property
    def reason(self) -> str:
        return str(self.manifest.get("reason", ""))

    @property
    def window(self) -> Dict[str, Any]:
        return dict(self.manifest.get("window", {}))

    @property
    def violation(self) -> Optional[Dict[str, Any]]:
        return self.manifest.get("violation")

    @property
    def violation_cycle(self) -> Optional[int]:
        violation = self.violation
        return None if violation is None else violation.get("cycle")

    @property
    def source_run(self) -> Optional[str]:
        return self.manifest.get("source_run")

    @property
    def host(self) -> Dict[str, Any]:
        return dict(self.manifest.get("host", {}))

    def contains_cycle(self, cycle: int) -> bool:
        window = self.window
        start, end = window.get("start"), window.get("end")
        if start is None or end is None:
            return False
        return start <= cycle <= end

    # -- payload readers -------------------------------------------------

    def _read(self, name: str) -> Optional[str]:
        path = os.path.join(self.path, name)
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            return fh.read()

    def payload(self) -> Dict[str, Any]:
        text = self._read(CAPSULE_NAME)
        return json.loads(text) if text else {}

    def rows(self) -> List[Dict[str, Any]]:
        """The per-tick capture rows, in cycle order."""
        text = self._read(WINDOW_NAME)
        if not text:
            return []
        return [json.loads(line) for line in text.splitlines() if line]

    def events(self) -> List[Dict[str, Any]]:
        text = self._read(EVENTS_NAME)
        if not text:
            return []
        return [json.loads(line) for line in text.splitlines() if line]

    def profile(self) -> Optional[Dict[str, Any]]:
        text = self._read(PROFILE_NAME)
        return json.loads(text) if text else None


# -- emission --------------------------------------------------------------


def emit_capsule(
    capture,
    label: str,
    workload: Optional[str] = None,
    reason: str = "",
    violation: Optional[Dict[str, Any]] = None,
    source_run: Optional[str] = None,
    host: Optional[Dict[str, Any]] = None,
    root: str = DEFAULT_ROOT,
) -> CapsuleArtifact:
    """Write one debug capsule from a
    :class:`~repro.functional.replay.WindowCapture` and return it
    loaded.

    *violation* is the triggering :class:`Violation` as a dict (or None
    for watchpoint/explicit-cycle captures); *source_run* optionally
    links the run artifact whose cycle numbering the window used.
    """
    window = capture.summary()
    payload: Dict[str, Any] = {
        "schema": CAPSULE_SCHEMA_VERSION,
        "kind": CAPSULE_KIND,
        "label": label,
        "workload": workload,
        "reason": reason,
        "violation": violation,
        "window": window,
        "baseline": dict(sorted(capture.baseline.items())),
    }
    files: Dict[str, str] = {
        CAPSULE_NAME: canonical_json(payload),
        WINDOW_NAME: jsonl(capture.rows),
        EVENTS_NAME: jsonl(capture.events),
    }
    if capture.profile is not None:
        files[PROFILE_NAME] = canonical_json(capture.profile)

    identity: Dict[str, Any] = {
        "schema": CAPSULE_SCHEMA_VERSION,
        "kind": CAPSULE_KIND,
        "label": label,
        "workload": workload,
        "window": window,
        "violation": violation,
    }
    file_hashes = {
        name: _sha256_text(text)
        for name, text in files.items()
        if name in CAPSULE_HASHED_FILES
    }
    content_hash = _content_hash(identity, file_hashes)

    base_id = "%s-%s-%s" % (CAPSULE_PREFIX, _slug(label), content_hash[:12])
    os.makedirs(root, exist_ok=True)
    capsule_id = base_id
    serial = 1
    while os.path.exists(os.path.join(root, capsule_id)):
        # Same-content re-captures are kept side by side, like run
        # artifacts: the byte-identity tests diff two of them.
        serial += 1
        capsule_id = "%s.%d" % (base_id, serial)
    path = os.path.join(root, capsule_id)
    os.makedirs(path)

    manifest: Dict[str, Any] = dict(identity)
    manifest["run_id"] = capsule_id
    manifest["content_hash"] = content_hash
    manifest["reason"] = reason
    manifest["source_run"] = source_run
    manifest["files"] = {
        name: file_hashes.get(name, "") for name in sorted(files)
    }
    manifest["host"] = dict(host or {})
    manifest["host"]["engine"] = capture.engine

    for name, text in files.items():
        with open(os.path.join(path, name), "w") as fh:
            fh.write(text)
    with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return CapsuleArtifact(path=path, manifest=manifest)


# -- loading and query -----------------------------------------------------


def is_capsule_dir(path: str) -> bool:
    manifest = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(manifest):
        return False
    try:
        with open(manifest) as fh:
            return json.load(fh).get("kind") == CAPSULE_KIND
    except (OSError, ValueError):
        return False


def list_capsules(root: str = DEFAULT_ROOT) -> List[str]:
    """Capsule ids under *root*, sorted."""
    if not os.path.isdir(root):
        return []
    return sorted(
        name
        for name in os.listdir(root)
        if is_capsule_dir(os.path.join(root, name))
    )


def load_capsule(ref: str, root: str = DEFAULT_ROOT) -> CapsuleArtifact:
    """Load a capsule by directory path, id, or unique id prefix."""
    candidates: List[str] = []
    if os.path.isdir(ref) and is_capsule_dir(ref):
        candidates = [ref]
    else:
        direct = os.path.join(root, ref)
        if is_capsule_dir(direct):
            candidates = [direct]
        else:
            matches = [
                cid for cid in list_capsules(root) if cid.startswith(ref)
            ]
            if len(matches) > 1:
                raise ArtifactError(
                    "ambiguous capsule %r: matches %s" % (ref, matches)
                )
            candidates = [os.path.join(root, m) for m in matches]
    if not candidates:
        raise ArtifactError(
            "no capsule %r under %s (try 'python -m repro debug list')"
            % (ref, root)
        )
    path = candidates[0]
    with open(os.path.join(path, MANIFEST_NAME)) as fh:
        manifest = json.load(fh)
    return CapsuleArtifact(path=path, manifest=manifest)


def find_capsules(
    root: str = DEFAULT_ROOT,
    workload: Optional[str] = None,
    containing_cycle: Optional[int] = None,
    source_run: Optional[str] = None,
) -> List[CapsuleArtifact]:
    """Capsules matching every given filter (None filters match all)."""
    out = []
    for capsule_id in list_capsules(root):
        capsule = load_capsule(capsule_id, root)
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


def verify_capsule(capsule: CapsuleArtifact) -> List[str]:
    """Re-hash payload files against the manifest; returns problems
    (empty == intact)."""
    problems = []
    recorded = capsule.manifest.get("files", {})
    for name, want in sorted(recorded.items()):
        path = os.path.join(capsule.path, name)
        if not os.path.exists(path):
            problems.append("missing payload file %s" % name)
            continue
        if name not in CAPSULE_HASHED_FILES or not want:
            continue
        with open(path) as fh:
            got = _sha256_text(fh.read())
        if got != want:
            problems.append(
                "hash mismatch on %s: manifest %s.., file %s.."
                % (name, want[:12], got[:12])
            )
    identity = {
        key: capsule.manifest.get(key)
        for key in ("schema", "kind", "label", "workload", "window",
                    "violation")
    }
    hashes = {
        name: value
        for name, value in recorded.items()
        if name in CAPSULE_HASHED_FILES and value
    }
    if _content_hash(identity, hashes) != capsule.content_hash:
        problems.append("content hash does not match manifest identity")
    return problems


# -- capsule diffing -------------------------------------------------------

# Scalar per-tick row fields compared cycle-by-cycle, in report order.
ROW_FIELDS = (
    "pc", "in_count", "halted", "flags", "regs", "fregs_digest",
    "srs_digest", "rob", "rs", "lsq", "tb", "buffered", "committed",
    "checkpoints", "stats",
)


def diff_capsules(
    a: CapsuleArtifact,
    b: CapsuleArtifact,
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
