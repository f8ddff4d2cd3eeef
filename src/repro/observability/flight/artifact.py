"""RunArtifact: the persistent, content-addressed record of one run.

Every run worth analyzing later -- a bench timing, a
``run_fast_workload`` call, a fig/table experiment -- writes one
directory under ``results/runs/<id>/``::

    manifest.json   identity (experiment, workload, config), file hashes,
                    and the *volatile* host section (wall seconds,
                    cycles/sec) kept outside the content hash
    stats.json      final TimingStats / FunctionalStats / ProtocolStats
    windows.json    StatsFabric window series        (scoped runs only)
    trace.jsonl     seam event ring + summary footer (scoped runs only)
    profile.json    TickProfiler samples             (profiled runs only)
    pulse.jsonl     FastPulse live-telemetry sidecar (pulse-armed runs)
    output.txt      rendered experiment text         (experiments only)

Content addressing is the determinism contract made durable: the id is
a hash over the *target-deterministic* payload (stats, windows, trace,
output) plus the identity fields, so two same-seed runs produce
artifacts with the same content hash, and a hash mismatch between two
"identical" runs is itself a regression signal.  Host wall-time lives
only in the manifest's ``host`` section and never enters the hash.

``pulse.jsonl`` interleaves heartbeat timestamps with deterministic
progress samples, so -- like ``profile.json`` -- its bytes stay outside
the content hash; the *deterministic footer* of the stream (sample
count, rolling det hash, stall count) is folded into the hashed
identity as ``extra["pulse_footer"]`` instead, making live-telemetry
divergence between two same-seed runs a content-hash mismatch.

Nothing here reads a clock: artifacts carry no timestamps (content
addressing makes them unnecessary, and the determinism lint would
rightly object).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.observability.events import canonical_line

SCHEMA_VERSION = 1
DEFAULT_ROOT = os.path.join("results", "runs")

MANIFEST_NAME = "manifest.json"
STATS_NAME = "stats.json"
WINDOWS_NAME = "windows.json"
TRACE_NAME = "trace.jsonl"
PROFILE_NAME = "profile.json"
PULSE_NAME = "pulse.jsonl"
OUTPUT_NAME = "output.txt"

# Payload files whose bytes enter the content hash.  profile.json and
# pulse.jsonl carry host-wall-time samples and are deliberately
# excluded, like the manifest's host section (pulse determinism enters
# the hash through extra["pulse_footer"] instead).
HASHED_FILES = (STATS_NAME, WINDOWS_NAME, TRACE_NAME, OUTPUT_NAME)

TRACE_FOOTER_KIND = "trace_summary"
PULSE_FOOTER_KIND = "pulse_footer"


def canonical_json(obj: Any) -> str:
    """Sorted-key, compact, newline-terminated JSON -- the byte-stable
    encoding every hashed artifact file uses."""
    return canonical_line(obj) + "\n"


def _plain(obj: Any) -> Any:
    """Dataclasses (TimingStats & friends) to plain dicts, recursively."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    return obj


def _slug(text: str) -> str:
    out = []
    for ch in text:
        out.append(ch if (ch.isalnum() or ch in "._-") else "-")
    return "".join(out) or "run"


class ArtifactError(ValueError):
    """A malformed, missing or ambiguous artifact reference."""


@dataclass
class RunArtifact:
    """One loaded ``results/runs/<id>/`` directory."""

    path: str
    manifest: Dict[str, Any]
    _stats: Optional[Dict[str, Any]] = field(default=None, repr=False)

    # -- identity --------------------------------------------------------

    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run_id", os.path.basename(self.path)))

    @property
    def content_hash(self) -> str:
        return str(self.manifest.get("content_hash", ""))

    @property
    def experiment(self) -> str:
        return str(self.manifest.get("experiment", ""))

    @property
    def workload(self) -> Optional[str]:
        return self.manifest.get("workload")

    @property
    def config(self) -> Dict[str, Any]:
        return dict(self.manifest.get("config", {}))

    @property
    def host(self) -> Dict[str, Any]:
        return dict(self.manifest.get("host", {}))

    # -- payload readers -------------------------------------------------

    def _file(self, name: str) -> Optional[str]:
        path = os.path.join(self.path, name)
        return path if os.path.exists(path) else None

    def _read_json(self, name: str) -> Optional[Dict[str, Any]]:
        path = self._file(name)
        if path is None:
            return None
        with open(path) as fh:
            return json.load(fh)

    def stats(self) -> Dict[str, Any]:
        if self._stats is None:
            self._stats = self._read_json(STATS_NAME) or {}
        return self._stats

    def timing(self) -> Dict[str, Any]:
        """The final TimingStats snapshot as a plain dict."""
        return dict(self.stats().get("timing", {}))

    def windows(self) -> Optional[Dict[str, Any]]:
        return self._read_json(WINDOWS_NAME)

    def profile(self) -> Optional[Dict[str, Any]]:
        return self._read_json(PROFILE_NAME)

    def output(self) -> Optional[str]:
        path = self._file(OUTPUT_NAME)
        if path is None:
            return None
        with open(path) as fh:
            return fh.read()

    def events(self) -> List[Dict[str, Any]]:
        """Parsed seam-event records (the summary footer excluded)."""
        path = self._file(TRACE_NAME)
        if path is None:
            return []
        records = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("kind") != TRACE_FOOTER_KIND:
                    records.append(record)
        return records

    def trace_summary(self) -> Optional[Dict[str, Any]]:
        """The whole-run trace footer (recorded/dropped/per-kind totals),
        if the artifact carries a trace."""
        path = self._file(TRACE_NAME)
        if path is None:
            return None
        last = None
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    last = line
        if last is None:
            return None
        record = json.loads(last)
        return record if record.get("kind") == TRACE_FOOTER_KIND else None

    def has_trace(self) -> bool:
        return self._file(TRACE_NAME) is not None

    def has_pulse(self) -> bool:
        return self._file(PULSE_NAME) is not None

    def pulse_summary(self) -> Optional[Dict[str, Any]]:
        """The FastPulse footer record (``det`` + ``host`` sections)
        when the artifact adopted a live-telemetry sidecar; falls back
        to the hashed ``extra["pulse_footer"]`` identity copy."""
        path = self._file(PULSE_NAME)
        if path is not None:
            last = None
            with open(path) as fh:
                for line in fh:
                    if line.strip():
                        last = line
            if last is not None:
                try:
                    record = json.loads(last)
                except ValueError:
                    record = None
                if record and record.get("kind") == PULSE_FOOTER_KIND:
                    return record
        footer = self.manifest.get("extra", {}).get("pulse_footer")
        if footer:
            return {"kind": PULSE_FOOTER_KIND, "det": footer, "host": {}}
        return None


# -- hashing ---------------------------------------------------------------


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _content_hash(identity: Dict[str, Any],
                  file_hashes: Dict[str, str]) -> str:
    body = dict(identity)
    body["files"] = dict(sorted(file_hashes.items()))
    return _sha256_text(canonical_json(body))


# -- emission --------------------------------------------------------------


def _pulse_footer_from_text(text: str) -> Optional[Dict[str, Any]]:
    """The deterministic footer section of a pulse sidecar's text, or
    None when the stream never finalized (crash mid-run)."""
    last = None
    for line in text.splitlines():
        if line.strip():
            last = line
    if last is None:
        return None
    try:
        record = json.loads(last)
    except ValueError:
        return None
    if record.get("kind") != PULSE_FOOTER_KIND:
        return None
    det = record.get("det")
    return det if isinstance(det, dict) else None


def emit_artifact(
    experiment: str,
    workload: Optional[str] = None,
    config: Optional[Dict[str, Any]] = None,
    result: Any = None,
    timing: Any = None,
    scope: Any = None,
    host: Optional[Dict[str, Any]] = None,
    output: Optional[str] = None,
    extra: Optional[Dict[str, Any]] = None,
    pulse: Any = None,
    root: str = DEFAULT_ROOT,
) -> RunArtifact:
    """Write one run artifact directory and return it loaded.

    *result* is a :class:`~repro.fast.simulator.SimulationResult` (or
    anything with ``timing``/``functional``/``protocol`` attributes);
    *timing* alone is accepted for stats-only artifacts.  *scope* is a
    :class:`~repro.observability.scope.FastScope`, contributing the
    window series, the seam trace (with summary footer) and, when the
    profiler ran, the tick profile.  *host* is the volatile section
    (wall seconds, cycles/sec) -- recorded, never hashed.

    *pulse* adopts a FastPulse sidecar: either a live
    :class:`~repro.observability.pulse.PulseEmitter` (finalized here) or
    a path to an existing ``pulse.jsonl``.  The sidecar bytes land
    unhashed (they interleave host timestamps); the deterministic footer
    is folded into ``extra["pulse_footer"]`` so it enters the content
    hash.
    """
    files: Dict[str, str] = {}  # name -> file text
    stats: Dict[str, Any] = {}
    if result is not None:
        stats["timing"] = _plain(result.timing)
        stats["functional"] = _plain(result.functional)
        stats["protocol"] = _plain(result.protocol)
        stats["microcode_coverage"] = result.microcode_coverage
        stats["uops_per_instruction"] = result.uops_per_instruction
    elif timing is not None:
        stats["timing"] = _plain(timing)
    if stats:
        files[STATS_NAME] = canonical_json(stats)
    if scope is not None:
        scope.finalize()
        files[WINDOWS_NAME] = canonical_json(scope.fabric.report())
        files[TRACE_NAME] = scope.tracer.to_jsonl(footer=True)
        if scope.profiler is not None:
            files[PROFILE_NAME] = canonical_json(scope.profiler.report())
    if output is not None:
        files[OUTPUT_NAME] = output if output.endswith("\n") else output + "\n"

    if pulse is None and scope is not None:
        pulse = getattr(scope, "pulse", None)
    pulse_footer: Optional[Dict[str, Any]] = None
    if pulse is not None:
        if isinstance(pulse, str):
            with open(pulse) as fh:
                pulse_text = fh.read()
        else:
            pulse.finalize()
            pulse_text = pulse.sidecar_text()
        files[PULSE_NAME] = pulse_text
        pulse_footer = _pulse_footer_from_text(pulse_text)

    identity: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "experiment": experiment,
        "workload": workload,
        "config": _plain(config) or {},
        "extra": _plain(extra) or {},
    }
    if pulse_footer is not None:
        identity["extra"] = dict(identity["extra"])
        identity["extra"]["pulse_footer"] = pulse_footer
    file_hashes = {
        name: _sha256_text(text)
        for name, text in files.items()
        if name in HASHED_FILES
    }
    content_hash = _content_hash(identity, file_hashes)

    base_id = "%s-%s" % (_slug(experiment), content_hash[:12])
    if workload:
        base_id = "%s-%s-%s" % (
            _slug(experiment), _slug(workload), content_hash[:12]
        )
    os.makedirs(root, exist_ok=True)
    run_id = base_id
    serial = 1
    while os.path.exists(os.path.join(root, run_id)):
        # Same-content re-runs are kept side by side (the "two same-seed
        # artifacts diff clean" workflow needs both on disk).
        serial += 1
        run_id = "%s.%d" % (base_id, serial)
    path = os.path.join(root, run_id)
    os.makedirs(path)

    manifest: Dict[str, Any] = dict(identity)
    manifest["run_id"] = run_id
    manifest["content_hash"] = content_hash
    manifest["files"] = {
        name: file_hashes.get(name, "") for name in sorted(files)
    }
    manifest["host"] = dict(host or {})

    for name, text in files.items():
        with open(os.path.join(path, name), "w") as fh:
            fh.write(text)
    with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return RunArtifact(path=path, manifest=manifest)


# -- loading ---------------------------------------------------------------


def list_artifacts(root: str = DEFAULT_ROOT) -> List[str]:
    """Run ids under *root*, sorted (name order; ids are content-based)."""
    if not os.path.isdir(root):
        return []
    return sorted(
        name
        for name in os.listdir(root)
        if os.path.exists(os.path.join(root, name, MANIFEST_NAME))
    )


def load_artifact(ref: str, root: str = DEFAULT_ROOT) -> RunArtifact:
    """Load an artifact by directory path, run id, or unique id prefix."""
    candidates = []
    if os.path.isdir(ref) and os.path.exists(os.path.join(ref, MANIFEST_NAME)):
        candidates = [ref]
    else:
        direct = os.path.join(root, ref)
        if os.path.exists(os.path.join(direct, MANIFEST_NAME)):
            candidates = [direct]
        else:
            matches = [
                run_id for run_id in list_artifacts(root)
                if run_id.startswith(ref)
            ]
            if len(matches) > 1:
                raise ArtifactError(
                    "ambiguous artifact %r: matches %s" % (ref, matches)
                )
            candidates = [os.path.join(root, m) for m in matches]
    if not candidates:
        raise ArtifactError(
            "no artifact %r under %s (try 'python -m repro report --list')"
            % (ref, root)
        )
    path = candidates[0]
    with open(os.path.join(path, MANIFEST_NAME)) as fh:
        manifest = json.load(fh)
    return RunArtifact(path=path, manifest=manifest)


def verify_artifact(artifact: RunArtifact) -> List[str]:
    """Re-hash the payload files against the manifest; returns a list of
    human-readable integrity problems (empty == intact)."""
    problems = []
    recorded = artifact.manifest.get("files", {})
    for name, want in sorted(recorded.items()):
        path = os.path.join(artifact.path, name)
        if not os.path.exists(path):
            problems.append("missing payload file %s" % name)
            continue
        if name not in HASHED_FILES or not want:
            continue
        with open(path) as fh:
            got = _sha256_text(fh.read())
        if got != want:
            problems.append(
                "hash mismatch on %s: manifest %s.., file %s.."
                % (name, want[:12], got[:12])
            )
    identity = {
        key: artifact.manifest.get(key)
        for key in ("schema", "experiment", "workload", "config", "extra")
    }
    hashes = {
        name: value
        for name, value in recorded.items()
        if name in HASHED_FILES and value
    }
    if _content_hash(identity, hashes) != artifact.content_hash:
        problems.append("content hash does not match manifest identity")
    return problems
