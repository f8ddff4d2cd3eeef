"""RunArtifact: the one persistent, content-addressed artifact store.

Every run worth analyzing later -- a bench timing, a
``run_fast_workload`` call, a fig/table experiment, a FastWatch debug
capsule -- writes one directory under ``results/runs/<id>/``::

    manifest.json   identity (kind, experiment, workload, config, extra),
                    file hashes, and the *volatile* host section (wall
                    seconds, cycles/sec, engine) kept outside the hash
    stats.json      final TimingStats / FunctionalStats / ProtocolStats
    windows.json    StatsFabric window series        (scoped runs only)
    trace.jsonl     seam event stream + footer       (scoped runs only)
    profile.json    TickProfiler samples             (profiled runs only)
    pulse.jsonl     FastPulse live-telemetry sidecar (pulse-armed runs)
    output.txt      rendered experiment text         (experiments only)

A ``kind: "capsule"`` artifact carries ``capsule.json``,
``window.jsonl`` and ``events.jsonl`` instead (see
:mod:`repro.observability.flight.capsule`).  Every kind goes through
:func:`write_artifact`: one id scheme, one load-by-prefix, one
:func:`verify_artifact`.  The JSONL files use the one record format and
footer of :mod:`repro.observability.events`.

Content addressing is the determinism contract made durable: the id is
a hash over the manifest's identity fields plus the hashes of every
payload file except the host-wall-time ones (``profile.json``,
``pulse.jsonl``), so two same-seed runs produce artifacts with the same
content hash, and a hash mismatch between two "identical" runs is
itself a regression signal.

``pulse.jsonl`` interleaves heartbeats with deterministic samples, so
its bytes stay outside the content hash; its footer, minus ``seq`` and
``host``, is folded into the hashed identity as
``extra["pulse_footer"]`` instead, making live-telemetry divergence
between two same-seed runs a content-hash mismatch.

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
from typing import Any, Dict, List, Optional, Tuple

from repro.observability.events import (
    canonical_line,
    hashed_view,
    read_stream,
)

SCHEMA_VERSION = 1
DEFAULT_ROOT = os.path.join("results", "runs")
RUN_KIND = "run"

MANIFEST_NAME = "manifest.json"
STATS_NAME = "stats.json"
WINDOWS_NAME = "windows.json"
TRACE_NAME = "trace.jsonl"
PROFILE_NAME = "profile.json"
PULSE_NAME = "pulse.jsonl"
OUTPUT_NAME = "output.txt"

# Payload files kept out of the content hash: both carry host wall time
# (pulse determinism enters the hash through extra["pulse_footer"]).
UNHASHED_FILES = (PROFILE_NAME, PULSE_NAME)

# The manifest fields the content hash covers, besides the file hashes.
IDENTITY_KEYS = ("schema", "kind", "experiment", "workload", "config",
                 "extra")


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
    def kind(self) -> str:
        return str(self.manifest.get("kind", RUN_KIND))

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
    def extra(self) -> Dict[str, Any]:
        return dict(self.manifest.get("extra", {}))

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

    def _stream(self, name: str) -> Tuple[List[Dict[str, Any]],
                                          Optional[Dict[str, Any]]]:
        path = self._file(name)
        return read_stream(path) if path is not None else ([], None)

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
        """Parsed seam-event records (the footer excluded)."""
        return self._stream(TRACE_NAME)[0]

    def footer(self, stream: str) -> Optional[Dict[str, Any]]:
        """The footer of the artifact's ``<stream>.jsonl`` (``trace``,
        ``pulse``, ...), or else its hashed ``extra["<stream>_footer"]``
        copy; None when neither exists."""
        found = self._stream(stream + ".jsonl")[1]
        if found is None:
            found = self.extra.get(stream + "_footer")
        return found

    def has_trace(self) -> bool:
        return self._file(TRACE_NAME) is not None

    def has_pulse(self) -> bool:
        return self._file(PULSE_NAME) is not None


# -- hashing ---------------------------------------------------------------


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _content_hash(manifest: Dict[str, Any]) -> str:
    """The one identity rule: the identity fields the manifest carries
    plus its non-empty payload file hashes."""
    body = {key: manifest[key] for key in IDENTITY_KEYS if key in manifest}
    body["files"] = {
        name: value
        for name, value in sorted(manifest.get("files", {}).items())
        if value
    }
    return _sha256_text(canonical_json(body))


# -- emission --------------------------------------------------------------


def write_artifact(
    kind: str,
    experiment: str,
    workload: Optional[str],
    config: Dict[str, Any],
    extra: Dict[str, Any],
    files: Dict[str, str],
    host: Optional[Dict[str, Any]],
    root: str,
) -> RunArtifact:
    """Store one artifact of any *kind*: hash the payload *files* (name
    -> text), derive the content-addressed id, write the directory and
    return it loaded."""
    manifest: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "experiment": experiment,
        "workload": workload,
        "config": config,
        "extra": extra,
    }
    manifest["files"] = {
        name: "" if name in UNHASHED_FILES else _sha256_text(text)
        for name, text in sorted(files.items())
    }
    content_hash = _content_hash(manifest)

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

    manifest["run_id"] = run_id
    manifest["content_hash"] = content_hash
    manifest["host"] = dict(host or {})
    for name, text in files.items():
        with open(os.path.join(path, name), "w") as fh:
            fh.write(text)
    with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return RunArtifact(path=path, manifest=manifest)


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
    window series, the seam trace stream and, when the profiler ran,
    the tick profile.  *host* is the volatile section (wall seconds,
    cycles/sec) -- recorded, never hashed.

    *pulse* adopts a FastPulse sidecar: either a live
    :class:`~repro.observability.pulse.PulseEmitter` (finalized here) or
    a path to an existing ``pulse.jsonl``.  The sidecar bytes land
    unhashed (they interleave host timestamps); its footer, minus
    ``seq`` and ``host``, is folded into ``extra["pulse_footer"]`` so it
    enters the content hash.
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
        files[TRACE_NAME] = scope.tracer.to_jsonl()
        if scope.profiler is not None:
            files[PROFILE_NAME] = canonical_json(scope.profiler.report())
    if output is not None:
        files[OUTPUT_NAME] = output if output.endswith("\n") else output + "\n"

    extra = dict(_plain(extra) or {})
    if pulse is None and scope is not None:
        pulse = getattr(scope, "pulse", None)
    if pulse is not None:
        if isinstance(pulse, str):
            with open(pulse) as fh:
                files[PULSE_NAME] = fh.read()
            pulse_footer = read_stream(pulse)[1]
        else:
            pulse_footer = pulse.finalize()
            files[PULSE_NAME] = pulse.sidecar_text()
        if pulse_footer is not None:
            extra["pulse_footer"] = hashed_view(pulse_footer)
    return write_artifact(RUN_KIND, experiment, workload,
                          _plain(config) or {}, extra, files, host, root)


# -- loading ---------------------------------------------------------------


def _read_manifest(path: str) -> Dict[str, Any]:
    with open(os.path.join(path, MANIFEST_NAME)) as fh:
        return json.load(fh)


def list_artifacts(root: str = DEFAULT_ROOT,
                   kind: Optional[str] = None) -> List[str]:
    """Artifact ids under *root*, sorted (name order; ids are
    content-based); with *kind*, only artifacts of that kind."""
    if not os.path.isdir(root):
        return []
    return sorted(
        name
        for name in os.listdir(root)
        if os.path.exists(os.path.join(root, name, MANIFEST_NAME))
        and (kind is None or _read_manifest(os.path.join(root, name))
             .get("kind", RUN_KIND) == kind)
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
    return RunArtifact(path=path, manifest=_read_manifest(path))


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
        if not want:
            continue
        with open(path) as fh:
            got = _sha256_text(fh.read())
        if got != want:
            problems.append(
                "hash mismatch on %s: manifest %s.., file %s.."
                % (name, want[:12], got[:12])
            )
    if _content_hash(artifact.manifest) != artifact.content_hash:
        problems.append("content hash does not match manifest identity")
    return problems
