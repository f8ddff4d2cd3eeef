"""FastPulse: the live telemetry plane over a running simulation.

Everything FastScope, FastFlight and FastWatch report is post-hoc --
nothing is visible until ``run()`` returns.  FastPulse closes that gap
the way co-emulation control planes do (ZynqParrot's host-visible
status registers, CHESSY-style heartbeats): a :class:`PulseEmitter`
subscribes to the observation plane (:mod:`repro.observability.plane`)
*with an idle hint*, so arming it preserves the compiled engine's idle
fast-forward, and every ``interval_cycles`` target cycles it snapshots
progress into an append-only ``pulse.jsonl`` sidecar that
out-of-process readers (``python -m repro top``, the OpenMetrics
exporter) tail while the run is still in flight.

Record stream
-------------

The sidecar uses the one record format of
:mod:`repro.observability.events`: each line is ``{"kind", "seq",
...deterministic fields}`` plus one ``host`` object of volatile
host-timing fields (heartbeat timestamp, wall seconds, sim-cycles/sec,
ETA) that never enters any hash.  The deterministic fields are cycle,
committed instructions/uops, IPC, trace-buffer/ROB occupancy,
invariant firings, watchdog stall state and progress vs. the
configured horizon.  Sampling cadence is pure cycle arithmetic, so due
samples -- and the footer -- are byte-identical outside ``seq`` and
``host`` across same-seed runs and across both tick engines.

Four record kinds::

    pulse_header   written atomically at arm time (seq 0): schema,
                   workload, cadence, horizon, engine, watchdog config
    pulse          one per due sample ("sample" counts them);
                   ``pulse_hb`` is the same shape emitted off-cadence
                   purely to keep the heartbeat fresh for readers
                   ("sample" is null; never hashed)
    pulse_stall    the liveness watchdog's edge-triggered no-progress
                   flag (deterministic: derived from sample fields only)
    footer         the shared footer (``stream: "pulse"``); its
                   ``hash`` covers every due sample and stall, and it
                   adds the final snapshot, peaks and cadence

Wall-clock capping: ``min_wall_s`` coalesces due-sample *writes* that
land closer together than the cap (the skipped count rides along in
``host.coalesced``), but the rolling hash is updated at every due
sample regardless, so coalescing never perturbs the footer.

The liveness watchdog
---------------------

:class:`LivenessWatchdog` watches the due samples for *no-progress*
stalls: no committed instruction and no idle-cycle progress across
``no_commit_cycles`` target cycles (the in-model watchdog in
``TimingConfig.watchdog_cycles`` raises; this one classifies and keeps
going -- the fuzz oracle uses it to say *where* a wedged cell stopped).
No-heartbeat detection is the host-side dual: readers compare the last
record's ``host.ts`` against the clock (:func:`classify`).  A stall can
trigger FastWatch time travel via :func:`capture_stall_capsule`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.observability.events import (
    FOOTER_KIND,
    RollingHash,
    canonical_line,
    footer,
    read_stream,
)
from repro.observability.plane import plane_for

PULSE_SCHEMA = 2
PULSE_NAME = "pulse.jsonl"
DEFAULT_PULSE_DIR = os.path.join("results", "pulse")
DEFAULT_INTERVAL_CYCLES = 50_000
DEFAULT_STALL_CYCLES = 250_000
DEFAULT_HEARTBEAT_S = 1.0
DEFAULT_HEARTBEAT_TIMEOUT = 5.0

HEADER_KIND = "pulse_header"
SAMPLE_KIND = "pulse"
HEARTBEAT_KIND = "pulse_hb"
STALL_KIND = "pulse_stall"


class LivenessWatchdog:
    """Deterministic no-progress stall classification over due samples.

    Progress means either committed instructions or idle cycles
    advanced since the previous due sample (a sleeping machine is
    alive; a machine that neither commits nor idles is wedged).  The
    flag is edge-triggered: one stall record per stall, re-armed the
    moment progress resumes.
    """

    def __init__(
        self,
        no_commit_cycles: int = DEFAULT_STALL_CYCLES,
        on_stall: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        self.no_commit_cycles = int(no_commit_cycles)
        self.on_stall = on_stall
        self.stall_count = 0
        self.stalled = False
        self.last_stall: Optional[Dict[str, Any]] = None
        self._progress_mark: Optional[tuple] = None
        self._progress_cycle = 0

    def observe(self, sample: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Feed one due sample's fields; returns the stall record on the
        stall's leading edge, else ``None``."""
        cycle = int(sample["cycle"])
        mark = (sample["instructions"], sample["idle_cycles"])
        if self._progress_mark is None or mark != self._progress_mark:
            self._progress_mark = mark
            self._progress_cycle = cycle
            self.stalled = False
            return None
        if (
            not self.stalled
            and cycle - self._progress_cycle >= self.no_commit_cycles
        ):
            self.stalled = True
            self.stall_count += 1
            stall = {
                "kind": STALL_KIND,
                "stall": "no_progress",
                "cycle": cycle,
                "since_cycle": self._progress_cycle,
                "last_commit_cycle": sample["last_commit_cycle"],
            }
            self.last_stall = stall
            if self.on_stall is not None:
                self.on_stall(stall)
            return stall
        return None


class PulseEmitter:
    """Sample live progress from the observation plane.

    Arm *before* ``run()``.  With *path* the sidecar is written (and
    flushed) live; without, records accumulate in memory (the fuzz
    oracle's mode).  The emitter subscribes with an idle hint derived
    from the cadence, so idle spans batch up to the next due sample.
    """

    def __init__(
        self,
        tm,
        feed=None,
        path: Optional[str] = None,
        workload: Optional[str] = None,
        interval_cycles: int = DEFAULT_INTERVAL_CYCLES,
        horizon: Optional[int] = None,
        min_wall_s: float = 0.0,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        monitor=None,
        watchdog: Optional[LivenessWatchdog] = None,
    ):
        if interval_cycles < 1:
            raise ValueError("interval_cycles must be >= 1")
        self.tm = tm
        self.feed = feed
        self.path = path
        self.workload = workload
        self.interval_cycles = int(interval_cycles)
        self.horizon = horizon
        self.min_wall_s = float(min_wall_s)
        self.heartbeat_s = float(heartbeat_s)
        self.monitor = monitor
        self.watchdog = watchdog
        self._seq = 0
        self._samples = 0
        self._written = 0
        self._coalesced = 0
        self._coalesced_total = 0
        self._peak_tb = 0
        self._peak_rob = 0
        self._next_due = self.interval_cycles
        self._hb_check_cycles = max(1024, self.interval_cycles // 8)
        self._next_hb_check = self._hb_check_cycles
        self._next_wake = min(self._next_due, self._next_hb_check)
        self._hash = RollingHash()
        self._hashed_kinds: Dict[str, int] = {}
        self._finalized = False
        self._lines: List[str] = []  # in-memory mode only
        self._fh = None
        # Host timing state (volatile; never hashed).
        self._t0 = time.perf_counter()  # fastlint: ignore[DT002]
        self._last_write_t = 0.0  # perf_counter offset of last write
        self._rate_mark = (0, self._t0)  # (cycle, perf_counter)
        if path is not None:
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(path, "w")
        self._write_header()
        plane_for(tm).subscribe(
            lambda: ("cycle >= _s._next_wake", {"_s": self}),
            self._on_cycle,
            self._idle_hint,
        )

    # -- the plane seam --------------------------------------------------

    def _idle_hint(self, cycle: int) -> int:
        # Cycles strictly inside (cycle, next_due) are no-ops for the
        # deterministic plane; heartbeat checks in between are forfeited
        # (idle spans complete in negligible host time, so no reader
        # ever sees a stale heartbeat because of fast-forward).
        return max(0, self._next_due - cycle - 1)

    def _on_cycle(self, cycle: int) -> None:
        # Woken: a sample is due, or else a heartbeat check is.
        if cycle >= self._next_due:
            self._sample(cycle)
        else:
            self._heartbeat_check(cycle)
        self._next_wake = min(self._next_due, self._next_hb_check)

    # -- sampling --------------------------------------------------------

    def _snapshot(self, kind: str, cycle: int) -> Dict[str, Any]:
        """A record of *kind* holding the deterministic progress fields."""
        tm = self.tm
        be = tm.backend
        instructions = be.committed_instructions
        record: Dict[str, Any] = {
            "kind": kind,
            "cycle": cycle,
            "instructions": instructions,
            "uops": be.committed_uops,
            "idle_cycles": tm.idle_cycles,
            "last_commit_cycle": be.last_commit_cycle,
            "ipc": round(instructions / cycle, 6) if cycle else 0.0,
            "rob_occupancy": len(be.rob),
            "invariants": (
                self.monitor.firings if self.monitor is not None else 0
            ),
            "stalls": (
                self.watchdog.stall_count if self.watchdog is not None else 0
            ),
        }
        occupancy = getattr(self.feed, "occupancy", None)
        record["tb_occupancy"] = (
            int(occupancy) if occupancy is not None else None
        )
        if self.horizon:
            record["progress"] = round(min(1.0, cycle / self.horizon), 6)
        return record

    def _host_snapshot(self, cycle: int) -> Dict[str, Any]:
        now_pc = time.perf_counter()  # fastlint: ignore[DT002]
        mark_cycle, mark_pc = self._rate_mark
        dt = now_pc - mark_pc
        cps = (cycle - mark_cycle) / dt if dt > 0 else 0.0
        self._rate_mark = (cycle, now_pc)
        host: Dict[str, Any] = {
            "ts": round(time.time(), 3),  # fastlint: ignore[DT002]
            "wall_s": round(now_pc - self._t0, 3),
            "cps": round(cps, 1),
            "coalesced": self._coalesced,
        }
        if self.horizon and cps > 0:
            host["eta_s"] = round(max(0, self.horizon - cycle) / cps, 1)
        return host

    def _hash_record(self, record: Dict[str, Any]) -> None:
        self._hash.update(record)
        kind = record["kind"]
        self._hashed_kinds[kind] = self._hashed_kinds.get(kind, 0) + 1

    def _sample(self, cycle: int) -> None:
        sample = self._snapshot(SAMPLE_KIND, cycle)
        sample["sample"] = self._samples
        self._samples += 1
        self._next_due = cycle + self.interval_cycles
        self._next_hb_check = cycle + self._hb_check_cycles
        stall = None
        if self.watchdog is not None:
            stall = self.watchdog.observe(sample)
            sample["stalls"] = self.watchdog.stall_count
            sample["stalled"] = self.watchdog.stalled
        else:
            sample["stalled"] = False
        # The rolling hash covers every *due* sample and every stall
        # edge, written or coalesced -- the byte-identity contract the
        # footer pins.
        self._hash_record(sample)
        if stall is not None:
            self._hash_record(stall)
        tb = sample["tb_occupancy"]
        if tb is not None and tb > self._peak_tb:
            self._peak_tb = tb
        if sample["rob_occupancy"] > self._peak_rob:
            self._peak_rob = sample["rob_occupancy"]
        if stall is not None:
            ts = round(time.time(), 3)  # fastlint: ignore[DT002]
            self._write_record(stall, {"ts": ts})
        now_pc = time.perf_counter()  # fastlint: ignore[DT002]
        if (
            self.min_wall_s > 0
            and stall is None
            and now_pc - self._last_write_t < self.min_wall_s
        ):
            self._coalesced += 1
            self._coalesced_total += 1
            return
        host = self._host_snapshot(cycle)
        self._coalesced = 0
        self._write_record(sample, host)

    def _heartbeat_check(self, cycle: int) -> None:
        self._next_hb_check = cycle + self._hb_check_cycles
        if self._fh is None:
            return
        now_pc = time.perf_counter()  # fastlint: ignore[DT002]
        if now_pc - self._last_write_t < self.heartbeat_s:
            return
        # Off-cadence heartbeat: same shape as a pulse record but
        # outside the hashed stream (sample=null).
        beat = self._snapshot(HEARTBEAT_KIND, cycle)
        beat["sample"] = None
        beat["stalled"] = (
            self.watchdog.stalled if self.watchdog is not None else False
        )
        self._write_record(beat, self._host_snapshot(cycle))

    # -- record plumbing -------------------------------------------------

    def _write_header(self) -> None:
        header = {
            "kind": HEADER_KIND,
            "schema": PULSE_SCHEMA,
            "workload": self.workload,
            "interval_cycles": self.interval_cycles,
            "horizon": self.horizon,
            "engine": getattr(self.tm.config, "engine", None),
            "watchdog_cycles": (
                self.watchdog.no_commit_cycles
                if self.watchdog is not None
                else None
            ),
        }
        host = {
            "ts": round(time.time(), 3),  # fastlint: ignore[DT002]
            "pid": os.getpid(),
            "min_wall_s": self.min_wall_s,
            "heartbeat_s": self.heartbeat_s,
        }
        self._write_record(header, host)

    def _write_record(
        self, record: Dict[str, Any], host: Dict[str, Any]
    ) -> Dict[str, Any]:
        record = dict(record, seq=self._seq, host=host)
        self._seq += 1
        line = canonical_line(record)
        if self._fh is not None:
            # One write + flush per record: the line (header included)
            # lands atomically for line-oriented tailers.
            self._fh.write(line + "\n")
            self._fh.flush()
        else:
            self._lines.append(line + "\n")
        self._written += 1
        self._last_write_t = time.perf_counter()  # fastlint: ignore[DT002]
        return record

    # -- finalization ----------------------------------------------------

    def finalize(self) -> Dict[str, Any]:
        """Write the footer (idempotent) and return its record: the
        shared footer plus the final snapshot, peaks and cadence."""
        if self._finalized:
            return self._footer_record
        self._finalized = True
        fields = self._snapshot(FOOTER_KIND, self.tm.cycle)
        fields.update(
            samples=self._samples,
            peak_tb=self._peak_tb,
            peak_rob=self._peak_rob,
            interval_cycles=self.interval_cycles,
            horizon=self.horizon,
        )
        finished = getattr(self.feed, "finished", None)
        if finished is not None:
            fields["finished"] = bool(finished)
        record = footer("pulse", sum(self._hashed_kinds.values()),
                        self._hashed_kinds, self._hash.hexdigest(),
                        **fields)
        now_pc = time.perf_counter()  # fastlint: ignore[DT002]
        wall = now_pc - self._t0
        host = {
            "ts": round(time.time(), 3),  # fastlint: ignore[DT002]
            "wall_s": round(wall, 3),
            "cps": round(record["cycle"] / wall, 1) if wall > 0 else 0.0,
            "written": self._written,
            "coalesced": self._coalesced_total,
        }
        self._footer_record = self._write_record(record, host)
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return self._footer_record

    def sidecar_text(self) -> str:
        """The full JSONL stream (file-backed or in-memory)."""
        if self.path is not None:
            with open(self.path) as fh:
                return fh.read()
        return "".join(self._lines)


# -- stall -> FastWatch time travel -----------------------------------------


def capture_stall_capsule(
    factory: Callable[[], object],
    workload: str,
    stall: Dict[str, Any],
    delta: int = 64,
    **kwargs,
):
    """Capture a FastWatch debug capsule around a watchdog stall.

    The re-executed window is centered on the stall's last-progress
    cycle (``since_cycle``): the cycles *entering* the stall are the
    interesting ones, not the arbitrary point where the threshold
    tripped.  Thin wrapper over
    :func:`repro.observability.watch.capture_debug_capsule`.
    """
    from repro.observability.watch import capture_debug_capsule

    return capture_debug_capsule(
        factory,
        workload,
        center=int(stall["since_cycle"]),
        delta=delta,
        **kwargs,
    )


# -- sidecar reading ---------------------------------------------------------


@dataclass
class PulseSidecar:
    """One parsed ``pulse.jsonl`` stream (tolerant of in-flight tails)."""

    path: str
    header: Optional[Dict[str, Any]] = None
    last: Optional[Dict[str, Any]] = None  # last pulse/pulse_hb record
    footer: Optional[Dict[str, Any]] = None
    stalls: List[Dict[str, Any]] = field(default_factory=list)
    samples: int = 0
    records: int = 0

    @property
    def name(self) -> str:
        if self.header is not None:
            workload = self.header.get("workload")
            if workload:
                return str(workload)
        base = os.path.basename(self.path)
        return base[: -len(".jsonl")] if base.endswith(".jsonl") else base


def load_sidecar(path: str) -> PulseSidecar:
    records, sidecar_footer = read_stream(path)
    sidecar = PulseSidecar(path=path, footer=sidecar_footer)
    sidecar.records = len(records) + (sidecar_footer is not None)
    for record in records:
        kind = record.get("kind")
        if kind == HEADER_KIND:
            sidecar.header = record
        elif kind in (SAMPLE_KIND, HEARTBEAT_KIND):
            sidecar.last = record
            if kind == SAMPLE_KIND:
                sidecar.samples += 1
        elif kind == STALL_KIND:
            sidecar.stalls.append(record)
    return sidecar


def find_sidecars(paths: List[str]) -> List[str]:
    """Expand files/directories into sorted ``*.jsonl`` sidecar paths
    (a directory contributes every pulse stream directly under it)."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".jsonl"):
                    out.append(os.path.join(path, name))
        elif os.path.exists(path):
            out.append(path)
    return out


STATUS_DONE = "done"
STATUS_LIVE = "live"
STATUS_ARMED = "armed"
STATUS_STALLED = "stalled"
STATUS_NO_HEARTBEAT = "no-heartbeat"


def classify(
    sidecar: PulseSidecar,
    now: Optional[float] = None,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
) -> str:
    """Liveness verdict for one sidecar.

    ``done`` (footer present) > ``stalled`` (watchdog flag set on the
    last sample) > ``no-heartbeat`` (last record's host timestamp is
    older than *heartbeat_timeout* -- the emitting process is wedged or
    gone) > ``live``; ``armed`` means only the header has landed.
    """
    if sidecar.footer is not None:
        return STATUS_DONE
    if sidecar.last is None:
        record = sidecar.header
        if record is None:
            return STATUS_ARMED
    else:
        record = sidecar.last
        if record.get("stalled"):
            return STATUS_STALLED
    if now is None:
        now = time.time()  # fastlint: ignore[DT002]
    ts = record.get("host", {}).get("ts")
    if ts is not None and now - float(ts) > heartbeat_timeout:
        return STATUS_NO_HEARTBEAT
    return STATUS_LIVE if sidecar.last is not None else STATUS_ARMED


def snapshot(
    sidecar: PulseSidecar,
    now: Optional[float] = None,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
) -> Dict[str, Any]:
    """One flattened status row (``repro top``'s unit of display)."""
    if now is None:
        now = time.time()  # fastlint: ignore[DT002]
    record = sidecar.footer or sidecar.last or sidecar.header or {}
    host = record.get("host", {})
    ts = host.get("ts")
    return {
        "run": sidecar.name,
        "path": sidecar.path,
        "status": classify(sidecar, now=now,
                           heartbeat_timeout=heartbeat_timeout),
        "cycle": record.get("cycle", 0),
        "instructions": record.get("instructions", 0),
        "ipc": record.get("ipc", 0.0),
        "cps": host.get("cps", 0.0),
        "tb_occupancy": record.get("tb_occupancy"),
        "rob_occupancy": record.get("rob_occupancy", 0),
        "invariants": record.get("invariants", 0),
        "stalls": record.get("stalls", len(sidecar.stalls)),
        "progress": record.get("progress"),
        "eta_s": host.get("eta_s"),
        "age_s": round(now - float(ts), 1) if ts is not None else None,
        "samples": sidecar.samples,
    }


# -- OpenMetrics export ------------------------------------------------------

# (metric suffix, type, help text, row key)
_OPENMETRICS: List[tuple] = [
    ("cycles", "gauge", "Target cycles simulated", "cycle"),
    ("instructions", "gauge", "Committed instructions", "instructions"),
    ("ipc", "gauge", "Committed instructions per cycle", "ipc"),
    ("sim_cycles_per_second", "gauge",
     "Host-side simulation rate (sim-cycles/sec)", "cps"),
    ("tb_occupancy", "gauge",
     "Uncommitted trace-buffer entries at last sample", "tb_occupancy"),
    ("rob_occupancy", "gauge", "ROB entries at last sample",
     "rob_occupancy"),
    ("invariant_firings", "counter", "FastWatch invariant firings",
     "invariants"),
    ("stalls", "counter", "Liveness-watchdog no-progress stalls",
     "stalls"),
    ("progress_ratio", "gauge", "Fraction of the configured horizon",
     "progress"),
    ("up", "gauge", "1 while the run is live or freshly finished", None),
]

_UP_STATUSES = (STATUS_LIVE, STATUS_DONE, STATUS_ARMED)


def render_openmetrics(
    sidecars: List[PulseSidecar], now: Optional[float] = None
) -> str:
    """The sidecar fleet as OpenMetrics text (scrape-style export)."""
    if now is None:
        now = time.time()  # fastlint: ignore[DT002]
    rows = [snapshot(s, now=now) for s in sidecars]
    lines: List[str] = []
    for suffix, mtype, help_text, key in _OPENMETRICS:
        metric = "fast_pulse_" + suffix
        lines.append("# TYPE %s %s" % (metric, mtype))
        lines.append("# HELP %s %s" % (metric, help_text))
        for row in rows:
            if key is None:
                value: Any = 1 if row["status"] in _UP_STATUSES else 0
            else:
                value = row.get(key)
            if value is None:
                continue
            lines.append(
                '%s{run="%s"} %s' % (metric, row["run"], value)
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
