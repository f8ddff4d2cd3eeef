"""Structured, cycle-stamped event tracing for the FM/TM seam.

The interesting behaviour of a FAST simulator is concentrated at the
functional/timing boundary: mispredict ``set_pc`` round trips, wrong-
path resolution, rollback replays, interrupt deliveries, checkpoint
creation, trace-buffer high-water marks.  :class:`EventTracer` records
those as structured events in a bounded ring buffer and serializes them
as JSONL.

Determinism is a hard requirement (it is what makes traces diffable
across runs): records carry only target-deterministic fields -- the
timing model's cycle at emit time, a monotonic sequence number, the
event kind and its payload.  No wall-clock, no ids, no addresses of
host objects.  Serialization uses sorted keys and compact separators so
two same-seed runs produce *byte-identical* output.

Tracing is read-only with respect to the simulation: emitting an event
never touches FM or TM state, so ``TimingStats`` are bit-identical with
tracing enabled or disabled.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional

DEFAULT_CAPACITY = 65536


def canonical_line(obj) -> str:
    """Sorted-key, compact JSON on one line: the byte-stable encoding
    every deterministic record uses (tracer, pulse, capsules, run
    artifacts)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def jsonl(records) -> str:
    """Canonical lines, each newline-terminated ("" for no records)."""
    return "".join(canonical_line(record) + "\n" for record in records)


@dataclass(frozen=True)
class Event:
    """One cycle-stamped record from the FM/TM seam."""

    seq: int
    cycle: int
    kind: str
    fields: Dict[str, object]

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"seq": self.seq, "cycle": self.cycle,
                                  "kind": self.kind}
        out.update(self.fields)
        return out


class EventTracer:
    """A bounded ring buffer of :class:`Event` records.

    When the ring is full the oldest events are dropped (and counted in
    :attr:`dropped`) -- observability must never grow without bound
    inside a hundred-million-cycle run.  ``seq`` keeps climbing across
    drops, so consumers can detect the gap.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 cycle_source: Optional[Callable[[], int]] = None):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.cycle_source = cycle_source
        self.seq = 0
        self.dropped = 0
        self._ring: Deque[Event] = deque(maxlen=capacity)
        # kind -> count, over the whole run (not just what the ring
        # still holds); cheap enough to keep always.
        self.kind_counts: Dict[str, int] = {}

    def emit(self, kind: str, **fields) -> Event:
        cycle = self.cycle_source() if self.cycle_source is not None else 0
        event = Event(seq=self.seq, cycle=cycle, kind=kind, fields=fields)
        self.seq += 1
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        return event

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._ring)

    @property
    def events(self) -> List[Event]:
        return list(self._ring)

    def footer(self) -> dict:
        """The gap-detection summary record appended to JSONL output:
        whole-run recorded/dropped counts and exact per-kind totals,
        which survive ring overflow even when the events themselves
        were dropped.  Target-deterministic, like every record."""
        return {
            "kind": "trace_summary",
            "recorded": self.seq,
            "retained": len(self._ring),
            "dropped": self.dropped,
            "kinds": dict(sorted(self.kind_counts.items())),
        }

    def to_jsonl(self, footer: bool = False) -> str:
        """Byte-reproducible JSONL: one sorted-key compact record per
        line, trailing newline if nonempty.  With *footer*, a final
        ``trace_summary`` record carries the whole-run drop accounting
        so consumers can detect ring-overflow gaps."""
        records = [event.to_dict() for event in self._ring]
        if footer:
            records.append(self.footer())
        return jsonl(records)

    def write_jsonl(self, path: str, footer: bool = False) -> int:
        """Write the ring to *path*; returns the number of records."""
        text = self.to_jsonl(footer=footer)
        with open(path, "w") as fh:
            fh.write(text)
        return len(self._ring)

    def summary(self) -> dict:
        return {
            "capacity": self.capacity,
            "recorded": self.seq,
            "retained": len(self._ring),
            "dropped": self.dropped,
            "kinds": dict(sorted(self.kind_counts.items())),
        }


class _FunctionalObserver:
    """Adapter giving the FunctionalModel a tracer-shaped observer.

    The FM has no notion of target cycles; events it raises (checkpoint
    creation, rollback replay) are stamped with the timing model's
    cycle at emit time, which is deterministic because every FM step is
    driven synchronously from inside a TM tick.
    """

    def __init__(self, tracer: EventTracer):
        self.tracer = tracer

    def on_checkpoint(self, in_no: int, live: int) -> None:
        self.tracer.emit("fm_checkpoint", in_no=in_no, live_checkpoints=live)

    def on_rollback(self, target_in: int, replayed: int) -> None:
        self.tracer.emit("fm_rollback", target_in=target_in,
                         replayed=replayed)


def attach_tracer(sim, capacity: int = DEFAULT_CAPACITY) -> EventTracer:
    """Wire one :class:`EventTracer` across a FastSimulator's seam.

    Hooks the trace buffer feed (mispredict/resolve/interrupt/high-
    water), the functional model (checkpoints, rollbacks) and the
    timing model's interrupt coordinator, all stamping with
    ``sim.tm.cycle``.  Call *before* ``sim.run()``.
    """
    tm = sim.tm
    tracer = EventTracer(capacity=capacity,
                         cycle_source=lambda: tm.cycle)
    sim.feed.tracer = tracer
    sim.fm.observer = _FunctionalObserver(tracer)
    tm.tracer = tracer
    return tracer
