"""The one record format, and cycle-stamped event tracing of the FM/TM seam.

Every deterministic JSONL stream the observability layer writes -- the
seam trace, the FastPulse sidecar, a debug capsule's window rows and
events -- uses the layout this module owns:

* **Records.**  One line per record: ``{"kind", "seq", ...fields}``,
  plus at most one ``host`` object for volatile host-side fields
  (timestamps, wall seconds, rates).
* **Encoding.**  :func:`canonical_line`: sorted keys, compact
  separators, so same-seed streams are byte-identical.
* **Hash rule.**  A stream's hash is a rolling SHA-256 over the
  canonical lines of its hashed records with ``seq`` and ``host``
  removed (:class:`RollingHash`); :func:`rolling_digests` exposes the
  prefix digests for first-divergence bisection.
* **Footer.**  Every stream ends with one ``kind: "footer"`` record
  (:func:`footer`): the ``stream`` name, recorded/retained/dropped
  counts, exact per-kind totals, the ``hash`` over the retained hashed
  records, and any fields one stream adds.
* **Reader.**  :func:`read_stream` returns the records and the footer
  and stops quietly at a torn last line (live tails end mid-record).

The interesting behaviour of a FAST simulator is concentrated at the
functional/timing boundary: mispredict ``set_pc`` round trips, wrong-
path resolution, rollback replays, interrupt deliveries, checkpoint
creation, trace-buffer high-water marks.  :class:`EventTracer` records
those in a bounded ring buffer.  Records carry only target-deterministic
fields -- the timing model's cycle at emit time, a monotonic sequence
number, the event kind and its payload.  No wall-clock, no ids, no
addresses of host objects.  ``emit()`` does no serialisation or
hashing; the footer hash is computed once, when the footer is written.

Tracing is read-only with respect to the simulation: emitting an event
never touches FM or TM state, so ``TimingStats`` are bit-identical with
tracing enabled or disabled.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

DEFAULT_CAPACITY = 65536

FOOTER_KIND = "footer"


def canonical_line(obj) -> str:
    """Sorted-key, compact JSON on one line: the byte-stable encoding
    every deterministic record uses (streams and run artifacts)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def jsonl(records) -> str:
    """Canonical lines, each newline-terminated ("" for no records)."""
    return "".join(canonical_line(record) + "\n" for record in records)


def hashed_view(record: dict) -> dict:
    """What the hash rule sees of *record*: everything but ``seq`` and
    ``host``."""
    return {k: v for k, v in record.items() if k not in ("seq", "host")}


class RollingHash:
    """The one stream hash: SHA-256 over the newline-terminated
    canonical lines of :func:`hashed_view` of each hashed record."""

    def __init__(self):
        self._sha = hashlib.sha256()

    def update(self, record: dict) -> None:
        self._sha.update(canonical_line(hashed_view(record)).encode("utf-8"))
        self._sha.update(b"\n")

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def stream_hash(records: Iterable[dict]) -> str:
    rolling = RollingHash()
    for record in records:
        rolling.update(record)
    return rolling.hexdigest()


def rolling_digests(records: Iterable[dict]) -> List[str]:
    """``digests[i]`` is the stream hash of the first *i* records."""
    rolling = RollingHash()
    digests = [rolling.hexdigest()]
    for record in records:
        rolling.update(record)
        digests.append(rolling.hexdigest())
    return digests


def footer(stream: str, recorded: int, kinds: Dict[str, int], digest: str,
           dropped: int = 0, **fields) -> dict:
    """The footer record every stream ends with.  *recorded* counts the
    hashed records the stream produced, *dropped* those no longer
    covered by *digest* (ring overflow); *kinds* are exact per-kind
    totals of the recorded records; *fields* are stream-specific."""
    record = dict(fields)
    record.update({
        "kind": FOOTER_KIND,
        "stream": stream,
        "recorded": recorded,
        "retained": recorded - dropped,
        "dropped": dropped,
        "kinds": dict(sorted(kinds.items())),
        "hash": digest,
    })
    return record


def stream_jsonl(stream: str, records: List[dict]) -> str:
    """A complete stream (every record hashed, none dropped) with its
    footer, as JSONL text."""
    kinds = Counter(record["kind"] for record in records)
    return jsonl(records + [footer(stream, len(records), kinds,
                                   stream_hash(records))])


def read_stream(path: str) -> Tuple[List[dict], Optional[dict]]:
    """``(records, footer)`` of one JSONL stream; the footer is None when
    the stream never finished.  A torn (mid-write) last line ends the
    read quietly."""
    records: List[dict] = []
    last_footer = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                break
            if record.get("kind") == FOOTER_KIND:
                last_footer = record
            else:
                records.append(record)
    return records, last_footer


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
        """The footer of the trace stream: whole-run recorded/dropped
        counts and exact per-kind totals (which survive ring overflow
        even when the events themselves were dropped), and the hash of
        the retained ring."""
        records = (event.to_dict() for event in self._ring)
        return footer("trace", self.seq, self.kind_counts,
                      stream_hash(records), dropped=self.dropped)

    def to_jsonl(self) -> str:
        """Byte-reproducible JSONL: the retained ring, one canonical
        record per line, then the footer."""
        records = [event.to_dict() for event in self._ring]
        return jsonl(records + [self.footer()])

    def write_jsonl(self, path: str) -> int:
        """Write the stream to *path*; returns the number of events."""
        text = self.to_jsonl()
        with open(path, "w") as fh:
            fh.write(text)
        return len(self._ring)


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
