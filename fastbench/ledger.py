"""Host-time ledger: per-layer self seconds for one traced simulation.

The ledger wraps the public entry points of each simulator layer from
outside ``src/``: nothing in the simulator knows it is being traced.
Every wrapper opens a span on one shared stack; a layer's *self* time is
its spans' duration minus the time their child spans cover, so the self
times of all layers add up to the traced wall time.

Class-level wrapping is load-bearing.  The compiled engine binds
``feed.peek``, ``feed.commit``, ``hierarchy.access_instr`` /
``access_data`` and the crack path into closures when the timing model
is built, so the ledger must be installed on the *classes* before the
simulator is constructed; a wrapper installed afterwards is never
called.  The two fused tick steps are wrapped through the public
``CompiledSchedule.instrument_steps`` and each per-cycle listener
through ``TimingModel.replace_cycle_listener``, both before ``run()``.

Spans on ``FunctionalModel.set_pc`` are opaque: everything a rollback
does (replay, device ticks) is charged to ``functional.rollback``, so
that layer reads inclusive while the sum stays exact.

This file reads the host clock on purpose: it measures the simulator.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.fast.trace_buffer import TraceBufferFeed
from repro.functional.blocks import SuperblockCache
from repro.functional.model import FunctionalModel
from repro.microcode.table import MicrocodeTable
from repro.system.bus import IOBus
from repro.timing.cache.hierarchy import CacheHierarchy
from repro.timing.schedule import CompiledSchedule

# (class, method, layer): plain spans.  FunctionalModel.execute_next and
# set_pc, and TraceBufferFeed.idle_ticks, get special wrappers below.
SPANS: Tuple[Tuple[type, str, str], ...] = (
    (CompiledSchedule, "run", "timing.loop"),
    (CacheHierarchy, "access_instr", "timing.memhier"),
    (CacheHierarchy, "access_data", "timing.memhier"),
    (MicrocodeTable, "crack", "microcode.crack"),
    (TraceBufferFeed, "peek", "trace_buffer.fill"),
    (TraceBufferFeed, "commit", "trace_buffer.commit"),
    (FunctionalModel, "execute_into", "functional.interp"),
    (FunctionalModel, "commit", "functional.commit"),
    (SuperblockCache, "step", "functional.superblock"),
    (IOBus, "tick", "system.bus"),
)

# Schedule path tail -> layer for the fused tick steps.  Connector
# budget resets are left unwrapped and count as engine loop time.
STEP_LAYERS = {"frontend": "timing.frontend", "backend": "timing.backend"}

# Self-time layers, in report order.  Their sum is the traced total.
LAYERS: Tuple[str, ...] = (
    "setup.image",
    "setup.fm",
    "setup.timing",
    "timing.loop",
    "timing.frontend",
    "timing.backend",
    "timing.memhier",
    "microcode.crack",
    "trace_buffer.fill",
    "trace_buffer.commit",
    "functional.interp",
    "functional.superblock",
    "functional.rollback",
    "functional.wrong_path",
    "functional.commit",
    "system.bus",
    "observability.listener",
)


class Ledger:
    """Span stack plus per-layer self time, inclusive time and calls."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.idle_spans = 0
        self.idle_span_cycles = 0
        # _stack[-1] accumulates the inclusive time of the open span's
        # children, so closing a span leaves its self time.
        self._stack: List[float] = [0.0]
        self._opaque = [0]
        self._installed: List[Tuple[type, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _span(self, layer: str, fn: Callable, opaque: bool = False) -> Callable:
        stack = self._stack
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        calls = self.calls
        depth = self._opaque
        clock = time.perf_counter

        def span(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            if opaque:
                depth[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if opaque:
                    depth[0] -= 1
                self_s[layer] += dt - stack.pop()
                inclusive_s[layer] += dt
                calls[layer] += 1
                stack[-1] += dt

        return span

    def timed(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` as one top-level span."""
        return self._span(layer, fn)(*args, **kwargs)

    # -- installation --------------------------------------------------

    def _patch(self, cls: type, name: str, wrapper: Callable) -> None:
        self._installed.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def install(self) -> "Ledger":
        """Wrap every layer's class methods.  Call before building the
        simulator; undo with :meth:`uninstall`."""
        if self._installed:
            raise RuntimeError("ledger already installed")
        for cls, name, layer in SPANS:
            self._patch(cls, name, self._span(layer, cls.__dict__[name]))

        execute_next = FunctionalModel.__dict__["execute_next"]
        on_wrong = self._span("functional.wrong_path", execute_next)
        off_wrong = self._span("functional.interp", execute_next)

        def execute_next_span(fm):
            return (on_wrong if fm.on_wrong_path else off_wrong)(fm)

        self._patch(FunctionalModel, "execute_next", execute_next_span)
        self._patch(
            FunctionalModel,
            "set_pc",
            self._span("functional.rollback",
                       FunctionalModel.__dict__["set_pc"], opaque=True),
        )

        idle_ticks = TraceBufferFeed.__dict__["idle_ticks"]

        def count_idle_span(feed, count):
            self.idle_spans += 1
            self.idle_span_cycles += count
            return idle_ticks(feed, count)

        self._patch(TraceBufferFeed, "idle_ticks", count_idle_span)
        return self

    def uninstall(self) -> None:
        while self._installed:
            cls, name, original = self._installed.pop()
            setattr(cls, name, original)

    def attach(self, sim) -> None:
        """Wrap *sim*'s tick steps and cycle listeners.  Call after
        arming any observers and before ``sim.run()``."""
        tm = sim.tm

        def wrap_step(path: str, step: Callable) -> Callable:
            layer = STEP_LAYERS.get(path.rsplit("/", 1)[-1])
            return step if layer is None else self._span(layer, step)

        tm._schedule.instrument_steps(wrap_step)
        for listener in list(tm.cycle_listeners):
            tm.replace_cycle_listener(
                listener, self._span("observability.listener", listener)
            )

    # -- results -------------------------------------------------------

    @property
    def total_self_s(self) -> float:
        return sum(self.self_s.values())
