"""Run-time trigger queries on the observation plane.

"Run-time queries, such as 'when does the number of active functional
units drop below 1?', can continuously run in hardware at full speed."
(paper section 3)

:class:`CompiledTriggerQuery` subscribes to the observation plane
(:mod:`repro.observability.plane`) with an idle hint, so a standing
query does not pin the compiled engine to single-stepping.

The default hint is unbounded, and that is sound for the common case:
a probe that reads only module state (queue occupancy, ROB depth,
busy-unit counts) cannot change value across a quiescent span, because
no module executes a step inside one.  The condition is evaluated on
the cycle the span starts from and again on the waking cycle, which is
exactly the set of cycles on which its value can differ.  A probe that
depends on the cycle number itself must pass an explicit *idle_hint*;
``idle_hint=lambda cycle: 0`` evaluates it on every cycle.

The query's guard is the edge test itself: a canonical probe carries an
``inline_expr`` that is spliced into the plane's generated function,
and the ``below``/``at_least`` comparisons become literal operators, so
the guard ``(<value> <op> threshold) == armed`` is true only on a
rising edge or a re-arm and the steady state costs no call at all.
Arbitrary probe and condition callables still work -- they are called
from the guard instead of being inlined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.observability.plane import plane_for
from repro.timing.core import IDLE_HINT_UNBOUNDED

DEFAULT_MAX_FIRINGS = 10_000


@dataclass(frozen=True)
class TriggerFiring:
    """One edge-triggered match of a trigger query."""

    cycle: int
    value: float


class CompiledTriggerQuery:
    """An edge-triggered predicate over simulator state, evaluated on
    the observation plane with an idle hint.

    *probe* is a zero-argument callable returning the watched value;
    *condition* maps that value to a bool.  The query records the cycle
    at which the condition first becomes true (edge-triggered: it
    re-arms only after the condition goes false again).
    """

    def __init__(
        self,
        tm,
        name: str,
        probe: Callable[[], float],
        condition: Callable[[float], bool],
        idle_hint: Optional[Callable[[int], int]] = None,
        max_firings: int = DEFAULT_MAX_FIRINGS,
        _compare: Optional[Tuple[str, float]] = None,
    ):
        self.tm = tm
        self.name = name
        self.probe = probe
        self.condition = condition
        self.max_firings = max_firings
        self.firings: List[TriggerFiring] = []
        self.fire_count = 0
        self._armed = True
        self._compare = _compare
        plane_for(tm).subscribe(
            self._guard,
            self._edge,
            IDLE_HINT_UNBOUNDED if idle_hint is None else idle_hint,
        )

    def _guard(self):
        """The plane guard: the condition differs from ``_armed`` only
        on a rising edge (true while armed) or on the first false cycle
        after one (false while disarmed).

        Equivalence with the reference semantics -- evaluate the
        condition every executed cycle, fire on the rising edge, re-arm
        on the first false cycle after -- is pinned by the
        generic-vs-inlined test in tests/test_observability.py.
        """
        namespace: dict = {"_s": self}
        expr = getattr(self.probe, "inline_expr", None)
        if expr is not None:
            namespace.update(self.probe.inline_ns)
            value_src = expr
        else:
            namespace["_probe"] = self.probe
            value_src = "_probe()"
        if self._compare is not None:
            op, threshold = self._compare
            namespace["_t"] = threshold
            test_src = "((%s) %s _t)" % (value_src, op)
        else:
            # An arbitrary condition keeps the float contract canonical
            # probes would otherwise guarantee through their lambda.
            namespace["_cond"] = self.condition
            if expr is not None:
                value_src = "float(%s)" % value_src
            test_src = "bool(_cond(%s))" % value_src
        return "%s == _s._armed" % test_src, namespace

    def _edge(self, cycle: int) -> None:
        """Cold path: record a rising edge and disarm, or re-arm."""
        if not self._armed:
            self._armed = True
            return
        self._armed = False
        self.fire_count += 1
        if len(self.firings) < self.max_firings:
            self.firings.append(TriggerFiring(cycle, float(self.probe())))

    @property
    def first_fired(self) -> Optional[int]:
        return self.firings[0].cycle if self.firings else None

    def report(self) -> dict:
        return {
            "name": self.name,
            "fire_count": self.fire_count,
            "first_fired": self.first_fired,
            "firings": [
                {"cycle": f.cycle, "value": f.value}
                for f in self.firings[:64]
            ],
        }

    @classmethod
    def below(cls, tm, name: str, probe: Callable[[], float],
              threshold: float, **kwargs) -> "CompiledTriggerQuery":
        """The paper's canonical shape: "when does <probe> drop below
        <threshold>?"."""
        return cls(tm, name, probe,
                   lambda value: value < threshold,
                   _compare=("<", threshold), **kwargs)

    @classmethod
    def at_least(cls, tm, name: str, probe: Callable[[], float],
                 threshold: float, **kwargs) -> "CompiledTriggerQuery":
        return cls(tm, name, probe,
                   lambda value: value >= threshold,
                   _compare=(">=", threshold), **kwargs)


# -- canonical probes -------------------------------------------------------
#
# Each probe is a plain zero-argument callable, plus an ``inline_expr``
# / ``inline_ns`` pair the trigger query splices into its plane guard.
# The expression must compute the same value as the lambda; where it
# inlines another module's accessor body, a lockstep note at
# the definition site records the pairing.


def trace_buffer_occupancy(feed) -> Callable[[], float]:
    """Probe: uncommitted entries held by the trace buffer ("when does
    trace-buffer occupancy drop below N?")."""
    probe = lambda: float(feed.occupancy)  # noqa: E731
    # Inlined body of TraceBufferFeed.occupancy (see the lockstep note
    # on the property in repro/fast/trace_buffer.py).
    probe.inline_expr = "(_feed.fm.in_count - _feed._last_committed)"
    probe.inline_ns = {"_feed": feed}
    return probe


def rob_occupancy(tm) -> Callable[[], float]:
    """Probe: instructions resident in the reorder buffer."""
    rob = tm.backend.rob
    probe = lambda: float(len(rob))  # noqa: E731
    probe.inline_expr = "len(_rob)"
    probe.inline_ns = {"_rob": rob}
    return probe
