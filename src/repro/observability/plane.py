"""The observation plane: every observer behind one cycle listener.

The paper (§3) runs statistics and run-time queries on dedicated
hardware "at full speed" off one statistics network.  On this Python
host the cost of an observer is the per-cycle call, so FastScope's
observers -- the stats fabric, the invariant monitor, the pulse emitter
and any number of trigger queries -- share one.

Each subscriber hands the plane three things:

* a *guard*: a zero-argument callable returning a Python expression
  (source text) and the namespace its free names resolve in.  The
  expression must be true exactly on the cycles where the subscriber
  has work; ``cycle`` is bound to the current target cycle;
* a *cold-path action* ``action(cycle)``, called only when the guard
  holds;
* an *idle hint*: a static int, a ``cycle -> int`` callable, or
  ``None`` for a hintless subscriber that must see every cycle.

The plane generates one function, in subscription order::

    def _plane(cycle):
        if <guard 0>:
            _a0(cycle)
        if <guard 1>:
            _a1(cycle)
        ...

and registers it once through ``tm.add_cycle_listener`` with one idle
hint: the static hints folded into one constant, then the minimum with
the dynamic ones (0 if any subscriber is hintless).  A subscriber set
that changes -- a late subscription, or the invariant monitor dropping
a storming invariant -- regenerates the function and swaps it into the
same slot through ``tm.replace_cycle_listener``, so a run already in
flight sees the new set on its next cycle.

Within a cycle subscribers run in the order they subscribed; the pulse
emitter reads ``monitor.firings`` from the same cycle, so that order is
part of the contract.
"""

from __future__ import annotations

import ast
import weakref
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.timing.core import IDLE_HINT_UNBOUNDED

Guard = Callable[[], Tuple[str, Dict[str, object]]]
Hint = Union[int, Callable[[int], int], None]

# tm -> weakref to its plane.  The value is a weak reference because
# the plane's subscribers hold the timing model; the model keeps its
# plane alive through the registered idle hint (a bound method).
_PLANES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def plane_for(tm) -> "ObservationPlane":
    """The one observation plane of *tm* (created on first use)."""
    ref = _PLANES.get(tm)
    plane = ref() if ref is not None else None
    if plane is None:
        plane = ObservationPlane(tm)
        _PLANES[tm] = weakref.ref(plane)
    return plane


def rename(source: str, names: Dict[str, str]) -> str:
    """*source* with every free name in *names* replaced."""

    class _Rename(ast.NodeTransformer):
        def visit_Name(self, node: ast.Name) -> ast.Name:
            new = names.get(node.id)
            if new is None:
                return node
            return ast.copy_location(ast.Name(id=new, ctx=node.ctx), node)

    return ast.unparse(_Rename().visit(ast.parse(source, mode="eval")))


class ObservationPlane:
    """The compiled subscriber registry of one timing model."""

    def __init__(self, tm):
        self.tm = tm
        self._subscribers: List[Tuple[Guard, Callable[[int], None], Hint]] = []
        self._listener: Optional[Callable[[int], None]] = None
        self._static_hint = IDLE_HINT_UNBOUNDED
        self._dynamic_hints: Tuple[Callable[[int], int], ...] = ()

    def subscribe(self, guard: Guard, action: Callable[[int], None],
                  hint: Hint) -> None:
        """Add a subscriber after every existing one."""
        self._subscribers.append((guard, action, hint))
        static = IDLE_HINT_UNBOUNDED
        dynamic: List[Callable[[int], int]] = []
        for _guard, _action, each in self._subscribers:
            if each is None:
                static = 0
            elif callable(each):
                dynamic.append(each)
            elif each < static:
                static = each
        self._static_hint = static
        self._dynamic_hints = tuple(dynamic)
        self.recompile()

    def recompile(self) -> None:
        """Regenerate the listener from the current guards and swap it
        into the timing model."""
        namespace: dict = {}
        lines = ["def _plane(cycle):"]
        for index, (guard, action, _hint) in enumerate(self._subscribers):
            source, names = guard()
            # Suffix every subscriber's names with its index, so two
            # subscribers binding the same name cannot collide.
            renamed = {name: "%s_%d" % (name, index) for name in names}
            for name, value in names.items():
                namespace[renamed[name]] = value
            namespace["_a%d" % index] = action
            lines.append("    if %s:" % rename(source, renamed))
            lines.append("        _a%d(cycle)" % index)
        exec("\n".join(lines) + "\n", namespace)
        listener = namespace["_plane"]
        if self._listener is None:
            self.tm.add_cycle_listener(listener, idle_hint=self._idle_hint)
        else:
            self.tm.replace_cycle_listener(self._listener, listener)
        self._listener = listener

    def _idle_hint(self, cycle: int) -> int:
        bound = self._static_hint
        for hint in self._dynamic_hints:
            value = hint(cycle)
            if value < bound:
                bound = value
        return bound
