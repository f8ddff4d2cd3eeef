"""FastWatch: the always-on invariant fabric.

FAST's correctness story rests on structural properties that must hold
on *every* cycle: the ROB never exceeds its entry count, Connectors
never carry more transactions than their credit allows, the trace
buffer never runs ahead of its depth, the checkpoint grid always covers
every uncommitted rollback target, and the TM never acknowledges
commits the FM has not produced.  Today a violated property only
surfaces later, as a stats divergence FastFuzz must shrink after the
fact; FastWatch checks the properties *at the cycle they break*.

Modules declare invariants at construction time with
:meth:`~repro.timing.module.Module.new_invariant`, exactly parallel to
their FastScope stats.  :class:`InvariantMonitor` walks the module
roots and subscribes every registered invariant to the observation
plane (:mod:`repro.observability.plane`) as one fused conjunction,
checked after every executed cycle on both tick engines -- with an idle
hint derived from the invariants' own declarations, so the compiled
engine's idle fast-forward (and with it the <= 1.10x observability
budget) survives arming.

When an invariant fires, the recorded :class:`Violation` carries the
exact target cycle; run determinism then lets the capture layer
(:mod:`repro.functional.replay` + the ``python -m repro debug`` CLI)
re-execute a window around that cycle with maximum-detail capture and
emit a content-addressed debug capsule.

Everything here is observation-only: an armed monitor never changes
``TimingStats``, traces or architectural state (the determinism tests
pin this), and invariant ``check`` closures must be side-effect free
(FastLint rule IV002).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.observability.plane import plane_for, rename
from repro.timing.core import IDLE_HINT_UNBOUNDED
from repro.timing.module import Invariant, Module

# The hint value Module.new_invariant documents for "cannot change
# during a quiescent span" -- the common case for structural bounds,
# since idle cycles advance no pipeline state.
IDLE_STABLE = "idle-stable"


@dataclass(frozen=True)
class Violation:
    """One invariant firing: the edge cycle where ``check`` first
    returned False, plus the observed probe value (if the invariant
    registered one)."""

    invariant: str
    path: str
    cycle: int
    value: Optional[float]
    desc: str

    def message(self) -> str:
        base = "invariant %s/%s violated at cycle %d" % (
            self.path, self.invariant, self.cycle)
        if self.value is not None:
            base += " (observed %g)" % self.value
        return base

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "path": self.path,
            "cycle": self.cycle,
            "value": self.value,
            "desc": self.desc,
        }


class _Watch:
    """One compiled invariant: hot-path state for the monitor loop."""

    __slots__ = ("path", "invariant", "check", "module", "active",
                 "firings")

    def __init__(self, path: str, invariant: Invariant, module: Module):
        self.path = path
        self.invariant = invariant
        self.check = invariant.check
        self.module = module
        self.active = False  # currently in violation (edge detection)
        self.firings = 0


def _resolve_hint(hint) -> Optional[int]:
    """An invariant hint as a static idle-span bound, or None for a
    hintless (single-step-pinning) invariant."""
    if hint is None:
        return None
    if hint == IDLE_STABLE:
        return IDLE_HINT_UNBOUNDED
    if callable(hint):
        return int(hint())
    return int(hint)


def _conjunction(watches: List[_Watch]) -> Tuple[str, dict]:
    """Fuse every watch into one ``(...) and (...) and ...`` source
    chain ("True" for none) plus its namespace, spliced into the
    monitor's plane guard.

    An invariant that declared an ``expr`` is inlined -- its expression
    is re-rooted from the free name ``m`` onto the owning module -- and
    one without falls back to calling its ``check`` closure inside the
    chain.
    """
    namespace: dict = {}
    parts: List[str] = []
    for index, watch in enumerate(watches):
        expr = watch.invariant.expr
        if expr is not None:
            name = "m%d" % index
            namespace[name] = watch.module
            parts.append("(%s)" % rename(expr, {"m": name}))
        else:
            name = "c%d" % index
            namespace[name] = watch.check
            parts.append("%s()" % name)
    return " and ".join(parts) or "True", namespace


class InvariantMonitor:
    """Arm every registered invariant under the given module roots.

    Parallel to :class:`~repro.observability.fabric.StatsFabric`: walk
    ``(tm,) + extra_roots``, collect the typed invariants and subscribe
    them to the observation plane with the combined idle hint.  Checks
    run after every executed target cycle, on both the legacy and
    compiled engines.

    The plane guard is ``_any_active or not (<fused conjunction>)``, so
    a healthy cycle costs the inlined conjunction and nothing else.  In
    *selfcheck* mode the guard is always true: every cycle cross-checks
    the inlined conjunction against the authoritative check closures.

    Firings are edge-triggered -- a persistently-false invariant records
    one :class:`Violation` at the first failing cycle, and re-arms only
    after the check holds again.  ``on_violation``, if given, is called
    with each fresh Violation (the debug-capture hook).
    """

    def __init__(
        self,
        tm,
        extra_roots: Tuple = (),
        max_violations: int = 256,
        max_firings_per_invariant: int = 64,
        on_violation: Optional[Callable[[Violation], None]] = None,
        selfcheck: bool = False,
    ):
        self.tm = tm
        self.max_violations = max_violations
        self.max_firings_per_invariant = max_firings_per_invariant
        self.on_violation = on_violation
        self.selfcheck = selfcheck
        self.violations: List[Violation] = []
        self.firings = 0
        self.hintless: List[str] = []

        watches: List[_Watch] = []
        min_hint: Optional[int] = IDLE_HINT_UNBOUNDED
        roots = (tm,) + tuple(
            root for root in extra_roots if isinstance(root, Module)
        )
        for root in roots:
            for path, module in root.walk_paths():
                for invariant in module._invariants.values():
                    watches.append(_Watch(path, invariant, module))
                    bound = _resolve_hint(invariant.hint)
                    if bound is None:
                        # A hintless invariant (FastLint rule IV003)
                        # pins the engine to single-cycle stepping.
                        min_hint = None
                        self.hintless.append(path + "/" + invariant.name)
                    elif min_hint is not None and bound < min_hint:
                        min_hint = bound
        self._watches = watches
        self._any_active = False
        self._plane = plane_for(tm)
        if watches:
            # The minimum is sound: within a span that short no armed
            # invariant's check can change value.
            self._plane.subscribe(self._guard, self._scan, min_hint)

    # -- the plane seam --------------------------------------------------

    def _guard(self):
        fused, namespace = _conjunction(self._watches)
        namespace["_s"] = self
        if self.selfcheck:
            return "_s._agrees(cycle, %s)" % fused, namespace
        return "_s._any_active or not (%s)" % fused, namespace

    def _agrees(self, cycle: int, fused) -> bool:
        """Selfcheck guard: the fused conjunction must agree with the
        check closures; then scan anyway."""
        if fused != all(w.check() for w in self._watches):
            raise AssertionError(
                "fused invariant probe disagrees with the check closures "
                "at cycle %d: some expr= drifted from its check=" % cycle
            )
        return True

    # -- firing (cold path) ----------------------------------------------

    def _scan(self, cycle: int) -> None:
        """Something failed, or held again after a failure: find which,
        edge-detect, fire."""
        for watch in self._watches:
            if watch.check():
                watch.active = False
            elif not watch.active:
                watch.active = True
                self._fire(watch, cycle)
        # _fire may have rebuilt the list (storm limit); a dropped
        # watch no longer holds the guard open.
        self._any_active = any(w.active for w in self._watches)

    def _fire(self, watch: _Watch, cycle: int) -> None:
        watch.firings += 1
        self.firings += 1
        invariant = watch.invariant
        value: Optional[float] = None
        if invariant.probe is not None:
            value = float(invariant.probe())
        violation = Violation(
            invariant=invariant.name,
            path=watch.path,
            cycle=cycle,
            value=value,
            desc=invariant.desc,
        )
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)
        if watch.firings >= self.max_firings_per_invariant:
            # A storming invariant stops being evaluated; the recorded
            # firing count keeps climbing nowhere.  The plane
            # regenerates its listener without it, swapped in place
            # (same slot, same idle hint) so a run already in flight
            # sees the new set.
            self._watches = [w for w in self._watches if w is not watch]
            self._plane.recompile()
        if self.on_violation is not None:
            self.on_violation(violation)

    # -- reporting -------------------------------------------------------

    @property
    def armed(self) -> int:
        """Invariants still being evaluated."""
        return len(self._watches)

    @property
    def fired(self) -> bool:
        return self.firings > 0

    @property
    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    def report(self) -> dict:
        return {
            "armed": len(self._watches),
            "hintless": list(self.hintless),
            "firings": self.firings,
            "violations": [v.to_dict() for v in self.violations],
        }


# -- violation injection (tests, CI, `repro debug capture --inject`) -----

# Each canonical invariant reads its bound from an observation-only
# attribute initialized to the real configured value.  Injection
# shrinks that *armed copy* -- never the simulation state -- so the run
# itself is bit-identical to an uninjected one and the window replay
# around the (now deterministic) firing cycle stays exact.
INJECTION_KINDS = ("rob", "credit", "ckpt")


def _first_connector(tm):
    from repro.timing.connector import Connector

    for module in tm.walk():
        if isinstance(module, Connector):
            return module
    return None


def inject_violation(sim, kind: str) -> None:
    """Force a deterministic firing of one canonical invariant on
    *sim* without perturbing the simulation itself."""
    if kind == "rob":
        # Forced ROB overflow: any occupied ROB entry now violates.
        sim.tm.backend._rob_limit = 0
    elif kind == "credit":
        # Forced credit leak on the first Connector in the TM tree: the
        # armed transaction bound drops below zero, so even an empty
        # queue reads as over-credit.
        connector = _first_connector(sim.tm)
        if connector is None:
            raise ValueError("no Connector in the timing-model tree")
        connector._transactions_limit = -1
    elif kind == "ckpt":
        # Rollback-past-checkpoint: the coverage window collapses, so
        # the oldest live checkpoint can never cover it.
        sim.feed._ckpt_window = -(1 << 40)
    else:
        raise ValueError(
            "unknown injection %r (expected one of %s)"
            % (kind, ", ".join(INJECTION_KINDS))
        )


def find_first_violation(
    factory: Callable[[], object],
    inject: Optional[str] = None,
    max_cycles: int = 100_000_000,
) -> Tuple[Optional[Violation], object]:
    """Probe run: build a simulator from the zero-argument *factory*,
    arm the invariant fabric (optionally with an injected violation)
    and run to completion.  Returns ``(first_violation, monitor)``;
    the violation is None if nothing fired.

    Because runs are deterministic and the monitor evaluates on every
    executed cycle of either engine, the returned cycle is stable
    across repeated runs and across ``{legacy, compiled}``.
    """
    sim = factory()
    if inject is not None:
        inject_violation(sim, inject)
    monitor = InvariantMonitor(sim.tm, extra_roots=(sim.feed,))
    sim.run(max_cycles=max_cycles)
    return monitor.first_violation, monitor


def capture_debug_capsule(
    factory: Callable[[], object],
    workload: str,
    label: Optional[str] = None,
    inject: Optional[str] = None,
    center: Optional[int] = None,
    delta: int = 64,
    profile: bool = True,
    max_cycles: int = 100_000_000,
    source_run: Optional[str] = None,
    host: Optional[dict] = None,
    root: Optional[str] = None,
):
    """End-to-end triggered time travel: probe for the first invariant
    violation (optionally injected), re-execute the window around it,
    and emit a content-addressed debug capsule.

    With an explicit *center* the probe run is skipped entirely and the
    window is captured around that cycle (the watchpoint form: the
    caller got the cycle from a CompiledTriggerQuery firing, a
    regression divergence, or a hunch).  Returns the loaded
    :class:`~repro.observability.flight.capsule.Capsule`, or
    None when no violation fired and no center was given.
    """
    from repro.functional.replay import replay_window
    from repro.observability.flight.capsule import DEFAULT_ROOT, emit_capsule

    violation = None
    if center is None:
        violation, _monitor = find_first_violation(
            factory, inject=inject, max_cycles=max_cycles
        )
        if violation is None:
            return None
        center = violation.cycle
    capture = replay_window(factory, center, delta=delta, profile=profile)
    if violation is not None:
        reason = violation.message()
        if inject:
            reason += " [injected: %s]" % inject
    else:
        reason = "watchpoint capture at cycle %d" % center
    return emit_capsule(
        capture,
        label=label or (violation.invariant if violation else "watchpoint"),
        workload=workload,
        reason=reason,
        violation=violation.to_dict() if violation else None,
        source_run=source_run,
        host=host,
        root=root if root is not None else DEFAULT_ROOT,
    )
