"""The observation plane: every observer behind one cycle listener,
subscription order, hint folding and in-place regeneration."""

import os

from repro.experiments.bench import _linux_boot
from repro.experiments.harness import build_fast_simulator
from repro.fuzz.cli import SMOKE_GENERATOR
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import OracleCell, OracleConfig, run_cell
from repro.observability import (
    FastScope,
    rob_occupancy,
    trace_buffer_occupancy,
)
from repro.observability.plane import plane_for
from repro.timing.core import IDLE_HINT_UNBOUNDED, TimingConfig


def boot_sim(engine="compiled"):
    return build_fast_simulator(
        _linux_boot(sleep_ticks=10),
        timing_config=TimingConfig(engine=engine),
    )


def test_fully_armed_scope_adds_one_listener(tmp_path):
    sim = boot_sim()
    before = len(sim.tm.cycle_listeners)
    scope = FastScope(sim, pulse_path=os.path.join(tmp_path, "p.jsonl"))
    scope.watch_below("tb_low", trace_buffer_occupancy(sim.feed), 4)
    scope.watch_below("rob_empty", rob_occupancy(sim.tm), 1)
    assert len(sim.tm.cycle_listeners) == before + 1
    result = sim.run(2_000_000)
    scope.finalize()
    assert result.timing == boot_sim().run(2_000_000).timing
    assert all(query.fire_count > 0 for query in scope.triggers)


def test_oracle_invariants_and_pulse_add_one_listener():
    counts = {}

    def mutator(fm, tm, cell):
        # Runs after the cell is wired, before the observers are armed;
        # the wrapped run() sees the armed listener list.
        counts["before"] = len(tm.cycle_listeners)
        run = tm.run

        def counted_run(*args, **kwargs):
            counts["after"] = len(tm.cycle_listeners)
            return run(*args, **kwargs)

        tm.run = counted_run

    program = generate_program(3, SMOKE_GENERATOR)
    config = OracleConfig(invariants=True, pulse=True, mutator=mutator)
    for irq in ("instr", "cycle"):
        cell = OracleCell("compiled", "tb", irq)
        result = run_cell(program.source(), program.base, cell, config)
        assert result.status == "ok"
        assert counts["after"] == counts["before"] + 1, irq


class _FakeTM:
    def __init__(self):
        self.cycle_listeners = []
        self.hints = {}

    def add_cycle_listener(self, listener, idle_hint=None):
        self.cycle_listeners.append(listener)  # fastlint: ignore[ST003]
        self.hints[id(listener)] = idle_hint

    def replace_cycle_listener(self, old, new):
        index = self.cycle_listeners.index(old)
        self.cycle_listeners[index] = new
        self.hints[id(new)] = self.hints.pop(id(old))


def test_subscribers_run_in_order_with_private_namespaces():
    tm = _FakeTM()
    plane = plane_for(tm)
    seen = []
    # Both guards bind "_x": the plane must keep them apart.
    plane.subscribe(lambda: ("cycle % _x == 0", {"_x": 2}),
                    lambda cycle: seen.append(("even", cycle)), 5)
    plane.subscribe(lambda: ("cycle % _x == 0", {"_x": 3}),
                    lambda cycle: seen.append(("three", cycle)), 9)
    (listener,) = tm.cycle_listeners
    for cycle in range(1, 7):
        listener(cycle)
    assert seen == [("even", 2), ("three", 3), ("even", 4),
                    ("even", 6), ("three", 6)]
    assert plane_for(tm) is plane


def test_idle_hint_folds_static_dynamic_and_hintless():
    tm = _FakeTM()
    plane = plane_for(tm)
    plane.subscribe(lambda: ("False", {}), print, IDLE_HINT_UNBOUNDED)
    (first,) = tm.cycle_listeners
    hint = tm.hints[id(first)]
    assert hint(0) == IDLE_HINT_UNBOUNDED
    plane.subscribe(lambda: ("False", {}), print, 40)
    plane.subscribe(lambda: ("False", {}), print, lambda cycle: 100 - cycle)
    # A late subscriber swaps a regenerated listener into the same slot
    # and keeps the one registered hint.
    (listener,) = tm.cycle_listeners
    assert listener is not first
    assert tm.hints[id(listener)] is hint
    assert hint(0) == 40
    assert hint(70) == 30
    plane.subscribe(lambda: ("False", {}), print, None)
    assert hint(0) == 0
