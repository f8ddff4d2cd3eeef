"""Statistics gathering (Figure 6 machinery, queries, power) and the
experiment harness modules."""

import hashlib

import pytest

from repro.experiments import harness
from repro.experiments.fig6 import measure as fig6_measure, phases
from repro.experiments.table1 import PAPER_TABLE1
from repro.experiments.table2 import ISSUE_WIDTHS, compute as table2_compute
from repro.experiments.bottleneck import (
    PAPER_LADDER,
    compute as ladder_compute,
    drc_latency_table,
    live_fm_measurement,
)
from repro.fast import FastSimulator
from repro.kernel import UserProgram
from repro.observability import CompiledTriggerQuery
from repro.timing.stats import (
    StatisticTraceSampler,
    active_functional_units,
    estimate_power,
)
from repro.workloads import build as build_workload

PROGRAM = UserProgram("p", """
main:
    MOVI R5, 12
loop:
    MOVI R6, 120
spin:
    DEC R6
    JNZ spin
    DEC R5
    JNZ loop
    MOVI R0, 0
    SYSCALL
""", entry="main")


@pytest.fixture(scope="module")
def sampled_sim():
    sim = FastSimulator.from_programs([PROGRAM])
    tm = sim.tm
    sampler = StatisticTraceSampler(tm, interval=200)
    # The probe reads tm.cycle, so the query is evaluated every cycle.
    query = CompiledTriggerQuery.below(
        tm, "idle-fus", lambda: active_functional_units(tm), 1,
        idle_hint=lambda cycle: 0,
    )
    sim.run()
    power = estimate_power(sim.tm)
    return sim, sampler, query, power


class TestSampler:
    def test_samples_produced(self, sampled_sim):
        _, sampler, _, _ = sampled_sim
        assert len(sampler.samples) > 5

    def test_sample_fields_in_range(self, sampled_sim):
        _, sampler, _, _ = sampled_sim
        for s in sampler.samples:
            assert 0.0 <= s.bp_accuracy <= 1.0
            assert 0.0 <= s.icache_hit_rate <= 1.0
            assert 0.0 <= s.pipe_drain_fraction <= 1.0
            assert s.ipc >= 0.0

    def test_samples_monotone_in_blocks_and_cycles(self, sampled_sim):
        _, sampler, _, _ = sampled_sim
        blocks = [s.basic_blocks for s in sampler.samples]
        cycles = [s.cycle for s in sampler.samples]
        assert blocks == sorted(blocks)
        assert cycles == sorted(cycles)

    def test_interval_validation(self, sampled_sim):
        sim, *_ = sampled_sim
        with pytest.raises(ValueError):
            StatisticTraceSampler(sim.tm, interval=0)


class TestTriggerQuery:
    def test_query_fires_edge_triggered(self, sampled_sim):
        _, _, query, _ = sampled_sim
        assert len(query.firings) > 0
        # Edge triggering: consecutive events are not on adjacent cycles
        # unless re-armed in between (no duplicate spam).
        cycles = [f.cycle for f in query.firings]
        assert len(cycles) == len(set(cycles))

    def test_query_firing_cycles_pinned(self, sampled_sim):
        # The exact firing history of the paper's example query on this
        # program, as the original hintless per-cycle query recorded it.
        _, _, query, _ = sampled_sim
        cycles = [f.cycle for f in query.firings]
        assert len(cycles) == 308
        assert cycles[:12] == [1, 39, 86, 3686, 3693, 3705, 3739, 3747,
                               3755, 3763, 3771, 3781]
        assert cycles[-3:] == [22459, 22471, 22492]
        assert hashlib.sha256(repr(cycles).encode()).hexdigest() == (
            "be839db6db167617254728767f558b56"
            "43c39b5c1dd111ab2476450a48fbcf90"
        )
        assert {f.value for f in query.firings} == {0.0}


class TestPower:
    def test_power_positive_and_decomposed(self, sampled_sim):
        *_, power = sampled_sim
        assert power.dynamic > 0
        assert power.leakage > 0
        assert power.total == power.dynamic + power.leakage
        assert power.per_instruction > 0
        assert power.breakdown["issue"] > 0

    def test_relative_power_comparison(self):
        """The intended use: comparing architectures (future work §6)."""
        from repro.timing.core import TimingConfig

        small = FastSimulator.from_programs(
            [PROGRAM], timing_config=TimingConfig.with_issue_width(1)
        )
        small.run()
        big = FastSimulator.from_programs(
            [PROGRAM], timing_config=TimingConfig.with_issue_width(4)
        )
        big.run()
        p_small = estimate_power(small.tm)
        p_big = estimate_power(big.tm)
        # The wide machine finishes in fewer cycles: less leakage.
        assert p_big.leakage < p_small.leakage


class TestHarness:
    def test_user_phase_tracker_splits(self):
        sim = FastSimulator.from_programs([PROGRAM])
        tracker = harness.UserPhaseTracker(sim)
        sim.run()
        user = tracker.user_phase()
        boot = tracker.boot_phase()
        assert boot is not None
        assert user.instructions > 0
        assert boot.instructions > 0
        total = sim.tm.backend.committed_instructions
        assert boot.instructions + user.instructions == total

    def test_run_fast_workload_record(self):
        run = harness.run_fast_workload("164.gzip", scale=1)
        assert run.workload == "164.gzip"
        assert set(run.host_mips) == {"prototype", "mispredict-only",
                                      "coherent"}
        assert run.result.timing.instructions > 0

    def test_format_table(self):
        text = harness.format_table(["a", "bb"], [(1, 2.5), ("x", "y")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")


class TestExperimentModules:
    def test_table1_paper_reference_complete(self):
        assert len(PAPER_TABLE1) == 16

    def test_table2_rows(self):
        rows = table2_compute()
        assert [r.issue_width for r in rows] == list(ISSUE_WIDTHS)
        for row in rows:
            assert abs(row.user_logic_pct - row.paper_logic_pct) < 3.0
            assert abs(row.bram_pct - row.paper_bram_pct) < 4.0

    def test_bottleneck_ladder_matches_paper(self):
        rows = ladder_compute()
        by_name = {r.configuration: r for r in rows}
        for name, paper_mips in PAPER_LADDER.items():
            modeled = by_name[name].modeled_mips
            assert abs(modeled - paper_mips) / paper_mips < 0.20, name

    def test_drc_latency_rows(self):
        rows = drc_latency_table()
        assert any(r.ns == 469.0 for r in rows)

    def test_live_fm_measurement(self):
        result = live_fm_measurement(max_instructions=60_000)
        assert 3.0 < result["mean_basic_block"] < 8.0
        assert 3.0 < result["trace_words_per_instr"] < 6.0
        assert 2.0 < result["modeled_mips"] < 8.0

    def test_fig6_phase_structure(self):
        result = fig6_measure(interval=400)
        samples = result.samples
        assert len(samples) >= 10
        bios, decompress, kernel = phases(samples)
        assert len(decompress) >= 3
        # The decompress phase is flatter and better predicted than the
        # worst BIOS window (the paper's Figure 6 narrative).
        worst_bios = min(s.bp_accuracy for s in samples[:len(bios) or 5])
        flat_mean = sum(s.bp_accuracy for s in decompress) / len(decompress)
        assert flat_mean > worst_bios
