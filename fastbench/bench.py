"""FastBench: host speed of the FAST simulator, per workload and per layer.

One process runs one workload, one simulation at a time: a closed loop
with a single client.  Each iteration builds a fresh simulator (timed
as set-up), runs it to completion (timed as the run) and checks its
outputs against a reference run of the same program on the legacy
engine with superblocks off.  See ``fastbench/README.md``.

This file reads the host clock on purpose: it measures the simulator.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ledger import LAYERS, Ledger
from programs import WORKLOADS, Workload

from repro.fast.parallel import PROTOCOL_MODES
from repro.fast.simulator import FastSimulator
from repro.functional.model import FunctionalConfig, FunctionalModel
from repro.kernel.image import build_os_image
from repro.system.bus import build_standard_system
from repro.timing.core import TimingConfig

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_CYCLES = 20_000_000
# Fewest measured simulations per run, whatever --seconds says.
MIN_SAMPLES = 3
MIN_TRACED = 2
SETUP_REPEATS = 5
# The layer self times must add up to the traced wall time within this.
SUM_TOLERANCE = 0.02

END_TO_END_UNITS = {"kips": "kinstr/s", "kcps": "kcycles/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _untimed(_layer: str, fn: Callable, *args):
    return fn(*args)


def _image(workload: Workload, seed: int, scale: float):
    program, expected = workload.build(seed, scale)
    image, _config = build_os_image([program])
    return image, expected


def _functional(image, superblocks: bool):
    memory, bus, _intctrl, _timer, console, _disk = build_standard_system()
    fm = FunctionalModel(
        memory=memory, bus=bus,
        config=FunctionalConfig(superblocks=superblocks),
    )
    fm.load(image)
    return fm, console


def _timing(fm: FunctionalModel, engine: str) -> FastSimulator:
    return FastSimulator(fm, timing_config=TimingConfig(engine=engine))


def _arm_scope(sim, pulse_path: str):
    """The full observation plane: fabric, invariants, pulse and the two
    canonical trigger queries -- five per-cycle listeners."""
    from repro.observability import FastScope
    from repro.observability.triggers import (
        rob_occupancy,
        trace_buffer_occupancy,
    )

    scope = FastScope(sim, pulse_path=pulse_path)
    scope.watch_below("tb_low", trace_buffer_occupancy(sim.feed), 4)
    scope.watch_below("rob_empty", rob_occupancy(sim.tm), 1)
    return scope


@dataclass
class Sample:
    """One simulation: host seconds, checked outputs, work counters."""

    setup_s: float
    run_s: float
    outputs: Dict
    counters: Dict
    expected_console: str
    ledger: Optional[Ledger] = None
    layers: Optional[Dict[str, float]] = None

    @property
    def kips(self) -> float:
        return self.outputs["timing"]["instructions"] / self.run_s / 1e3

    @property
    def kcps(self) -> float:
        return self.outputs["timing"]["cycles"] / self.run_s / 1e3


def build(workload: Workload, seed: int, scale: float,
          engine: str = "compiled", superblocks: bool = True,
          span: Callable = _untimed):
    """A simulator ready to run, its console, the console text a correct
    run prints, and the host seconds all that took to set up."""
    t0 = time.perf_counter()
    image, expected = span("setup.image", _image, workload, seed, scale)
    fm, console = span("setup.fm", _functional, image, superblocks)
    sim = span("setup.timing", _timing, fm, engine)
    return sim, console, expected, time.perf_counter() - t0


def simulate(workload: Workload, seed: int, scale: float,
             engine: str = "compiled", superblocks: bool = True,
             scoped: bool = False, ledger: Optional[Ledger] = None,
             pulse_path: Optional[str] = None) -> Sample:
    """Build, run and read out one simulator.  With *ledger*, the ledger
    must already be installed; set-up is split into its three spans."""
    gc.collect()
    sim, console, expected, setup_s = build(
        workload, seed, scale, engine, superblocks,
        span=ledger.timed if ledger is not None else _untimed)
    fm = sim.fm
    scope = _arm_scope(sim, pulse_path) if scoped else None
    if ledger is not None:
        ledger.attach(sim)
    t1 = time.perf_counter()
    result = sim.run(MAX_CYCLES)
    run_s = time.perf_counter() - t1
    if scope is not None:
        scope.finalize()
    outputs = {
        "timing": asdict(result.timing),
        "protocol": asdict(result.protocol),
        "host_time": {mode: asdict(sim.host_time(protocol_mode=mode))
                      for mode in PROTOCOL_MODES},
        "console": console.text(),
    }
    blocks = fm.blocks
    counters = {
        "functional": asdict(fm.stats),
        "superblocks": {name: getattr(blocks.stats, name)
                        for name in type(blocks.stats).__slots__}
        if blocks is not None else {},
    }
    return Sample(setup_s, run_s, outputs, counters, expected, ledger)


def differences(expected, actual, path: str = "") -> List[str]:
    """Every leaf where two nested dicts disagree, as ``path: a != b``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out: List[str] = []
        for key in sorted(set(expected) | set(actual), key=str):
            out += differences(expected.get(key), actual.get(key),
                               "%s.%s" % (path, key) if path else str(key))
        return out
    if expected != actual:
        return ["%s: %r != %r" % (path, expected, actual)]
    return []


def layer_metrics(sample: Sample) -> Dict[str, float]:
    """Per-layer self seconds, call counts and exact work ratios of one
    traced sample."""
    ledger = sample.ledger
    timing = sample.outputs["timing"]
    protocol = sample.outputs["protocol"]
    fm = sample.counters["functional"]
    sb = sample.counters["superblocks"]
    committed = timing["instructions"]
    out: Dict[str, float] = {
        layer + "_s": ledger.self_s.get(layer, 0.0) for layer in LAYERS
    }
    out["trace_buffer.fm_wait_s"] = ledger.inclusive_s.get(
        "trace_buffer.fill", 0.0)
    for layer in ("timing.memhier", "microcode.crack", "system.bus",
                  "observability.listener"):
        out[layer + "_calls"] = ledger.calls.get(layer, 0)
    out.update({
        "functional.executed_per_commit": fm["executed"] / committed,
        "functional.rollbacks_per_mispredict":
            fm["rollbacks"] / max(1, timing["mispredicts"]),
        "functional.superblock_coverage":
            sb["replayed_instructions"] / max(1, fm["executed"]),
        "functional.superblock_hit_rate":
            sb["hits"] / max(1, sb["hits"] + sb["misses"]),
        "functional.decode_misses": fm["decode_misses"],
        "trace_buffer.entries_per_commit":
            protocol["entries_streamed"] / committed,
        "trace_buffer.round_trips":
            protocol["mispredict_messages"] + protocol["resolve_messages"],
        "timing.stepped_cycles": timing["cycles"] - ledger.idle_span_cycles,
        "timing.idle_spans": ledger.idle_spans,
    })
    return out


# Per-layer metrics that are exact counts: they must repeat bit for bit.
EXACT = (
    "timing.memhier_calls", "microcode.crack_calls", "system.bus_calls",
    "observability.listener_calls", "functional.executed_per_commit",
    "functional.rollbacks_per_mispredict", "functional.superblock_coverage",
    "functional.superblock_hit_rate", "functional.decode_misses",
    "trace_buffer.entries_per_commit", "trace_buffer.round_trips",
    "timing.stepped_cycles", "timing.idle_spans",
)


def start_rss_probe(workload_name: str, seed: int,
                    scale: float) -> subprocess.Popen:
    """Start one simulation in a fresh interpreter, so its peak resident
    memory is not inherited from earlier work in this process.  Read it
    back with :func:`finish_rss_probe`."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
         "--seed", str(seed), "--scale", repr(scale), "--rss-probe"],
        cwd=str(ROOT), stdout=subprocess.PIPE, universal_newlines=True,
    )


def finish_rss_probe(proc: subprocess.Popen) -> Dict:
    """The probe's outputs, work counters and peak RSS."""
    try:
        out, _err = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError("rss probe exited with %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def probe_main(workload_name: str, seed: int, scale: float) -> Dict:
    """The child side of :func:`start_rss_probe`."""
    workload = WORKLOADS[workload_name]
    with tempfile.TemporaryDirectory(dir=str(HERE), prefix=".pulse-") as tmp:
        sample = simulate(workload, seed, scale, scoped=workload.scoped,
                          pulse_path=os.path.join(tmp, "pulse.jsonl"))
    # ru_maxrss is in KiB on Linux.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"peak_rss_mb": peak, "outputs": sample.outputs,
            "counters": sample.counters}


def _git_commit(root: Path) -> Optional[str]:
    """HEAD of the git repository at *root*, or None outside one."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(root),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            universal_newlines=True,
            # Never report the commit of a repository that encloses root.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(root: Path) -> str:
    """Identifies the measured code where there is no git commit."""
    digest = hashlib.sha256()
    for path in sorted(p for d in ("src", "fastbench")
                       for p in (root / d).rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint() -> Dict:
    """What a noisy set of runs needs to be explained."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": _git_commit(ROOT),
        "source_sha256": _source_digest(ROOT),
    }


@dataclass
class Report:
    """Everything one benchmark run measured and checked."""

    samples: List[Sample] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Dict] = field(default_factory=dict)

    def check(self, label: str, problems: List[str]) -> None:
        """Count one checked simulation; failing if *problems*."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += ["%s: %s" % (label, p) for p in problems]

    def result(self) -> Dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def dead_layers(sample: Sample, workload: Workload) -> List[str]:
    """Wrapped layers of a traced sample that never fired.  A wrapper
    that stops firing (installed after the engine bound its closures, or
    bypassed by a new call path) reads 0 on every traced sample, so it
    passes the sum and repeat checks and would look like a speed-up.
    Every layer fires on every workload, the listener layer exactly when
    the workload arms observers, and idle fast-forward when it sleeps."""
    calls = sample.ledger.calls
    problems = ["layer %s never fired" % layer for layer in LAYERS
                if layer != "observability.listener" and not calls[layer]]
    if bool(calls["observability.listener"]) != workload.scoped:
        problems.append("observability.listener fired %d times on a %s "
                        "workload" % (calls["observability.listener"],
                                      "scoped" if workload.scoped else "bare"))
    if workload.sleeps and not sample.ledger.idle_spans:
        problems.append("no idle span on a workload that sleeps")
    return problems


def _problems(sample: Sample, workload: Workload, reference: Sample,
              first: Optional[Sample], first_traced: Optional[Sample]
              ) -> List[str]:
    """Why *sample* fails its checks: outputs that differ from the
    reference, work counters that drift from the first sample, and for
    a traced sample, layers that never fired, exact layer counters that
    drift from the first traced sample or self times that do not sum to
    the traced total."""
    problems = differences(reference.outputs, sample.outputs)
    if first is not None:
        problems += ["counter drift " + d
                     for d in differences(first.counters, sample.counters)]
    if sample.ledger is None:
        return problems
    sample.layers = layer_metrics(sample)
    problems += dead_layers(sample, workload)
    if first_traced is not None:
        problems += ["counter drift %s: %r != %r"
                     % (k, first_traced.layers[k], sample.layers[k])
                     for k in EXACT
                     if sample.layers[k] != first_traced.layers[k]]
    total = sample.setup_s + sample.run_s
    summed = sample.ledger.total_self_s
    if abs(summed - total) > SUM_TOLERANCE * total:
        problems.append("layer self times sum to %.4f s, traced total "
                        "%.4f s" % (summed, total))
    return problems


def _median(values) -> float:
    return statistics.median(list(values))


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> Report:
    """Run the benchmark for one workload; see the module docstring."""
    workload = WORKLOADS[workload_name]
    report = Report()
    # The memory probe runs in its own process beside the untimed
    # reference run, so it adds no wall time and perturbs no sample.
    probe = None if trace else start_rss_probe(workload_name, seed, scale)
    with probe if probe is not None else contextlib.nullcontext():
        reference = simulate(workload, seed, scale, engine="legacy",
                             superblocks=False)
        probed = finish_rss_probe(probe) if probe is not None else None
    report.check("reference", [] if reference.outputs["console"]
                 == reference.expected_console else [
                     "console %r != expected %r"
                     % (reference.outputs["console"],
                        reference.expected_console)])

    traced: List[Sample] = []
    with tempfile.TemporaryDirectory(dir=str(HERE), prefix=".pulse-") as tmp:
        def run_one(ledger=None) -> Sample:
            label = "sample %d" % len(report.samples)
            path = os.path.join(tmp, "pulse-%d.jsonl" % len(report.samples))
            sample = simulate(workload, seed, scale, scoped=workload.scoped,
                              ledger=ledger, pulse_path=path)
            report.check(label, _problems(
                sample, workload, reference,
                report.samples[0] if report.samples else None,
                traced[0] if traced else None))
            report.samples.append(sample)
            return sample

        # Warm-up: the first compiled run in a process is slower (lazy
        # tables, allocator pools), so it is checked but not timed.
        run_one()
        start = time.perf_counter()
        untraced: List[Sample] = []
        untraced_s = seconds / 2 if trace else seconds
        setups: List[float] = []
        while (len(untraced) < MIN_SAMPLES
               or time.perf_counter() - start < untraced_s):
            # Set-up is short and noisy, so it is timed several times
            # per sample; the extra simulators are dropped unrun.
            setups += [build(workload, seed, scale)[-1]
                       for _ in range(SETUP_REPEATS - 1)]
            untraced.append(run_one())
            setups.append(untraced[-1].setup_s)
        while trace and (len(traced) < MIN_TRACED
                         or time.perf_counter() - start < seconds):
            ledger = Ledger()
            try:
                traced.append(run_one(ledger.install()))
            finally:
                ledger.uninstall()

    if trace:
        report.metrics = _per_layer(traced, untraced)
        return report
    metrics = {
        "kips": _median(s.kips for s in untraced),
        "kcps": _median(s.kcps for s in untraced),
        "setup_s": _median(setups),
    }
    if probed is not None:
        report.check("rss probe", differences(
            reference.outputs, probed["outputs"]) + [
            "counter drift " + d for d in differences(
                report.samples[0].counters, probed["counters"])])
        metrics["peak_rss_mb"] = probed["peak_rss_mb"]
    report.metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                      for name, value in metrics.items()}
    return report


def _per_layer(traced: List[Sample],
               untraced: List[Sample]) -> Dict[str, Dict]:
    """Median self times and the first traced sample's exact counters
    (checked to repeat in every other traced sample)."""
    rows = [s.layers for s in traced]
    metrics: Dict[str, Dict] = {}
    for name, first in rows[0].items():
        value = first if name in EXACT else _median(r[name] for r in rows)
        unit = "s" if name.endswith("_s") else (
            "count" if isinstance(first, int) else "ratio")
        metrics[name] = {"value": value, "unit": unit}
    traced_total = _median(s.setup_s + s.run_s for s in traced)
    untraced_total = _median(s.setup_s + s.run_s for s in untraced)
    metrics["trace.total_s"] = {"value": traced_total, "unit": "s"}
    metrics["trace.overhead"] = {"value": traced_total / untraced_total,
                                 "unit": "ratio"}
    return metrics


def main(args) -> int:
    if args.rss_probe:
        print(json.dumps(probe_main(args.workload, args.seed, args.scale)))
        return 0
    host = host_fingerprint()
    report = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), scale=args.scale)
    host["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]
    for line in report.failures:
        print("FAIL " + line)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "samples": len(report.samples), "host": host}))
    print(json.dumps(report.result()))
    return 0
