"""Command-line entry point: regenerate the paper's experiments and
drive the engine/observability tooling.

Usage::

    python -m repro                 # generated usage listing
    python -m repro table1          # regenerate one experiment
    python -m repro all             # regenerate everything (slow)
    python -m repro <subcommand>    # lint / bench / stats / trace / report
                                    # / debug / fuzz / top / pulse

Experiment runs invoked here emit FastFlight run artifacts under
``results/runs/`` (suppress with ``REPRO_FLIGHT=0``).
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Tuple

EXPERIMENTS = {
    "fig3": ("Figure 3: the target microarchitecture", "fig3"),
    "table1": ("Table 1: microcode coverage per workload", "table1"),
    "table2": ("Table 2: FPGA resources vs issue width", "table2"),
    "table3": ("Table 3: simulator performance survey", "table3"),
    "fig4": ("Figure 4: simulator MIPS per workload", "fig4"),
    "fig5": ("Figure 5: gshare branch prediction accuracy", "fig5"),
    "fig6": ("Figure 6: Linux boot statistic trace", "fig6"),
    "bottleneck": ("Section 4.5 bottleneck analysis", "bottleneck"),
    "ablations": ("Design-choice ablations", "ablations"),
    "fp-extension": ("Extension: hand-patched FP microcode", "fp_extension"),
}


def _lint_main(argv: List[str]) -> int:
    from repro.analysis.cli import main as lint_main

    return lint_main(argv)


def _bench_main(argv: List[str]) -> int:
    from repro.experiments.bench import main as bench_main

    return bench_main(argv)


def _stats_main(argv: List[str]) -> int:
    from repro.observability.cli import stats_main

    return stats_main(argv)


def _trace_main(argv: List[str]) -> int:
    from repro.observability.cli import trace_main

    return trace_main(argv)


def _report_main(argv: List[str]) -> int:
    from repro.observability.flight.cli import report_main

    return report_main(argv)


def _fuzz_main(argv: List[str]) -> int:
    from repro.fuzz.cli import main as fuzz_main

    return fuzz_main(argv)


def _debug_main(argv: List[str]) -> int:
    from repro.observability.flight.debug import debug_main

    return debug_main(argv)


def _top_main(argv: List[str]) -> int:
    from repro.observability.pulse_cli import top_main

    return top_main(argv)


def _pulse_main(argv: List[str]) -> int:
    from repro.observability.pulse_cli import pulse_main

    return pulse_main(argv)


# Every registered subcommand: name -> (description, entry point taking
# the remaining argv).  The usage listing below is generated from this
# table plus EXPERIMENTS, so a new subcommand cannot be forgotten there.
SUBCOMMANDS: Dict[str, Tuple[str, Callable[[List[str]], int]]] = {
    "lint": ("FastLint static verification (exit 0 clean / 1 findings)",
             _lint_main),
    "bench": ("hot-path engine benchmark (writes BENCH_hotpath.json)",
              _bench_main),
    "stats": ("FastScope statistics fabric report", _stats_main),
    "trace": ("FM/TM seam event trace (JSONL)", _trace_main),
    "report": ("FastFlight artifact analytics & cross-run regression "
               "diagnosis", _report_main),
    "fuzz": ("FastFuzz differential conformance fuzzing (FM/TM oracle "
             "matrix)", _fuzz_main),
    "debug": ("FastWatch time-travel debug capsules (capture / list / "
              "show / diff / flame)", _debug_main),
    "top": ("live status of running/finished simulations (tails "
            "pulse.jsonl sidecars)", _top_main),
    "pulse": ("FastPulse live telemetry plane (run / export)",
              _pulse_main),
}


def usage() -> str:
    """The generated usage listing (bare invocation and unknown
    subcommands both print this)."""
    lines = [
        "usage: python -m repro <experiment|subcommand> [args]",
        "",
        "experiments (regenerate the paper's tables and figures):",
    ]
    for key, (title, _module) in EXPERIMENTS.items():
        lines.append("  %-14s %s" % (key, title))
    lines.append("  %-14s %s" % ("all", "regenerate every experiment (slow)"))
    lines.append("")
    lines.append("subcommands:")
    for key in sorted(SUBCOMMANDS):
        lines.append("  %-14s %s" % (key, SUBCOMMANDS[key][0]))
    return "\n".join(lines)


def run_one(key: str) -> None:
    import importlib

    module = importlib.import_module("repro.experiments." + EXPERIMENTS[key][1])
    print(module.main())


def _enable_flight() -> None:
    """Experiment runs from this entry point persist run artifacts
    (library and test use stays opt-in)."""
    from repro.experiments.harness import set_flight

    set_flight(True)


def main(argv) -> int:
    if len(argv) < 2:
        print(usage())
        return 0
    target = argv[1]
    if target in ("-h", "--help", "help"):
        print(usage())
        return 0
    if target in SUBCOMMANDS:
        return SUBCOMMANDS[target][1](argv[2:])
    if target == "all":
        _enable_flight()
        for key in EXPERIMENTS:
            print("=" * 72)
            run_one(key)
            print()
        return 0
    if target not in EXPERIMENTS:
        print("unknown command %r" % target)
        print()
        print(usage())
        return 1
    _enable_flight()
    run_one(target)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
