"""FastLint pass 3: AST determinism lint, plus the CLI entry point."""

import json
import textwrap

from repro.analysis import Severity, lint_determinism, lint_source
from repro.analysis.cli import run_lint
from repro.__main__ import main as repro_main


def lint(code):
    return lint_source(textwrap.dedent(code), "sample.py")


# -- DT001: unordered iteration ------------------------------------------


def test_set_literal_iteration_flagged():
    report = lint("""
        for x in {3, 1, 2}:
            print(x)
    """)
    diags = report.by_rule("DT001")
    assert len(diags) == 1
    assert diags[0].location == "sample.py:2"


def test_set_call_and_comprehension_flagged():
    report = lint("""
        total = sum(x for x in set(items))
        squares = [x * x for x in {i for i in items}]
    """)
    assert len(report.by_rule("DT001")) == 2


def test_sorted_set_iteration_clean():
    report = lint("""
        for x in sorted(set(items)):
            print(x)
    """)
    assert not report.by_rule("DT001")


def test_ignore_comment_suppresses():
    report = lint("""
        for x in {1, 2}:  # fastlint: ignore[DT001]
            print(x)
    """)
    assert not report.by_rule("DT001")


# -- DT002: wall-clock reads ---------------------------------------------


def test_wallclock_flagged():
    report = lint("""
        import time
        start = time.time()
        t = time.perf_counter()
    """)
    diags = report.by_rule("DT002")
    assert len(diags) == 2
    assert all(d.severity == Severity.ERROR for d in diags)


def test_from_import_wallclock_flagged():
    report = lint("""
        from time import perf_counter as pc
        t = pc()
    """)
    assert len(report.by_rule("DT002")) == 1


# -- DT003: unseeded randomness ------------------------------------------


def test_global_random_flagged():
    report = lint("""
        import random
        x = random.random()
        random.shuffle(items)
    """)
    assert len(report.by_rule("DT003")) == 2


def test_seeded_rng_instance_clean():
    report = lint("""
        import random
        rng = random.Random(1234)
        x = rng.random()
    """)
    assert not report.by_rule("DT003")


def test_unseeded_rng_instance_flagged():
    report = lint("""
        import random
        rng = random.Random()
    """)
    assert len(report.by_rule("DT003")) == 1


# -- DT004: float equality on modelled time ------------------------------


def test_float_eq_on_cycle_quantity_flagged():
    report = lint("""
        if cycle_time == 0.5:
            pass
    """)
    diags = report.by_rule("DT004")
    assert len(diags) == 1
    assert diags[0].severity == Severity.WARNING


def test_float_eq_on_unrelated_name_clean():
    report = lint("""
        if divisor == 0.0:
            pass
    """)
    assert not report.by_rule("DT004")


def test_syntax_error_reported_not_raised():
    report = lint_source("def broken(:\n", "bad.py")
    assert report.rules() == ("DT000",)


# -- the shipped sources are clean ---------------------------------------


def test_repro_package_is_deterministic():
    report = lint_determinism()
    assert report.clean, report.format()
    assert len(report) == 0


# -- CLI / orchestration -------------------------------------------------


def test_run_lint_default_targets_clean():
    report = run_lint()
    assert report.clean, report.format(Severity.WARNING)


def test_cli_lint_exits_zero(capsys):
    code = repro_main(["repro", "lint", "--issue-width", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fastlint:" in out


def test_cli_lint_detects_seeded_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    code = repro_main(
        ["repro", "lint", "--pass", "determinism", str(bad)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "DT002" in out


def test_lint_json_mode_is_sorted_and_parsable(capsys):
    from repro.analysis.cli import main as lint_main

    exit_code = lint_main(["--json", "--pass", "graph", "--pass", "microcode"])
    out = capsys.readouterr().out
    document = json.loads(out)
    assert exit_code == 0
    assert document["diagnostics"]
    keys = [
        (d["rule"], d["location"], d["message"], d["hint"])
        for d in document["diagnostics"]
    ]
    assert keys == sorted(keys)
