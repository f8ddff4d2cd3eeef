"""The shared fastlint ignore machinery: parsing, usage, IG001."""

import textwrap

from repro.analysis.determinism import lint_source
from repro.analysis.suppress import (
    FileSuppressions,
    SuppressionTracker,
    parse_ignores,
)


def test_parse_ignore_forms():
    assert parse_ignores("x = 1") is None
    assert parse_ignores("x = 1  # fastlint: ignore") == set()
    assert parse_ignores("x = 1  # fastlint: ignore[DT002]") == {"DT002"}
    assert parse_ignores(
        "x = 1  # fastlint: ignore[DT002, ST003]"
    ) == {"DT002", "ST003"}


def test_docstring_mention_is_not_a_directive():
    source = '"""Docs mention # fastlint: ignore[DT002] here."""\nx = 1\n'
    suppressions = FileSuppressions("sample.py", source.splitlines())
    assert suppressions.declared == {}


def test_string_literal_mention_is_not_a_directive():
    source = "msg = \"use '# fastlint: ignore[DT002]' to suppress\"\n"
    suppressions = FileSuppressions("sample.py", source.splitlines())
    assert suppressions.declared == {}


def test_qualified_ignore_suppresses_only_listed_rules():
    source = textwrap.dedent("""
        import time
        a = time.time()  # fastlint: ignore[DT002]
        b = time.time()  # fastlint: ignore[DT001]
    """)
    suppressions = FileSuppressions("sample.py", source.splitlines())
    report = lint_source(source, "sample.py", suppressions)
    locations = [d.location for d in report.by_rule("DT002")]
    assert locations == ["sample.py:4"]  # wrong-rule ignore does not hide


def test_aliased_wallclock_read_is_still_flagged():
    source = textwrap.dedent("""
        import time
        perf = time.perf_counter
        t0 = perf()
    """)
    report = lint_source(source, "sample.py")
    assert [d.location for d in report.by_rule("DT002")] == ["sample.py:4"]


def test_unused_ignore_reported_as_ig001():
    source = "x = 1  # fastlint: ignore[DT002]\n"
    tracker = SuppressionTracker()
    suppressions = tracker.for_file("/tmp/sample.py", "sample.py",
                                    source.splitlines())
    lint_source(source, "sample.py", suppressions)
    report = tracker.report_unused()
    diags = report.by_rule("IG001")
    assert len(diags) == 1
    assert diags[0].location == "sample.py:1"


def test_used_ignore_not_reported():
    source = "import time\nt = time.time()  # fastlint: ignore[DT002]\n"
    tracker = SuppressionTracker()
    suppressions = tracker.for_file("/tmp/sample2.py", "sample.py",
                                    source.splitlines())
    report = lint_source(source, "sample.py", suppressions)
    assert report.by_rule("DT002") == ()
    assert tracker.report_unused().by_rule("IG001") == ()


def test_tracker_shares_usage_across_passes():
    # A suppression exercised by ANY pass counts as used: register the
    # same file twice (as two passes would) and use it once.
    source = "import time\nt = time.time()  # fastlint: ignore[DT002]\n"
    tracker = SuppressionTracker()
    first = tracker.for_file("/tmp/sample3.py", "sample.py",
                             source.splitlines())
    second = tracker.for_file("/tmp/sample3.py", "sample.py",
                              source.splitlines())
    assert first is second
    lint_source(source, "sample.py", first)
    assert tracker.report_unused().by_rule("IG001") == ()


def test_full_ast_run_reports_ig001(tmp_path):
    # run_lint reaches report_unused only when every AST pass runs; a
    # pass name in AST_PASSES that no run can select would silence
    # IG001 without any error.
    from repro.analysis.cli import AST_PASSES, PASS_NAMES, run_lint

    assert AST_PASSES.issubset(PASS_NAMES)
    stale = tmp_path / "stale.py"
    stale.write_text("x = 1  # fastlint: ignore[DT002]\n")
    report = run_lint(passes=sorted(AST_PASSES), paths=[str(stale)])
    diags = report.by_rule("IG001")
    assert [d.location for d in diags] == ["stale.py:1"]
