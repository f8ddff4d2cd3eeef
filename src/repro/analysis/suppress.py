"""The fastlint escape hatch, shared by every AST-based pass.

A finding is suppressed by a ``# fastlint: ignore`` comment on the
offending line.  Three forms are honored, uniformly, by every pass
that reports ``file:line`` locations (determinism DT*, statistics
ST*, invariant fabric IV*):

* ``# fastlint: ignore`` -- suppress every rule on this line;
* ``# fastlint: ignore[DT002]`` -- suppress exactly one rule;
* ``# fastlint: ignore[DT002,ST003]`` -- suppress a rule list.

Suppression is an audited exception, so an ignore that suppresses
nothing is itself a finding: the CLI collects every comment seen and
every suppression actually exercised across *all* passes (a comment
used by any one pass is used), and reports the leftovers as rule
``IG001``.  Structural rules (TG*, MC*, ST001) locate findings by
module path or opcode, not by source line, and are deliberately not
suppressible -- fix the structure instead.
"""

from __future__ import annotations

import io
import os
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Report, Severity

_IGNORE_RE = re.compile(
    r"#\s*fastlint:\s*ignore"
    r"(?:\[([A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)\])?"
)


def parse_ignores(line: str) -> Optional[Set[str]]:
    """Rules suppressed on *line*; empty set means "all rules",
    ``None`` means no ignore comment at all."""
    match = _IGNORE_RE.search(line)
    if not match:
        return None
    rules = match.group(1)
    if not rules:
        return set()
    return {rule.strip() for rule in rules.split(",")}


def _comment_tokens(lines: List[str]) -> Iterable[Tuple[int, str]]:
    """``(line, comment text)`` for every real COMMENT token.

    Tokenizing (rather than regex-scanning raw lines) keeps docstrings
    and string literals that merely *mention* the ignore syntax from
    being mistaken for directives.  Unparseable source falls back to
    the raw line scan -- over-matching beats silently dropping a
    directive.
    """
    source = "".join(
        line if line.endswith("\n") else line + "\n" for line in lines
    )
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        for number, line in enumerate(lines, start=1):
            yield number, line
        return
    for token in tokens:
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


class FileSuppressions:
    """Every ignore comment in one source file, with usage marks."""

    def __init__(self, label: str, lines: Iterable[str]):
        self.label = label
        # line number -> declared rule set (empty set = all rules)
        self.declared: Dict[int, Set[str]] = {}
        # line number -> rules actually suppressed there (any pass)
        self.used: Dict[int, Set[str]] = {}
        for number, comment in _comment_tokens(list(lines)):
            rules = parse_ignores(comment)
            if rules is not None:
                self.declared[number] = rules

    def suppresses(self, rule: str, line_no: int) -> bool:
        """True if *rule* is suppressed on *line_no*; marks the ignore
        as exercised."""
        declared = self.declared.get(line_no)
        if declared is None:
            return False
        if declared and rule not in declared:
            return False
        self.used.setdefault(line_no, set()).add(rule)
        return True

    def unused(self) -> List[Tuple[int, Optional[str]]]:
        """``(line, rule-or-None)`` for every declared suppression that
        never fired; ``None`` marks an unqualified (suppress-all)
        comment that suppressed nothing."""
        out: List[Tuple[int, Optional[str]]] = []
        for line_no in sorted(self.declared):
            declared = self.declared[line_no]
            used = self.used.get(line_no, set())
            if not declared:
                if not used:
                    out.append((line_no, None))
                continue
            for rule in sorted(declared):
                if rule not in used:
                    out.append((line_no, rule))
        return out


class SuppressionTracker:
    """Suppression state shared across every pass of one lint run.

    Passes register each file they scan (keyed by absolute path, so
    every pass that scans a file shares one record) and route every
    would-be diagnostic through :meth:`suppresses`.  After all passes
    ran, :meth:`report_unused` turns leftover ignores into IG001
    warnings.
    """

    def __init__(self) -> None:
        self._files: Dict[str, FileSuppressions] = {}

    def for_file(self, path: str, label: str,
                 lines: Iterable[str]) -> FileSuppressions:
        key = os.path.abspath(path)
        existing = self._files.get(key)
        if existing is None:
            existing = FileSuppressions(label, lines)
            self._files[key] = existing
        return existing

    def report_unused(self) -> Report:
        report = Report()
        for key in sorted(self._files):
            suppressions = self._files[key]
            for line_no, rule in suppressions.unused():
                what = (
                    "unqualified '# fastlint: ignore'"
                    if rule is None
                    else "'# fastlint: ignore[%s]'" % rule
                )
                report.add(
                    "IG001",
                    Severity.WARNING,
                    "%s:%d" % (suppressions.label, line_no),
                    "%s suppresses nothing: no pass reported a finding "
                    "it covers on this line" % what,
                    hint="remove the stale ignore, or qualify it with "
                    "the rule it is meant to suppress",
                )
        return report


def python_files(root: str) -> Iterable[str]:
    """Every ``*.py`` under *root*, in deterministic walk order."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)
