"""Checker framework: findings, suppressions, module parsing, the runner.

Rules are small classes over a shared parsed-module representation; the
runner handles file collection, suppression filtering, and the
justification requirement so individual rules only implement ``check``.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
import tokenize
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import Project


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation, anchored to a file and line."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


#: Matches the inline suppression marker (hash, ``repro: allow[RULE]``,
#: then an optional ``: justification`` tail).
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9]+)\]\s*(?::\s*(\S.*))?")

#: The framework's own rule id: a suppression without a justification.
SUPPRESSION_RULE = "SUP001"

#: A justified suppression that no longer suppresses any finding.
STALE_SUPPRESSION_RULE = "SUP002"


def _comment_tokens(
    lines: typing.Sequence[str],
) -> typing.List[typing.Tuple[int, str]]:
    """(lineno, text) of every real ``#`` comment.

    Tokenizing keeps marker *examples inside docstrings* (this package
    documents its own syntax) from being treated as live suppressions.
    Fragments that fail to tokenize fall back to raw-line scanning.
    """
    try:
        readline = iter([text + "\n" for text in lines]).__next__
        return [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return list(enumerate(lines, start=1))


class Suppressions:
    """Inline ``# repro: allow[RULE]: why`` markers of one file.

    A marker suppresses findings of ``RULE`` on its own line.  A marker
    with no justification suppresses nothing and is itself reported as a
    :data:`SUPPRESSION_RULE` finding — silent waivers defeat the point.
    Justified markers are kept in :attr:`markers` so the runner can audit
    which ones actually fired (:data:`STALE_SUPPRESSION_RULE`).
    """

    __slots__ = ("_by_line", "unjustified", "markers")

    def __init__(self, lines: typing.Sequence[str]) -> None:
        self._by_line: typing.Dict[int, typing.Set[str]] = {}
        self.unjustified: typing.List[typing.Tuple[int, str]] = []
        self.markers: typing.List[typing.Tuple[int, str]] = []
        for lineno, text in _comment_tokens(lines):
            match = _ALLOW_RE.search(text)
            if match is None:
                continue
            rule, justification = match.group(1), match.group(2)
            if justification is None:
                self.unjustified.append((lineno, rule))
                continue
            self._by_line.setdefault(lineno, set()).add(rule)
            self.markers.append((lineno, rule))

    def allows(self, rule: str, line: int) -> bool:
        return rule in self._by_line.get(line, ())


def rel_matches(rel: str, suffixes: typing.Sequence[str]) -> bool:
    """True when the repo-relative path ``rel`` matches a suffix.

    Suffixes ending in ``/`` match directories (``"executors/"``),
    others match exact file tails (``"topology/batch.py"``).
    """
    for suffix in suffixes:
        if suffix.endswith("/"):
            if f"/{suffix}" in f"/{rel}":
                return True
        elif rel.endswith(suffix):
            return True
    return False


class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    __slots__ = ("path", "rel", "source", "lines", "tree", "suppressions")

    def __init__(self, path: pathlib.Path, rel: str) -> None:
        self.path = path
        self.rel = rel
        self.source = path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))
        self.suppressions = Suppressions(self.lines)

    def in_package(self, *suffixes: str) -> bool:
        """True when this file's repo-relative path matches a suffix."""
        return rel_matches(self.rel, suffixes)


class Rule:
    """Base class: one named check over one parsed module."""

    #: Unique id, e.g. ``"DET001"`` — used in findings and suppressions.
    name = "RULE"
    #: One-line summary for ``repro lint --list``.
    description = ""

    def check(self, module: ParsedModule) -> typing.Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ParsedModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.name,
            path=module.rel,
            line=getattr(node, "lineno", 1),
            message=message,
        )


class ProjectRule(Rule):
    """A rule that needs the whole-project call graph.

    ``check`` (per module) defaults to nothing; ``check_project`` runs
    once after every file is parsed, against the linked
    :class:`repro.lint.graph.Project`.  A rule may implement both — e.g.
    SIM001 keeps its syntactic per-module pass and adds a transitive one.
    """

    def check(self, module: ParsedModule) -> typing.Iterator[Finding]:
        return iter(())

    def check_project(
        self, project: "Project"
    ) -> typing.Iterator[Finding]:
        raise NotImplementedError


def _relpath(path: pathlib.Path) -> str:
    """Stable repo-relative display path, anchored at ``src/`` if present."""
    parts = path.resolve().parts
    for anchor in ("src", "tests"):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor):])
    return path.name


def collect_files(paths: typing.Sequence[pathlib.Path]) -> typing.List[pathlib.Path]:
    files: typing.List[pathlib.Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    # De-duplicate while preserving order (a file given twice lints once).
    seen: typing.Set[pathlib.Path] = set()
    unique = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def run_lint(
    paths: typing.Sequence[typing.Union[str, pathlib.Path]],
    rules: typing.Optional[typing.Sequence[Rule]] = None,
    stats: typing.Optional[typing.Dict[str, int]] = None,
) -> typing.List[Finding]:
    """Lint ``paths`` (files or directories); returns surviving findings.

    Suppressed findings are dropped; unjustified suppressions surface as
    :data:`SUPPRESSION_RULE` findings, which cannot be suppressed.  When
    the full rule set runs (``rules is None``), justified suppressions
    that silenced nothing surface as :data:`STALE_SUPPRESSION_RULE`
    findings — a waiver that outlived its finding is debt (the audit is
    skipped under ``--select`` because unselected rules cannot fire).

    ``stats``, when given, is filled with the linked project's
    statistics (see :mod:`repro.lint.graph`).
    """
    full_audit = rules is None
    if rules is None:
        from repro.lint.rules import ALL_RULES
        rules = [factory() for factory in ALL_RULES]
    findings: typing.List[Finding] = []
    parsed: typing.List[ParsedModule] = []
    for path in collect_files([pathlib.Path(p) for p in paths]):
        rel = _relpath(path)
        try:
            module = ParsedModule(path, rel)
        except (SyntaxError, UnicodeDecodeError) as exc:
            findings.append(
                Finding("PARSE", rel, getattr(exc, "lineno", 1) or 1, str(exc))
            )
            continue
        parsed.append(module)
        for lineno, rule_name in module.suppressions.unjustified:
            findings.append(
                Finding(
                    SUPPRESSION_RULE, rel, lineno,
                    f"suppression of {rule_name} needs a justification "
                    f"(write `# repro: allow[{rule_name}]: <why>`)",
                )
            )
    # (path, line, rule) of suppressions that actually silenced a finding.
    used: typing.Set[typing.Tuple[str, int, str]] = set()
    for module in parsed:
        for rule in rules:
            for finding in rule.check(module):
                if module.suppressions.allows(finding.rule, finding.line):
                    used.add((module.rel, finding.line, finding.rule))
                else:
                    findings.append(finding)
    project = None
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    if project_rules:
        from repro.lint.graph import build_project

        project = build_project(parsed)
        if stats is not None:
            stats.update(project.stats())
    by_rel = {module.rel: module for module in parsed}
    if project is not None:
        for rule in project_rules:
            for finding in rule.check_project(project):
                module_or_none = by_rel.get(finding.path)
                if module_or_none is not None and (
                    module_or_none.suppressions.allows(
                        finding.rule, finding.line
                    )
                ):
                    used.add((finding.path, finding.line, finding.rule))
                else:
                    findings.append(finding)
    if full_audit:
        known_rules = {rule.name for rule in rules} | {
            SUPPRESSION_RULE, STALE_SUPPRESSION_RULE, "PARSE",
        }
        for module in parsed:
            for lineno, rule_name in module.suppressions.markers:
                if rule_name not in known_rules:
                    findings.append(
                        Finding(
                            STALE_SUPPRESSION_RULE, module.rel, lineno,
                            f"suppression names unknown rule {rule_name!r} "
                            "(typo, or the rule was removed)",
                        )
                    )
                elif (module.rel, lineno, rule_name) not in used:
                    findings.append(
                        Finding(
                            STALE_SUPPRESSION_RULE, module.rel, lineno,
                            f"stale suppression: no {rule_name} finding "
                            "fires on this line any more — delete the "
                            "marker",
                        )
                    )
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
