"""ulsan rule framework: registry, findings, suppressions, baseline.

Suppression syntax
------------------
A finding on line L is suppressed by ``// NOLINT(ulsan-<rule>)`` on line L
or ``// NOLINTNEXTLINE(ulsan-<rule>)`` on line L-1.  The parenthesized
list is comma-separated and shared with clang-tidy: tokens that do not
start with ``ulsan-`` belong to clang-tidy and are ignored here, so one
comment can silence both tools.  Every ulsan token must suppress at least
one finding — an unused suppression is itself an error (it means the code
was fixed, or the token is misspelled).  A bare ``// NOLINT`` with no
rule list is rejected as a blanket suppression, and unknown ``ulsan-*``
rule names are rejected as typos.  The pre-ulsan ``NOLINT(coro-capture)``
convention is recognized only to tell you to migrate.

Baseline
--------
``scripts/ulsan/baseline.json`` grandfathers pre-existing findings so the
gate can demand "no *new* findings" from day one.  Entries match on
(rule, file, whitespace-normalized line text) — stable across unrelated
edits that renumber lines — and absorb up to ``count`` occurrences.  Every
entry must carry a non-empty ``justification`` and must still match
something: a stale entry fails the run so the baseline only ever shrinks.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .source import SourceFile

# Rules whose findings the committed gate must never baseline; kept here so
# both the runner and the self-tests can assert the policy.
NO_BASELINE_RULES = ("layering", "wire-hygiene")

# Umbrella alias: suppresses both coroutine-capture rules.  Only the
# namespaced NOLINT(ulsan-coro-capture) spelling counts; a bare
# NOLINT(coro-capture) is rejected as malformed.
CORO_ALIAS = "coro-capture"
CORO_ALIAS_TARGETS = ("coro-schedule-capture", "coro-iife-capture")


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str
    excerpt: str = ""
    status: str = "new"  # new | suppressed | baselined

    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, normalize_text(self.excerpt))

    def render(self) -> str:
        loc = f"{self.path}:{self.line}"
        text = f"{loc}: [ulsan-{self.rule}] {self.message}"
        if self.excerpt:
            text += f"\n    {self.excerpt}"
        return text

    def as_json(self) -> dict:
        return {
            "rule": f"ulsan-{self.rule}",
            "file": self.path,
            "line": self.line,
            "message": self.message,
            "excerpt": self.excerpt,
            "status": self.status,
        }


@dataclass
class Rule:
    name: str  # without the ulsan- prefix
    summary: str
    doc: str
    check: Callable[[SourceFile, "RunContext"], list[Finding]]


_REGISTRY: dict[str, Rule] = {}


def rule(name: str, summary: str, doc: str):
    """Decorator registering ``fn(sf, ctx) -> list[Finding]`` as a rule."""

    def wrap(fn):
        _REGISTRY[name] = Rule(name=name, summary=summary, doc=doc,
                               check=fn)
        return fn

    return wrap


def all_rules() -> dict[str, Rule]:
    # Importing the rules package populates the registry exactly once.
    from . import rules  # noqa: F401
    return dict(_REGISTRY)


def normalize_text(s: str) -> str:
    return " ".join(s.split())


class RunContext:
    """Per-run state shared by rules: file cache and the scan roots."""

    def __init__(self, roots: list[Path]):
        self.roots = roots
        self._cache: dict[Path, SourceFile] = {}

    def load(self, path: Path) -> SourceFile:
        path = path.resolve()
        if path not in self._cache:
            self._cache[path] = SourceFile.load(path)
        return self._cache[path]

    def sibling_header(self, sf: SourceFile) -> SourceFile | None:
        """The same-stem .hpp next to a .cpp (member declarations usually
        live there), or None."""
        if sf.path.suffix != ".cpp":
            return None
        hpp = sf.path.with_suffix(".hpp")
        if hpp.exists():
            loaded = self.load(hpp)
            # Keep the .cpp's display path out of the header's findings by
            # never reporting from here; callers only read declarations.
            return loaded
        return None


# --------------------------------------------------------------------------
# Suppressions

NOLINT_RE = re.compile(r"//\s*(NOLINTNEXTLINE|NOLINT)\b(\(([^)]*)\))?")


@dataclass
class Suppression:
    token: str      # rule name without ulsan- prefix, or special token
    line: int       # line the comment is on
    target: int     # line it suppresses
    used: bool = False


@dataclass
class FileSuppressions:
    path: str
    entries: list[Suppression] = field(default_factory=list)
    malformed: list[Finding] = field(default_factory=list)

    def covering(self, rule_name: str, line: int) -> Suppression | None:
        for s in self.entries:
            if s.target != line:
                continue
            if s.token == rule_name:
                return s
            if s.token == CORO_ALIAS and rule_name in CORO_ALIAS_TARGETS:
                return s
        return None


def scan_suppressions(sf: SourceFile,
                      known_rules: Iterable[str]) -> FileSuppressions:
    known = set(known_rules)
    out = FileSuppressions(path=sf.display)
    for lineno, line in enumerate(sf.original.splitlines(), start=1):
        for m in NOLINT_RE.finditer(line):
            kind, has_list, body = m.group(1), m.group(2), m.group(3)
            target = lineno + 1 if kind == "NOLINTNEXTLINE" else lineno
            if not has_list:
                out.malformed.append(Finding(
                    rule="suppression-syntax", path=sf.display, line=lineno,
                    message=f"blanket {kind} suppresses every tool and "
                            f"every rule; name the rule(s): "
                            f"// {kind}(ulsan-<rule>)",
                    excerpt=sf.line_text(lineno)))
                continue
            for raw in body.split(","):
                tok = raw.strip()
                if not tok:
                    continue
                if tok == CORO_ALIAS:
                    out.malformed.append(Finding(
                        rule="suppression-syntax", path=sf.display,
                        line=lineno,
                        message="legacy NOLINT(coro-capture) syntax; "
                                "migrate to NOLINT(ulsan-coro-capture) "
                                "or a specific ulsan-coro-* rule",
                        excerpt=sf.line_text(lineno)))
                    continue
                if not tok.startswith("ulsan-"):
                    continue  # clang-tidy's namespace
                name = tok[len("ulsan-"):]
                if name == CORO_ALIAS:
                    out.entries.append(Suppression(
                        token=CORO_ALIAS, line=lineno, target=target))
                elif name in known:
                    out.entries.append(Suppression(
                        token=name, line=lineno, target=target))
                else:
                    out.malformed.append(Finding(
                        rule="suppression-syntax", path=sf.display,
                        line=lineno,
                        message=f"unknown rule '{tok}' in {kind} "
                                f"(see --list-rules)",
                        excerpt=sf.line_text(lineno)))
    return out


# --------------------------------------------------------------------------
# Baseline

@dataclass
class BaselineEntry:
    rule: str
    file: str
    text: str
    count: int
    justification: str
    matched: int = 0


class Baseline:
    def __init__(self, entries: list[BaselineEntry], path: Path | None):
        self.entries = entries
        self.path = path

    @classmethod
    def load(cls, path: Path | None) -> "Baseline":
        if path is None or not path.exists():
            return cls([], path)
        data = json.loads(path.read_text())
        entries = [
            BaselineEntry(
                rule=e["rule"].removeprefix("ulsan-"),
                file=e["file"],
                text=normalize_text(e["text"]),
                count=int(e.get("count", 1)),
                justification=e.get("justification", ""),
            )
            for e in data.get("entries", [])
        ]
        return cls(entries, path)

    def absorb(self, f: Finding) -> bool:
        for e in self.entries:
            if (e.rule == f.rule and e.file == f.path
                    and e.text == normalize_text(f.excerpt)
                    and e.matched < e.count):
                e.matched += 1
                return True
        return False

    def problems(self) -> list[Finding]:
        out: list[Finding] = []
        for e in self.entries:
            if e.rule in NO_BASELINE_RULES:
                out.append(Finding(
                    rule="baseline-policy", path=e.file, line=0,
                    message=f"rule ulsan-{e.rule} may not be baselined "
                            f"(fix the code instead)", excerpt=e.text))
            if not e.justification.strip():
                out.append(Finding(
                    rule="baseline-policy", path=e.file, line=0,
                    message=f"baseline entry for ulsan-{e.rule} has no "
                            f"justification", excerpt=e.text))
            if e.matched == 0:
                out.append(Finding(
                    rule="baseline-stale", path=e.file, line=0,
                    message=f"baseline entry for ulsan-{e.rule} matched "
                            f"nothing — the finding was fixed; delete the "
                            f"entry", excerpt=e.text))
            elif e.matched < e.count:
                out.append(Finding(
                    rule="baseline-stale", path=e.file, line=0,
                    message=f"baseline entry for ulsan-{e.rule} expects "
                            f"{e.count} occurrence(s) but only {e.matched} "
                            f"remain; lower the count", excerpt=e.text))
        return out

    @staticmethod
    def render(findings: list[Finding],
               old: "Baseline | None" = None) -> str:
        """Serialize current findings as a baseline file, carrying forward
        justifications from ``old`` where keys still match."""
        kept: dict[tuple[str, str, str], str] = {}
        if old is not None:
            for e in old.entries:
                kept[(e.rule, e.file, e.text)] = e.justification
        grouped: dict[tuple[str, str, str], int] = {}
        for f in findings:
            grouped[f.key()] = grouped.get(f.key(), 0) + 1
        entries = []
        for (rule_name, path, text), count in sorted(grouped.items()):
            entries.append({
                "rule": f"ulsan-{rule_name}",
                "file": path,
                "text": text,
                "count": count,
                "justification": kept.get((rule_name, path, text),
                                          "TODO: justify or fix"),
            })
        return json.dumps({"version": 1, "entries": entries}, indent=2) + "\n"


# --------------------------------------------------------------------------
# Runner

CPP_SUFFIXES = (".cpp", ".hpp")
SKIP_DIRS = {".git", "build"}


def collect_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for root in paths:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            for suffix in CPP_SUFFIXES:
                files.extend(
                    p for p in sorted(root.rglob(f"*{suffix}"))
                    if not any(part in SKIP_DIRS
                               or part.startswith("build-")
                               for part in p.parts))
        else:
            raise FileNotFoundError(f"no such path: {root}")
    # De-duplicate while preserving order.
    seen: set[Path] = set()
    out = []
    for f in files:
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            out.append(f)
    return out


@dataclass
class RunResult:
    files_scanned: int = 0
    new: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    errors: list[Finding] = field(default_factory=list)  # unused/malformed/stale

    @property
    def failed(self) -> bool:
        return bool(self.new or self.errors)

    def all_findings(self) -> list[Finding]:
        return self.new + self.suppressed + self.baselined + self.errors


def run(paths: list[Path], rule_names: list[str] | None = None,
        baseline: Baseline | None = None) -> RunResult:
    registry = all_rules()
    if rule_names is None:
        active = list(registry.values())
    else:
        unknown = [n for n in rule_names if n not in registry]
        if unknown:
            raise KeyError(f"unknown rule(s): {', '.join(unknown)}")
        active = [registry[n] for n in rule_names]

    ctx = RunContext(paths)
    result = RunResult()
    files = collect_files(paths)
    result.files_scanned = len(files)

    for path in files:
        sf = ctx.load(path)
        # Report with the path as given on the command line, not resolved.
        sf = SourceFile(path=path, original=sf.original, text=sf.text)
        sup = scan_suppressions(sf, registry.keys())
        result.errors.extend(sup.malformed)
        for r in active:
            for f in r.check(sf, ctx):
                cover = sup.covering(f.rule, f.line)
                if cover is not None:
                    cover.used = True
                    f.status = "suppressed"
                    result.suppressed.append(f)
                elif baseline is not None and baseline.absorb(f):
                    f.status = "baselined"
                    result.baselined.append(f)
                else:
                    result.new.append(f)
        # Only suppressions for *active* rules can be judged unused: a
        # restricted --rules run must not flag the other rules' tokens.
        active_names = {r.name for r in active}
        if CORO_ALIAS_TARGETS[0] in active_names \
                or CORO_ALIAS_TARGETS[1] in active_names:
            active_names.add(CORO_ALIAS)
        for s in sup.entries:
            if not s.used and s.token in active_names:
                result.errors.append(Finding(
                    rule="unused-suppression", path=sf.display, line=s.line,
                    message=f"NOLINT(ulsan-{s.token}) suppresses nothing — "
                            f"the finding was fixed or the rule name is "
                            f"wrong; remove it",
                    excerpt=sf.line_text(s.line)))

    if baseline is not None:
        result.errors.extend(baseline.problems())
    return result
