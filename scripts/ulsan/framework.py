"""ulsan rule framework: registry, findings, suppressions.

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
rule names are rejected as typos.  A suppression is the only way to keep
a finding: the comment above it says why the code is right.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .source import SourceFile

# Umbrella alias: suppresses both coroutine-capture rules.  Only the
# namespaced NOLINT(ulsan-coro-capture) spelling counts; a bare
# NOLINT(coro-capture) is a clang-tidy token and suppresses nothing here.
CORO_ALIAS = "coro-capture"
CORO_ALIAS_TARGETS = ("coro-schedule-capture", "coro-iife-capture")


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str
    excerpt: str = ""
    status: str = "new"  # new | suppressed

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
    errors: list[Finding] = field(default_factory=list)  # unused/malformed

    @property
    def failed(self) -> bool:
        return bool(self.new or self.errors)

    def all_findings(self) -> list[Finding]:
        return self.new + self.suppressed + self.errors


def run(paths: list[Path], rule_names: list[str] | None = None) -> RunResult:
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
    return result
