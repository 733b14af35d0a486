"""Lexical utilities shared by every ulsan rule.

ulsan deliberately works on *stripped token text*, not an AST.  Comments,
string and char literals are blanked in place (newlines and byte offsets
preserved), so regex matches report accurate line numbers and never fire
inside a comment.  Brace/paren/angle matchers give rules just enough
structure to reason about lambda bodies, call argument lists and template
parameter lists without a real parser.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from pathlib import Path


def strip_comments_and_strings(text: str) -> str:
    """Blank comments, string and char literals, preserving newlines and
    byte offsets.  Suppression comments are scanned separately on the
    original text, so nothing survives here — rules only ever see code."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == "'" and i > 0 and (text[i - 1].isalnum()
                                     or text[i - 1] == "_"):
            out.append(c)  # digit separator (65'535), not a char literal
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            inner = "".join(ch if ch == "\n" else " "
                            for ch in text[i + 1:j - 1])
            out.append(quote + inner + quote if j - i >= 2 else text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def matching_brace(text: str, open_idx: int) -> int:
    """Index just past the brace matching ``text[open_idx] == '{'``."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def matching_paren(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def matching_angle(text: str, open_idx: int) -> int:
    """Index just past the ``>`` matching ``text[open_idx] == '<'``.
    ``>>`` closes two levels (C++11); parenthesized sub-expressions are
    skipped so a ``<`` used as less-than inside a default argument cannot
    desynchronize the count."""
    depth = 0
    i = open_idx
    n = len(text)
    while i < n:
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c == "(":
            i = matching_paren(text, i)
            continue
        elif c in ";{":
            break  # ran off the declaration: not a template after all
        i += 1
    return len(text)


# A lambda introducer: capture list, optional parameter list, anything up
# to the body's opening brace.  (Same pattern the original coro lint used.)
LAMBDA_INTRO = re.compile(r"\[([^\[\]]*)\]\s*(?:\([^)]*\)\s*)?[^;{]*\{")

IDENT_TAIL = re.compile(r"([A-Za-z_]\w*)\s*$")


def has_ref_capture(capture_list: str) -> bool:
    for item in capture_list.split(","):
        item = item.strip()
        if item == "&" or (item.startswith("&")
                           and not item.startswith("&&")):
            return True
    return False


def capture_items(capture_list: str) -> list[str]:
    return [it.strip() for it in capture_list.split(",") if it.strip()]


@dataclass
class SourceFile:
    """One parsed source file: original text plus the stripped shadow."""

    path: Path
    original: str = field(repr=False)
    text: str = field(repr=False)  # comments/strings blanked
    _line_starts: list[int] = field(default_factory=list, repr=False)

    @classmethod
    def load(cls, path: Path) -> "SourceFile":
        original = path.read_text(errors="replace")
        return cls(path=path, original=original,
                   text=strip_comments_and_strings(original))

    def __post_init__(self) -> None:
        starts = [0]
        for i, c in enumerate(self.original):
            if c == "\n":
                starts.append(i + 1)
        self._line_starts = starts

    @property
    def display(self) -> str:
        return self.path.as_posix()

    def line_of(self, idx: int) -> int:
        """1-based line number of byte offset ``idx``."""
        return bisect.bisect_right(self._line_starts, idx)

    def line_text(self, lineno: int) -> str:
        lines = self.original.splitlines()
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""

    def stripped_line(self, lineno: int) -> str:
        lines = self.text.splitlines()
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1]
        return ""

    def enclosing_block_end(self, idx: int) -> int:
        """End offset (exclusive) of the innermost ``{}`` block containing
        ``idx``; end of file if ``idx`` is at namespace/file scope."""
        stack: list[int] = []
        for i, c in enumerate(self.text):
            if i >= idx:
                break
            if c == "{":
                stack.append(i)
            elif c == "}" and stack:
                stack.pop()
        if not stack:
            return len(self.text)
        return matching_brace(self.text, stack[-1]) - 1
