"""ulsan-wire-hygiene: wire-format structs pin their layout with a
static_assert.

Every struct defined in the wire-format translation units — EMP's frame
header (``src/emp/wire.hpp``/``.cpp``), TCP-lite's segment
(``src/tcp/segment.hpp``/``.cpp``) and the substrate's control message,
connection request and data header (``src/sockets/control.hpp``/``.cpp``)
— must be followed, within a few lines, by a ``static_assert`` that
mentions the struct by name (typically ``sizeof(Name)`` or a per-field
size sum against the wire-header constant).  Growing one of these structs without consciously revisiting
the encoder is exactly how a wire format drifts: the assert turns the
silent drift into a compile error at the definition site.
"""

from __future__ import annotations

import re

from ..framework import Finding, RunContext, rule
from ..source import SourceFile, matching_brace

# (parent directory, file stem) pairs this rule applies to.
WIRE_FILES = {("emp", "wire"), ("tcp", "segment"), ("sockets", "control")}

STRUCT_DEF = re.compile(r"\bstruct\s+([A-Za-z_]\w*)\s*(?:final\s*)?"
                        r"(?::[^{;]*)?\{")
# How far below the closing brace the assert may sit (lines).
ADJACENT_LINES = 10


def applies(sf: SourceFile) -> bool:
    p = sf.path
    return (p.parent.name, p.stem) in WIRE_FILES


@rule(
    "wire-hygiene",
    "wire-format struct without an adjacent static_assert on its size",
    __doc__,
)
def check(sf: SourceFile, ctx: RunContext) -> list[Finding]:
    if not applies(sf):
        return []
    text = sf.text
    findings: list[Finding] = []
    for m in STRUCT_DEF.finditer(text):
        name = m.group(1)
        body_open = text.index("{", m.start())
        body_close = matching_brace(text, body_open)
        close_line = sf.line_of(body_close - 1)
        window_start = body_open
        # End offset of the adjacency window: N lines past the close.
        lines = text.splitlines(keepends=True)
        end_line = min(close_line + ADJACENT_LINES, len(lines))
        window_end = sum(len(ln) for ln in lines[:end_line])
        window = text[window_start:window_end]
        asserted = re.search(
            rf"static_assert\s*\([^;]*\b{re.escape(name)}\b", window)
        if asserted is None:
            lineno = sf.line_of(m.start())
            findings.append(Finding(
                rule="wire-hygiene", path=sf.display, line=lineno,
                message=f"wire-format struct '{name}' has no adjacent "
                        f"static_assert on its size — pin the layout "
                        f"(e.g. static_assert(sizeof({name}) == ...)) so "
                        f"growing it forces a conscious wire-format "
                        f"revision",
                excerpt=sf.line_text(lineno)))
    return findings
