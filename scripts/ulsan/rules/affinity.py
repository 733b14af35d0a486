"""ulsan-shard-affinity: pool and engine handles must not cross shards.

Every shard owns its engine, and every host owns its frame and slice pools
(DESIGN.md §11).  The one sanctioned crossing is ``net::Link``'s
cross-shard transmit path, which hands the frame itself to
``ShardGroup::post_remote``; the frame returns to its own pool on whichever
shard drops it.

Two shapes are flagged:

1. The cross-shard primitive ``post_remote(`` anywhere outside the
   cross-shard transmit path (``src/net/link.cpp``) and the shard runtime
   itself (``src/sim/shard.hpp``/``.cpp``).  New cross-shard edges must be
   designed, not sprinkled: each post must land at least the group's
   lookahead after its source's clock, and a link's wire costs are what
   make that true.

2. A lambda handed to ``post_remote`` that smuggles shard-local state:
   any by-reference or ``this`` capture, or a capture whose name looks
   like a pool or engine handle.  ``post_remote`` schedules the callback
   straight into the destination shard's engine, and it runs there in a
   later step, so such a capture reaches into the source shard's state
   from another shard's event.  This check applies *inside* the
   sanctioned files too — the cross-shard transmit path must stay clean
   (value captures of the destination sink and the frame only).
"""

from __future__ import annotations

import re

from ..framework import Finding, RunContext, rule
from ..source import (SourceFile, capture_items, has_ref_capture,
                      matching_paren, LAMBDA_INTRO)

ALLOWED_SUFFIXES = ("src/net/link.cpp", "src/sim/shard.hpp",
                    "src/sim/shard.cpp")
POST_REMOTE = re.compile(r"\bpost_remote\s*\(")
HANDLE_NAME = re.compile(r"(?:^|_)(?:pool|eng|engine)s?_?$|pool_?$",
                         re.IGNORECASE)


def _finding(sf: SourceFile, idx: int, message: str) -> Finding:
    lineno = sf.line_of(idx)
    return Finding(rule="shard-affinity", path=sf.display, line=lineno,
                   message=message, excerpt=sf.line_text(lineno))


def _smuggled(capture_list: str) -> str | None:
    for item in capture_items(capture_list):
        if item == "this":
            return "this"
        name = item.lstrip("&").strip()
        if "=" in name:
            name = name.split("=", 1)[0].strip()
        if HANDLE_NAME.search(name):
            return item
    return None


@rule(
    "shard-affinity",
    "pool/engine handles or cross-shard primitives outside the sanctioned "
    "cross-shard transmit path",
    __doc__,
)
def check(sf: SourceFile, ctx: RunContext) -> list[Finding]:
    text = sf.text
    findings: list[Finding] = []
    sanctioned = any(sf.display.endswith(s) for s in ALLOWED_SUFFIXES)

    if not sanctioned:
        for m in POST_REMOTE.finditer(text):
            findings.append(_finding(
                sf, m.start(),
                "post_remote() outside net::Link's cross-shard transmit path "
                "— cross-shard edges are designed in src/net/link.cpp, "
                "nowhere else"))

    # Capture hygiene on every post_remote callback, sanctioned or not.
    for call in POST_REMOTE.finditer(text):
        open_paren = call.end() - 1
        close = matching_paren(text, open_paren)
        for lam in LAMBDA_INTRO.finditer(text, open_paren, close):
            caps = lam.group(1)
            if has_ref_capture(caps):
                findings.append(_finding(
                    sf, lam.start(),
                    "by-reference capture in a post_remote callback — the "
                    "callback runs later on the destination shard's engine; "
                    "captured referents belong to the source shard"))
                continue
            bad = _smuggled(caps)
            if bad is not None:
                findings.append(_finding(
                    sf, lam.start(),
                    f"capture '{bad}' in a post_remote callback smuggles a "
                    f"shard-local handle across the engine boundary — the "
                    f"callback runs later on the destination shard's "
                    f"engine (DESIGN.md §11)"))
    return findings
