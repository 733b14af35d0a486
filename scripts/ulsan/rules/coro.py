"""Coroutine-lifetime rules.

All resumptions in this codebase are routed through the event queue, so a
callback or coroutine body almost always runs after the frame that created
it has returned.  Three rules cover the use-after-free shapes the type
system cannot:

* **ulsan-coro-schedule-capture** — a lambda with by-reference captures
  passed to an entry point that defers it through the event queue:
  ``Engine::schedule_at`` (the serial-stream overload too) and
  ``schedule_after``, ``SerialResource::run``, ``NicDevice::fw_tx``,
  ``fw_rx`` and ``dma_transfer``, and ``ShardGroup::post_remote``.  The
  callback fires long after the scheduling frame returned; a reference
  capture of a stack variable dangles by then.  ``run`` is matched only
  as a member call (``.run(`` or ``->run(``).

* **ulsan-coro-iife-capture** — an immediately-invoked lambda coroutine
  (body contains ``co_await``/``co_return``/``co_yield``) with any
  captures.  The closure object owning the captures is a temporary that
  dies at the end of the full expression while the coroutine frame lives
  on; every capture access after the first suspension is a use-after-free.

* **ulsan-coro-ref-across-await** — a reference (or pointer) obtained
  *into a container element* — subscript, ``.front()``/``.back()``,
  ``it->second``, or ``&local`` — that is used again after a later
  ``co_await`` in the same scope.  The container can mutate while the
  coroutine is suspended (another task runs), invalidating the element.
  References returned by plain calls are not flagged: returning a
  reference to node-stable state is this codebase's accessor idiom.

Suppress with ``// NOLINT(ulsan-coro-capture)`` (covers the first two) or
the specific rule name.
"""

from __future__ import annotations

import re

from ..framework import Finding, RunContext, rule
from ..source import (SourceFile, has_ref_capture, matching_brace,
                      matching_paren, LAMBDA_INTRO)

# Entry points that defer a callable through the event queue.  `run` is
# SerialResource::run; only the member-call form is matched, so a free
# function or Engine::run() (which takes no callable) stays out of scope.
SCHEDULE_CALL = re.compile(
    r"(?:\b(?P<name>schedule_at|schedule_after|fw_tx|fw_rx|dma_transfer"
    r"|post_remote)|(?:\.|->)\s*(?P<member>run))\s*\(")
CORO_KEYWORD = re.compile(r"\bco_(await|return|yield)\b")
CO_AWAIT = re.compile(r"\bco_await\b")

REF_DECL = re.compile(
    r"(?:^|[;{}()])\s*(?:const\s+)?(?:auto|[A-Za-z_][\w:]*(?:<[^;<>]*>)?)"
    r"\s*&\s*([A-Za-z_]\w*)\s*=\s*([^;]+);")
PTR_DECL = re.compile(
    r"(?:^|[;{}()])\s*(?:auto|[A-Za-z_][\w:]*(?:<[^;<>]*>)?)"
    r"\s*\*\s*(?:const\s+)?([A-Za-z_]\w*)\s*=\s*(&\s*[A-Za-z_]\w*)\s*[;,]")

# Initializers that hand out a reference into a container element.
ELEMENT_INIT = re.compile(
    r"\[[^\]]*\]"                 # subscript
    r"|\.\s*(?:front|back|top|at)\s*\("   # element accessors
    r"|->\s*(?:second|first)\b"   # iterator payload
    r"|^\s*\*")                   # iterator deref


def _finding(sf: SourceFile, rule_name: str, idx: int,
             message: str) -> Finding:
    lineno = sf.line_of(idx)
    return Finding(rule=rule_name, path=sf.display, line=lineno,
                   message=message, excerpt=sf.line_text(lineno))


@rule(
    "coro-schedule-capture",
    "by-reference lambda capture passed to a deferred-callback entry point",
    __doc__,
)
def check_schedule(sf: SourceFile, ctx: RunContext) -> list[Finding]:
    text = sf.text
    findings: list[Finding] = []
    for call in SCHEDULE_CALL.finditer(text):
        open_paren = call.end() - 1
        close = matching_paren(text, open_paren)
        arg_text = text[open_paren:close]
        for lam in LAMBDA_INTRO.finditer(arg_text):
            if has_ref_capture(lam.group(1)):
                findings.append(_finding(
                    sf, "coro-schedule-capture",
                    open_paren + lam.start(),
                    f"lambda with by-reference capture passed to "
                    f"{call.group('name') or call.group('member')}() — "
                    f"the callback outlives the "
                    f"scheduling frame (use-after-free across suspension "
                    f"points)"))
    return findings


@rule(
    "coro-iife-capture",
    "immediately-invoked lambda coroutine with captures",
    __doc__,
)
def check_iife(sf: SourceFile, ctx: RunContext) -> list[Finding]:
    text = sf.text
    findings: list[Finding] = []
    for lam in LAMBDA_INTRO.finditer(text):
        captures = lam.group(1).strip()
        if not captures:
            continue
        body_open = lam.end() - 1
        body_close = matching_brace(text, body_open)
        if not CORO_KEYWORD.search(text[body_open:body_close]):
            continue
        after = text[body_close:body_close + 16].lstrip()
        if not after.startswith("("):
            continue
        findings.append(_finding(
            sf, "coro-iife-capture", lam.start(),
            f"immediately-invoked lambda coroutine with captures "
            f"[{captures}] — the closure object dies at the end of the "
            f"expression; captures dangle after the first suspension "
            f"point"))
    return findings


@rule(
    "coro-ref-across-await",
    "reference/pointer into a container element used across co_await",
    __doc__,
)
def check_ref_across_await(sf: SourceFile, ctx: RunContext) -> list[Finding]:
    text = sf.text
    findings: list[Finding] = []

    def scan(decl_end: int, name: str, idx: int, what: str) -> None:
        scope_end = sf.enclosing_block_end(idx)
        await_m = CO_AWAIT.search(text, decl_end, scope_end)
        if await_m is None:
            return
        use = re.compile(rf"\b{re.escape(name)}\b")
        if use.search(text, await_m.end(), scope_end) is None:
            return
        findings.append(_finding(
            sf, "coro-ref-across-await", idx,
            f"{what} '{name}' is used after a co_await — the referent can "
            f"be invalidated while this coroutine is suspended; re-fetch "
            f"it after resuming or copy the value"))

    for m in REF_DECL.finditer(text):
        init = m.group(2).strip()
        if not ELEMENT_INIT.search(init):
            continue
        name_idx = m.start(1)
        scan(m.end(), m.group(1), name_idx, "reference into a container")
    for m in PTR_DECL.finditer(text):
        scan(m.end(), m.group(1), m.start(1), "pointer to a local")
    return findings
