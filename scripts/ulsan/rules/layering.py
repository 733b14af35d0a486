"""ulsan-layering: the include DAG between src/ libraries is enforced.

The paper's stack is a strict layering — applications over sockets over
the transport protocols over the fabric over the event engine — and the
simulator mirrors it one directory per layer:

    sim <- net <- nic <- {oskernel} <- {emp, tcp} <- sockets <- apps

with two utility layers importable from everywhere:

* ``check/`` (invariants) includes nothing but itself;
* ``obs/`` (metrics/tracing) may additionally see ``sim/time.hpp`` —
  observations are stamped with simulated time — but nothing else from
  sim; ``sim`` in turn owns the registries and may include ``obs``.

``oskernel`` is the user-visible OS surface: alongside processes and the
blocking ``SocketApi``, it declares the completion-ring interface
(``oskernel/ring.hpp`` — SQE/CQE records and the abstract ``OpRing``).
Those are interface-only headers; the stacks above implement them
(``sockets/ring.cpp``), so the dependency arrow still points downward —
``sockets`` includes ``oskernel``, never the reverse.

Concretely, each importer directory may include only the directories
listed for it below (SimBricks-style interface discipline: a lower layer
that reaches up stops being composable, and a sideways include between
``emp`` and ``tcp`` would entangle the two stacks the paper compares).
"""

from __future__ import annotations

import re

from ..framework import Finding, RunContext, rule
from ..source import SourceFile

LAYERS = ("sim", "obs", "check", "net", "nic", "oskernel", "emp", "tcp",
          "sockets", "apps")

ALLOWED: dict[str, set[str]] = {
    "check": {"check"},
    "obs": {"obs", "check"},  # + the sim/time.hpp exception below
    "sim": {"sim", "check", "obs"},
    "net": {"net", "sim", "check", "obs"},
    "nic": {"nic", "net", "sim", "check", "obs"},
    "oskernel": {"oskernel", "net", "sim", "check", "obs"},
    "emp": {"emp", "nic", "net", "sim", "check", "obs"},
    "tcp": {"tcp", "nic", "net", "oskernel", "sim", "check", "obs"},
    "sockets": {"sockets", "emp", "tcp", "oskernel", "nic", "net", "sim",
                "check", "obs"},
    "apps": set(LAYERS),
}

# File-granular exceptions: (importer layer, exact include path).
FILE_EXCEPTIONS = {("obs", "sim/time.hpp")}

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def layer_of(sf: SourceFile) -> str | None:
    parts = sf.path.as_posix().split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "src" and parts[i + 1] in ALLOWED:
            return parts[i + 1]
    return None


@rule(
    "layering",
    "include edge violates the sim <- net <- {emp,tcp} <- sockets <- apps "
    "DAG",
    __doc__,
)
def check(sf: SourceFile, ctx: RunContext) -> list[Finding]:
    importer = layer_of(sf)
    if importer is None:
        return []
    findings: list[Finding] = []
    # Scan the original text: include lines never contain code, and the
    # stripped shadow blanks the quoted path.
    for m in INCLUDE.finditer(sf.original):
        target = m.group(1)
        target_layer = target.split("/", 1)[0]
        if target_layer not in ALLOWED:
            continue  # not an intra-repo layer include
        if target_layer in ALLOWED[importer]:
            continue
        if (importer, target) in FILE_EXCEPTIONS:
            continue
        lineno = sf.line_of(m.start())
        findings.append(Finding(
            rule="layering", path=sf.display, line=lineno,
            message=f"'{importer}' may not include '{target_layer}' "
                    f"(allowed: "
                    f"{', '.join(sorted(ALLOWED[importer]))}) — the "
                    f"layer DAG is sim <- net <- nic <- oskernel <- "
                    f"{{emp, tcp}} <- sockets <- apps, with check/obs "
                    f"importable everywhere",
            excerpt=sf.line_text(lineno)))
    return findings
