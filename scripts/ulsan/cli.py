"""Command-line interface for ulsan (``python3 -m ulsan``)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .framework import all_rules, run


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python3 -m ulsan",
        description="Repo-specific static analysis for ulsocks: "
                    "determinism, shard affinity, coroutine lifetime, "
                    "layering, wire hygiene.")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to scan (default: src)")
    p.add_argument("--rules", metavar="LIST",
                   help="comma-separated rule names (without the ulsan- "
                        "prefix) to run; default: all")
    p.add_argument("--list-rules", action="store_true",
                   help="list registered rules and exit")
    p.add_argument("--explain", metavar="RULE",
                   help="print a rule's full documentation and exit")
    p.add_argument("--json", metavar="FILE",
                   help="write findings as JSON ('-' for stdout)")
    p.add_argument("--quiet", action="store_true",
                   help="print findings only, no summary line")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    registry = all_rules()

    if args.list_rules:
        width = max(len(n) for n in registry)
        for name in sorted(registry):
            print(f"ulsan-{name:<{width}}  {registry[name].summary}")
        return 0

    if args.explain:
        name = args.explain.removeprefix("ulsan-")
        if name not in registry:
            print(f"ulsan: unknown rule '{args.explain}' "
                  f"(see --list-rules)", file=sys.stderr)
            return 2
        r = registry[name]
        print(f"ulsan-{r.name}: {r.summary}\n")
        print((r.doc or "").strip())
        return 0

    rule_names = None
    if args.rules:
        rule_names = [n.strip().removeprefix("ulsan-")
                      for n in args.rules.split(",") if n.strip()]

    paths = [Path(p) for p in args.paths]
    try:
        result = run(paths, rule_names=rule_names)
    except FileNotFoundError as e:
        print(f"ulsan: error: {e}", file=sys.stderr)
        return 2
    except KeyError as e:
        print(f"ulsan: error: {e.args[0]}", file=sys.stderr)
        return 2

    for f in result.new + result.errors:
        print(f.render())

    if args.json:
        payload = {
            "tool": "ulsan",
            "version": __version__,
            "files_scanned": result.files_scanned,
            "rules": sorted(f"ulsan-{n}" for n in
                            (rule_names or registry.keys())),
            "findings": [f.as_json() for f in result.all_findings()],
            "counts": {
                "new": len(result.new),
                "suppressed": len(result.suppressed),
                "errors": len(result.errors),
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            Path(args.json).write_text(text)

    if not args.quiet:
        bits = [f"{result.files_scanned} files"]
        if result.suppressed:
            bits.append(f"{len(result.suppressed)} suppressed")
        if result.failed:
            print(f"\nulsan: FAILED — {len(result.new)} new finding(s), "
                  f"{len(result.errors)} suppression error(s) "
                  f"({', '.join(bits)})")
        else:
            print(f"ulsan: clean ({', '.join(bits)})")
    return 1 if result.failed else 0
