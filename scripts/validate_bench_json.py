#!/usr/bin/env python3
"""Validate BENCH_*.json files emitted by the bench harness.

Checks the ulsocks.bench.v1 schema without third-party dependencies:

  {
    "schema": "ulsocks.bench.v1",
    "figure": str, "title": str,
    "points": [{"series": str, "stack": str, "config": str, "x": str,
                "value": number, "unit": str,
                "metrics": {str: int, ...}}, ...]
  }

Usage: validate_bench_json.py FILE [FILE...]
Exits non-zero, naming every violation, if any file fails.
"""

import json
import sys

SCHEMA = "ulsocks.bench.v1"
POINT_FIELDS = {
    "series": str,
    "stack": str,
    "config": str,
    "x": str,
    "unit": str,
    "metrics": dict,
}
STACKS = {"substrate", "tcp", "emp"}


def validate(path):
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]
    if doc.get("schema") != SCHEMA:
        err(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for field in ("figure", "title"):
        if not isinstance(doc.get(field), str) or not doc.get(field):
            err(f"missing or empty {field!r}")

    points = doc.get("points")
    if not isinstance(points, list):
        return errors + [f"{path}: 'points' is not a list"]
    if not points:
        err("'points' is empty")

    for i, p in enumerate(points):
        where = f"points[{i}]"
        if not isinstance(p, dict):
            err(f"{where} is not an object")
            continue
        for field, ftype in POINT_FIELDS.items():
            if not isinstance(p.get(field), ftype):
                err(f"{where}.{field} missing or not {ftype.__name__}")
        if not isinstance(p.get("value"), (int, float)) or isinstance(
            p.get("value"), bool
        ):
            err(f"{where}.value missing or not a number")
        if isinstance(p.get("stack"), str) and p["stack"] not in STACKS:
            err(f"{where}.stack {p['stack']!r} not one of {sorted(STACKS)}")
        metrics = p.get("metrics")
        if isinstance(metrics, dict):
            for k, v in metrics.items():
                if not isinstance(k, str) or not isinstance(v, int) or isinstance(v, bool):
                    err(f"{where}.metrics[{k!r}] is not a str->int entry")
                    break
            # Every run registers the global host-copy tally; a point
            # without it came from an engine that bypassed the run scope's
            # registry snapshot.
            if "host/bytes_copied" not in metrics:
                err(f"{where}.metrics missing required 'host/bytes_copied'")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_errors = []
    for path in argv[1:]:
        all_errors.extend(validate(path))
    for e in all_errors:
        print(f"ERROR: {e}", file=sys.stderr)
    if not all_errors:
        print(f"OK: {len(argv) - 1} bench result file(s) valid")
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
