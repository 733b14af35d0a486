#!/usr/bin/env python3
"""Compare two benchmark result sets against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py A.json B.json

A and B are files written by `run.py --out` (A is the reference, B the
candidate).  For each (end-to-end metric, workload) this prints both
medians, each side's quartile spread as a share of its median, and a
verdict:

  ok          B's median is no worse than A's by more than the bound
  regressed   B's median is worse than A's by more than the bound
  unresolved  a spread exceeds the bound, so the medians cannot tell; the
              exception is every B run reading better than every A run,
              which is reported ok

A side's values are its per-run medians when it holds two or more runs of
the workload (`run.py --runs N`), else the per-rep samples of its one run.
Runs of the same (workload, seed) on both sides must also agree exactly on
their simulated outputs and metric counts.  Exit status: 1 if anything
regressed or a deterministic output differs, else 0.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def values_by_workload(result_set, metric):
    runs = defaultdict(list)
    for r in result_set["runs"]:
        if r.get("end_to_end"):
            runs[r["workload"]].append(r)
    out = {}
    for w, rs in runs.items():
        if len(rs) >= 2:
            out[w] = [r["end_to_end"][metric]["value"] for r in rs]
        else:
            out[w] = list(rs[0]["samples"][metric])
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def verdict(a, b, bound, better):
    """(verdict, relative change of B's median against A's)."""
    med_a, spread_a = summary(a)
    med_b, spread_b = summary(b)
    change = (med_b - med_a) / med_a if med_a else 0.0
    worse = change if better == "lower" else -change
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if max(spread_a, spread_b) > bound:
        return ("ok" if all_better else "unresolved"), change
    return ("regressed" if worse > bound else "ok"), change


def deterministic_mismatches(a, b):
    index = {(r["workload"], r["seed"]): r for r in a["runs"]}
    bad = []
    for r in b["runs"]:
        other = index.get((r["workload"], r["seed"]))
        if other is None:
            continue
        for key in ("sim", "counts"):
            if r.get(key) != other.get(key):
                bad.append(f"{r['workload']} seed {r['seed']}: {key} differ")
    return bad


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
    spec = json.loads(SPEC_PATH.read_text())
    counts = defaultdict(int)
    print(f"{'workload':<16}{'metric':<15}{'A median':>12}{'spread':>8}"
          f"{'B median':>12}{'spread':>8}{'change':>9}{'bound':>7}  verdict")
    for m in spec["end_to_end"]:
        va = values_by_workload(a, m["name"])
        vb = values_by_workload(b, m["name"])
        for w in [x["name"] for x in spec["workloads"]]:
            if w not in va or w not in vb:
                continue
            v, change = verdict(va[w], vb[w], m["bound"], m["better"])
            counts[v] += 1
            med_a, sp_a = summary(va[w])
            med_b, sp_b = summary(vb[w])
            print(f"{w:<16}{m['name']:<15}{med_a:>12.5g}{sp_a:>8.1%}"
                  f"{med_b:>12.5g}{sp_b:>8.1%}{change:>+9.1%}"
                  f"{m['bound']:>7.0%}  {v}")
    mismatches = deterministic_mismatches(a, b)
    for msg in mismatches:
        print(f"DETERMINISM: {msg}")
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())) +
          f"; {len(mismatches)} deterministic mismatches")
    return 1 if counts["regressed"] or mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
