#!/usr/bin/env python3
"""Gate simulator host throughput against the committed baseline.

Compares the wall-clock throughput points — events/sec ("evps") and the
C10K workload's requests/sec ("reqps") — of a freshly produced
BENCH_hostperf.json with bench/baselines/BENCH_hostperf.json and fails if
any scenario regressed by more than the allowed fraction (default 25%).

The threshold is deliberately loose: the baseline is recorded on one
machine and CI runs on another, so this catches "someone made the hot path
2x slower", not single-digit drift.

A baseline scenario missing from the current run is an ERROR (a silently
dropped workload is how perf gates rot); pass --allow-missing while a
scenario is being intentionally retired.  Scenarios present only in the
current run are reported with the baseline-refresh command but do not fail
the gate — the refreshed baseline then gates them from the next run on.

Beyond wall-clock, the per-scenario `host/bytes_copied` counter is gated
too: it is deterministic (a pure function of the workload), so the current
value may not exceed the baseline by more than 10% — that would mean a
copy crept back into the zero-copy data path.

The sharded engine has its own gate: the scale_web_16hosts scenario is
recorded at 1 shard and 4 shards, and the 4-shard point must reach at
least 0.7x the 1-shard events/sec.  ShardGroup runs every window on one
thread, so the 4-shard point measures what the epoch barriers cost (its
epochs hold ~4 events on average); the gate bounds that cost.

The C10K scenario has a structural gate of its own: scale_c10k records the
same ~1000-connection traffic served by the ring server (one parked reap
pump) and the blocking server (one parked coroutine per connection), and
the ring point must serve at least as many requests per wall second as the
blocking point — the batched submit/reap API exists to beat the thundering
herd, so losing to it is a regression in the ring path, not noise.

Epoch counts are reported per scenario: each evps point carries its
"shard/epochs" metric.

The shard ratio bound was set below the spread of full runs on a 4-vCPU
host, with reps taken round-robin across scenarios (bench/hostperf).
Neither of the two ratio gates needs more than one core, so both apply on
every host.

Usage: check_hostperf.py CURRENT [BASELINE] [--min-ratio R] [--allow-missing]
  CURRENT    BENCH_hostperf.json from the build under test
  BASELINE   committed reference (default bench/baselines/BENCH_hostperf.json)
  R          minimum allowed current/baseline ratio (default 0.75)
"""

import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, "bench", "baselines", "BENCH_hostperf.json",
)
DEFAULT_MIN_RATIO = 0.75
# bytes_copied is deterministic per workload; allow slack only for
# smoke-vs-full sizing mistakes to surface loudly, not for drift.
BYTES_COPIED_MAX_RATIO = 1.10
# Minimum 4-shard/1-shard events/sec ratio: sharding may cost at most 30%
# against serial.  Three full runs on a 4-vCPU host measured 0.76-0.94;
# the bound sits below that spread.
SHARD_SERIES = "scale_web_16hosts"
MIN_SHARD_RATIO = 0.7
# The completion-ring server must at least match the blocking server on
# identical C10K traffic (requests per wall second).
C10K_SERIES = "scale_c10k"


def evps_points(path):
    """(series, x) -> (value, bytes_copied or None, epochs or None).

    Covers every wall-clock throughput unit: simulator events/sec ("evps")
    and the C10K scenarios' application requests/sec ("reqps") — both gate
    identically against the baseline.
    """
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    points = {}
    for p in doc.get("points", []):
        if p.get("unit") in ("evps", "reqps"):
            metrics = p.get("metrics", {})
            copied = metrics.get("host/bytes_copied")
            epochs = metrics.get("shard/epochs")
            points[(p["series"], p["x"])] = (float(p["value"]), copied, epochs)
    return points


def check_shard_ratio(current):
    """Returns a list of failure tuples (possibly empty)."""
    one = current.get((SHARD_SERIES, "1shard"))
    four = current.get((SHARD_SERIES, "4shards"))
    if one is None or four is None:
        return []
    ratio = four[0] / one[0] if one[0] > 0 else float("inf")
    status = "OK " if ratio >= MIN_SHARD_RATIO else "FAIL"
    print(f"{status} {SHARD_SERIES:<16} 4-shard/1-shard evps {ratio:5.2f}x "
          f"(required >= {MIN_SHARD_RATIO:.2f}x)")
    if ratio < MIN_SHARD_RATIO:
        return [(SHARD_SERIES, "4shards-vs-serial", ratio)]
    return []


def check_c10k_ring(current):
    """Ring server must serve >= the blocking server's reqps."""
    ring = current.get((C10K_SERIES, "ring"))
    blocking = current.get((C10K_SERIES, "blocking"))
    if ring is None or blocking is None:
        return []
    ratio = ring[0] / blocking[0] if blocking[0] > 0 else float("inf")
    status = "OK " if ratio >= 1.0 else "FAIL"
    print(f"{status} {C10K_SERIES:<16} ring/blocking reqps ratio {ratio:5.2f} "
          f"(required >= 1.00)")
    if ratio < 1.0:
        return [(C10K_SERIES, "ring-vs-blocking", ratio)]
    return []


def report_epochs(current):
    """Print the epoch count of every evps point that recorded one."""
    for (series, x), (_, _, epochs) in sorted(current.items()):
        if epochs is not None:
            print(f"     {series:<16} x={x:<14} shard/epochs {epochs}")


def main(argv):
    allow_missing = "--allow-missing" in argv
    args = [a for a in argv[1:] if not a.startswith("--")]
    min_ratio = DEFAULT_MIN_RATIO
    for i, a in enumerate(argv):
        if a == "--min-ratio":
            min_ratio = float(argv[i + 1])
            args = [x for x in args if x != argv[i + 1]]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    current_path = args[0]
    baseline_path = args[1] if len(args) > 1 else DEFAULT_BASELINE

    try:
        current = evps_points(current_path)
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"ERROR: cannot read current results {current_path}: {e}",
              file=sys.stderr)
        return 1
    try:
        baseline = evps_points(baseline_path)
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"WARNING: no usable baseline at {baseline_path} ({e}); "
              "skipping the host-perf gate", file=sys.stderr)
        return 0

    failures = []
    for key, (base, base_copied, _) in sorted(baseline.items()):
        series, x = key
        if key not in current:
            msg = f"scenario {series}/{x} missing from current run"
            if allow_missing:
                print(f"WARNING: {msg} (--allow-missing)")
            else:
                print(f"FAIL {msg}")
                failures.append((series, x, 0.0))
            continue
        cur, cur_copied, _ = current[key]
        ratio = cur / base if base > 0 else float("inf")
        status = "OK " if ratio >= min_ratio else "FAIL"
        print(f"{status} {series:<16} x={x:<12} "
              f"baseline {base / 1e6:8.2f} Mev/s   "
              f"current {cur / 1e6:8.2f} Mev/s   ratio {ratio:5.2f}")
        if ratio < min_ratio:
            failures.append((series, x, ratio))
        if (base_copied and cur_copied is not None
                and cur_copied > base_copied * BYTES_COPIED_MAX_RATIO):
            print(f"FAIL {series:<16} x={x:<12} host/bytes_copied "
                  f"{cur_copied} exceeds baseline {base_copied} by more "
                  f"than {(BYTES_COPIED_MAX_RATIO - 1) * 100:.0f}%")
            failures.append((series, x, cur_copied / base_copied))
    for key in sorted(set(current) - set(baseline)):
        print(f"NOTE: new scenario {key[0]}/{key[1]} has no baseline; "
              f"refresh with: cp {current_path} {baseline_path}")
    failures.extend(check_shard_ratio(current))
    failures.extend(check_c10k_ring(current))
    report_epochs(current)

    if failures:
        print(f"\nERROR: {len(failures)} host-perf gate failure(s)",
              file=sys.stderr)
        return 1
    print("host-perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
