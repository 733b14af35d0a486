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

The scale_web_hotspot series gates live shard rebalancing: the causal
digest must be identical on every point (migration may move work between
shards, never change the simulation), the greedy rebalance point must cut
the per-shard executed-event imbalance at least 2x vs static placement
while running no more barrier epochs, and must keep at least 0.7x the
static point's events/sec: with every window on one thread, balancing
load across shards buys no wall clock, so the gate bounds what
rebalancing costs rather than asking for a speedup.

Both ratio bounds were set below the spread of full runs on a 4-vCPU
host, with reps taken round-robin across scenarios (bench/hostperf).
Taking each scenario's reps back to back instead read greedy/static as
low as 0.62 in the same code, because host drift landed on one side.
None of the three ratio gates needs more than one core, so all of them
apply on every host.

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
# Skewed workload measured with rebalancing off and on: greedy migration
# must cut the per-shard executed-event imbalance at least this factor,
# run no more barrier epochs, leave the causal digest untouched, and cost
# no more than 30% wall-clock.  Three full runs on a 4-vCPU host measured
# greedy/static at 0.85-0.98 (each point ~50 ms, best of 3); the bound
# sits below that spread.
HOTSPOT_SERIES = "scale_web_hotspot"
MIN_HOTSPOT_RATIO = 0.7
MIN_IMBALANCE_CUT = 2.0


def evps_points(path):
    """(series, x) -> (value, bytes_copied or None, epochs or None, metrics).

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
            points[(p["series"], p["x"])] = (
                float(p["value"]), copied, epochs, metrics)
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


def check_hotspot_rebalance(current):
    """Structural + wall-clock gates on the skewed-workload rebalance pair.

    Determinism first: the causal digest must be identical on every
    scale_web_hotspot point present (1/2/4 shards, rebalance off and on) —
    live migration may move work, never change it.  Then the greedy point
    must cut the per-shard executed-event imbalance at least
    MIN_IMBALANCE_CUT vs static placement without running more barrier
    epochs.  Digest, imbalance and epoch counts are deterministic; the
    >= MIN_HOTSPOT_RATIO events/sec ratio is the one wall-clock gate.
    """
    failures = []
    hotspot = {x: v for (series, x), v in current.items()
               if series == HOTSPOT_SERIES}
    if not hotspot:
        return []
    digests = {x: m.get("shard/causal_digest")
               for x, (_, _, _, m) in hotspot.items()}
    known = {x: d for x, d in digests.items() if d is not None}
    if len(set(known.values())) > 1:
        print(f"FAIL {HOTSPOT_SERIES:<16} causal digests diverge across "
              f"points: {known}")
        failures.append((HOTSPOT_SERIES, "digest-parity", 0.0))
    elif known:
        print(f"OK   {HOTSPOT_SERIES:<16} causal digest identical on "
              f"{len(known)} point(s)")
    for x, d in digests.items():
        if d is None:
            print(f"FAIL {HOTSPOT_SERIES:<16} x={x:<14} missing "
                  "shard/causal_digest metric")
            failures.append((HOTSPOT_SERIES, x + "-digest-missing", 0.0))
    static = hotspot.get("4shards_static")
    greedy = hotspot.get("4shards_greedy")
    if static is None or greedy is None:
        return failures
    s_imb = static[3].get("shard/imbalance")
    g_imb = greedy[3].get("shard/imbalance")
    if s_imb and g_imb:
        cut = s_imb / g_imb
        status = "OK " if cut >= MIN_IMBALANCE_CUT else "FAIL"
        print(f"{status} {HOTSPOT_SERIES:<16} imbalance static {s_imb} / "
              f"greedy {g_imb} = {cut:.2f}x cut "
              f"(required >= {MIN_IMBALANCE_CUT:.0f}x)")
        if cut < MIN_IMBALANCE_CUT:
            failures.append((HOTSPOT_SERIES, "imbalance-cut", cut))
    migrations = greedy[3].get("shard/migrations")
    if not migrations:
        print(f"FAIL {HOTSPOT_SERIES:<16} greedy point applied no "
              "migrations — the policy never fired")
        failures.append((HOTSPOT_SERIES, "no-migrations", 0.0))
    if static[2] is not None and greedy[2] is not None:
        status = "OK " if greedy[2] <= static[2] else "FAIL"
        print(f"{status} {HOTSPOT_SERIES:<16} epochs greedy {greedy[2]} vs "
              "static "
              f"{static[2]} (rebalancing may not add barrier rounds)")
        if greedy[2] > static[2]:
            failures.append((HOTSPOT_SERIES, "rebalance-epochs",
                             greedy[2] / static[2]))
    ratio = greedy[0] / static[0] if static[0] > 0 else float("inf")
    status = "OK " if ratio >= MIN_HOTSPOT_RATIO else "FAIL"
    print(f"{status} {HOTSPOT_SERIES:<16} greedy/static evps "
          f"{ratio:5.2f}x (required >= {MIN_HOTSPOT_RATIO:.2f}x)")
    if ratio < MIN_HOTSPOT_RATIO:
        failures.append((HOTSPOT_SERIES, "rebalance-vs-static", ratio))
    return failures


def report_epochs(current):
    """Print the epoch count of every evps point that recorded one."""
    for (series, x), (_, _, epochs, _) in sorted(current.items()):
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
    for key, (base, base_copied, _, _) in sorted(baseline.items()):
        series, x = key
        if key not in current:
            msg = f"scenario {series}/{x} missing from current run"
            if allow_missing:
                print(f"WARNING: {msg} (--allow-missing)")
            else:
                print(f"FAIL {msg}")
                failures.append((series, x, 0.0))
            continue
        cur, cur_copied, _, _ = current[key]
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
    failures.extend(check_hotspot_rebalance(current))
    report_epochs(current)

    if failures:
        print(f"\nERROR: {len(failures)} host-perf gate failure(s)",
              file=sys.stderr)
        return 1
    print("host-perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
