#!/usr/bin/env python3
"""The repository benchmark: build, run, check and report.

    python3 benchmark/run.py
        Build, then run all five workloads: each untraced (end-to-end
        metrics) and traced (per-layer metrics), with a report per workload.
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace T
        One workload.  --trace 0 reports the end-to-end metrics, --trace 1
        the per-layer ones (a short untraced pass, then the traced build).
    python3 benchmark/run.py --smoke
        1% op counts, one rep, a sampler pass of about a second per
        workload; checks the result JSON against BENCHMARK.json.
    python3 benchmark/run.py --runs 10 --out set.json
        Ten untraced runs per workload, seeds N..N+9: the spread check.
        benchmark/compare.py compares two such files.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (exactly the metrics BENCHMARK.json lists
for the chosen --trace).  A failed correctness check counts the ops of the
runs it covers as failed and makes the exit code 1.  Human-readable tables
go to stdout before that line; build output goes to stderr.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "benchmark"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected_seed1.json"

sys.path.insert(0, str(HERE))
import attribute  # noqa: E402

# Every process must finish within 180 s; leave room for parsing.
DEADLINE_S = 170
SETUP_PROBES = 20  # per rep
MIN_SAMPLES = 2000
# The time base (README.md, "Time base"): a host duration d measured while
# the reference kernel took r CPU seconds is reported as d * REFERENCE_S / r
# reference seconds.  REFERENCE_S is the kernel's usual CPU time on the
# shared 4-vCPU Intel Xeon host the benchmark was defined on.
REFERENCE_S = 0.025
HOST_TIMES = ("setup_s", "wall_s", "cpu_s", "teardown_s")


class Failure(Exception):
    """The benchmark cannot produce a result (no sources, build failed)."""


def build():
    if not (ROOT / "src").is_dir():
        raise Failure(f"no src/ under {ROOT}: the benchmark builds the "
                      "repository's own sources")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise Failure("build failed: " + " ".join(cmd))


class Pass:
    """One driver process: its warm-up rep, timed reps and closing line,
    with every host time in reference seconds (the measured
    host seconds are kept under each rep's "host")."""

    def __init__(self, binary, workload, seed, *, seconds, scale=1.0,
                 min_reps=2, max_reps=20, probes=SETUP_PROBES, profile=None,
                 min_samples=0, timeout=DEADLINE_S):
        cmd = [str(BUILD / binary), "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--scale", str(scale),
               "--min-reps", str(min_reps), "--max-reps", str(max_reps),
               "--setup-probes", str(probes)]
        if profile is not None:
            cmd += ["--profile", str(profile), "--min-samples",
                    str(min_samples)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(timeout, 1))
            out, self.returncode, err = proc.stdout, proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as e:
            out, self.returncode, err = e.stdout or "", -1, "timed out"
            if isinstance(out, bytes):
                out = out.decode(errors="replace")
        self.stderr = err.strip()
        lines = []
        for line in out.splitlines():
            try:
                lines.append(json.loads(line))
            except json.JSONDecodeError:
                self.returncode = self.returncode or -2
        self.warmup = [x for x in lines if "rep" in x and x["warmup"]]
        self.reps = [x for x in lines if "rep" in x and not x["warmup"]]
        for r in self.warmup + self.reps:
            r["host"] = {k: r[k] for k in HOST_TIMES}
            scale = REFERENCE_S / r["ref_s"]
            for k in HOST_TIMES:
                r[k] *= scale
            r["probes"] = [t * scale for t in r["probes"]]
        self.final = next((x for x in lines if x.get("final")), {})

    def attempted(self):
        return sum(r["attempted"] for r in self.reps)

    def failed(self):
        return sum(r["failed"] for r in self.reps)


def ops(rep):
    return rep["attempted"] - rep["failed"]


def stats(values):
    """(median, q1, q3, n) with Python's default quartile method."""
    values = sorted(values)
    if not values:
        return float("nan"), float("nan"), float("nan"), 0
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def consistency_problems(p, label):
    """Driver failures, failed ops, and simulated outputs or counts that
    differ between reps of one process."""
    problems = []
    if p.returncode != 0:
        problems.append(f"{label}: driver exited {p.returncode}: "
                        f"{p.stderr[-300:]}")
    if not p.reps or not p.final:
        problems.append(f"{label}: incomplete driver output")
    for r in p.warmup + p.reps:
        if r.get("error"):
            problems.append(f"{label} rep {r['rep']}: {r['error']}")
        elif r["failed"]:
            problems.append(f"{label} rep {r['rep']}: {r['failed']} of "
                            f"{r['attempted']} ops failed verification")
    if len({json.dumps(r["sim"], sort_keys=True)
            for r in p.warmup + p.reps}) > 1:
        problems.append(f"{label}: simulated outputs differ between reps")
    if len({json.dumps(r["counts"], sort_keys=True)
            for r in p.warmup + p.reps}) > 1:
        problems.append(f"{label}: metric counts differ between reps")
    return problems


def expected_problems(p, workload, expected):
    if not p.reps:
        return []
    got = p.reps[0]["sim"]
    want = expected.get(workload)
    if want is None:
        return [f"{workload}: no pinned seed-1 outputs"]
    bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return [f"{workload}: seed-1 output {k} is {got.get(k)!r}, pinned "
            f"{want.get(k)!r}" for k in bad]


def host_view(p):
    """Medians in plain host seconds, and the machine's speed against the
    reference (REFERENCE_S / measured kernel time), for the report."""
    if not p.reps:
        return {}
    med = statistics.median
    return {
        "ops_per_s": med(ops(r) / r["host"]["wall_s"] for r in p.reps),
        "ops_per_cpu_s": med(ops(r) / r["host"]["cpu_s"] for r in p.reps),
        "speed": med(REFERENCE_S / r["ref_s"] for r in p.reps),
    }


def end_to_end_samples(p):
    return {
        "ops_per_s": [ops(r) / r["wall_s"] for r in p.reps],
        "ops_per_cpu_s": [ops(r) / r["cpu_s"] for r in p.reps],
        "setup_s": [t for r in p.reps for t in r["probes"] + [r["setup_s"]]],
        "peak_rss_mb": [p.final.get("peak_rss_kb", 0) / 1024.0],
    }


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(untraced, traced, stacks):
    """Every per-layer metric: deterministic counts per op from the
    registries, host self time from the traced build's samples."""
    rep = untraced.reps[0]
    c = rep["counts"].get
    n = ops(rep)
    events = int(rep["sim"]["events"])
    epochs = c("shard/epochs", 0)
    m = {
        "sim.events_per_op": events / n,
        "sim.ns_per_event": statistics.median(
            r["wall_s"] for r in untraced.reps) * 1e9 / events,
        "sim.cpu_per_wall": statistics.median(
            r["cpu_s"] / r["wall_s"] for r in untraced.reps),
        "sim.shard.epochs_per_op": epochs / n,
        "sim.shard.events_per_epoch": ratio(events, epochs),
        "sim.shard.remote_events_per_op": c("shard/remote_events", 0) / n,
        "sim.shard.skip_share": ratio(c("shard/barrier_skips", 0), epochs),
        "sim.shard.imbalance": c("shard/imbalance", 0) / 1000.0,
        "net.switch_frames_per_op": (c("net/switch/frames_forwarded", 0) +
                                     c("net/switch/frames_flooded", 0)) / n,
        "net.bytes_copied_per_op": c("host/bytes_copied", 0) / n,
        "net.frames_dropped": c("net/switch/frames_dropped", 0),
        "net.frame_pool_hwm": c("net/switch/frame_pool_hwm", 0),
        "nic.frames_tx_per_op": c("nic/frames_tx", 0) / n,
        "nic.frames_rx_per_op": c("nic/frames_rx", 0) / n,
        "emp.data_frames_per_op": c("emp/data_frames_tx", 0) / n,
        "emp.acks_per_op": c("emp/acks_tx", 0) / n,
        "emp.retransmit_ratio": ratio(c("emp/retransmitted_frames", 0),
                                      c("emp/data_frames_tx", 0)),
        "emp.walk_per_rx_frame": ratio(c("emp/descriptors_walked", 0),
                                       c("emp/data_frames_rx", 0)),
        "emp.tag_walk_p99": c("emp/tag_walk_len/p99", 0),
        "emp.unexpected_claims_per_op": c("emp/unexpected_claims", 0) / n,
        "emp.stale_frames": c("emp/stale_frames", 0),
        "emp.pin_miss_ratio": ratio(
            c("emp/pin_misses", 0),
            c("emp/pin_hits", 0) + c("emp/pin_misses", 0)),
        "sockets.credit_stall_us_per_op":
            c("sockets/credit_stall_ns/sum", 0) / 1e3 / n,
        "sockets.credit_acks_per_op": c("sockets/credit_acks_tx", 0) / n,
        "sockets.rendezvous_share": ratio(
            c("sockets/rendezvous_messages_tx", 0),
            c("sockets/rendezvous_messages_tx", 0) +
            c("sockets/eager_messages_tx", 0)),
        "sockets.connections": c("sockets/connections_initiated", 0),
        "tcp.segments_per_op": c("tcp/segments_tx", 0) / n,
        "tcp.pure_acks_per_op": c("tcp/pure_acks_tx", 0) / n,
        "tcp.interrupts_per_op": c("tcp/interrupts", 0) / n,
        "tcp.retransmits": c("tcp/retransmits", 0),
        "os.ring.batch_p50": c("ring/batch_size/p50", 0),
        "os.ring.reap_wait_us_p50": c("ring/reap_wait_ns/p50", 0) / 1e3,
        "os.ring.sqe_inflight": c("ring/sqe_inflight", 0),
        "os.recv_scratch_hwm": c("host/recv_scratch_hwm", 0),
        "setup.teardown_s": statistics.median(
            r["teardown_s"] for r in untraced.reps),
        "trace.overhead": ratio(
            statistics.median(ops(r) / r["wall_s"] for r in traced.reps),
            statistics.median(ops(r) / r["wall_s"] for r in untraced.reps)),
    }
    layers, parts, tops = attribute.summarize(stacks)
    total = sum(layers.values())
    m["trace.samples"] = total
    cpu_ns_per_op = statistics.median(
        r["cpu_s"] / ops(r) for r in traced.reps) * 1e9
    for layer in attribute.LAYERS:
        share = ratio(layers.get(layer, 0), total)
        if layer.startswith("libc."):
            m[f"{layer}_share"] = share
        elif layer == "unattributed":
            m["trace.unattributed_share"] = share
        else:
            m[f"{layer}.self_share"] = share
            m[f"{layer}.self_ns_per_op"] = share * cpu_ns_per_op
    for part in ("wait", "mailbox", "plan"):
        m[f"sim.shard.{part}_share"] = ratio(parts.get(part, 0), total)
    return m, (layers, parts, tops)


def spec_metrics(spec, key, values):
    """Exactly the metrics `spec[key]` lists, with their units."""
    return {x["name"]: {"value": values[x["name"]], "unit": x["unit"]}
            for x in spec[key]}


def schema_problems(spec, result, trace):
    """Checks a result object against the format BENCHMARK.json defines."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    for k in ("attempted", "failed"):
        if not isinstance(result.get(k), int) or result[k] < 0:
            problems.append(f"{k} is not a whole number")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    want = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {x["name"] for x in want}:
        problems.append("metric names differ from BENCHMARK.json")
    for x in want:
        got = metrics.get(x["name"], {})
        v = got.get("value")
        if got.get("unit") != x["unit"] or set(got) != {"value", "unit"}:
            problems.append(f"{x['name']}: bad unit or keys")
        if not isinstance(v, (int, float)) or v != v or v in (
                float("inf"), float("-inf")):
            problems.append(f"{x['name']}: value {v!r} is not a number")
    return problems


def fmt(v):
    if isinstance(v, int) or abs(v) >= 1e5:
        return f"{v:.0f}"
    return f"{v:.4g}"


def print_end_to_end(workload, seed, p, samples, spec):
    print(f"== {workload} (seed {seed}): {len(p.reps)} timed reps, "
          f"{p.final.get('threads', '?')} thread(s), untraced build")
    print(f"  {'metric':<16}{'unit':<8}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'n':>5}")
    units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
    for name, values in samples.items():
        med, q1, q3, n = stats(values)
        print(f"  {name:<16}{units.get(name, ''):<8}{fmt(med):>14}"
              f"{fmt(q1):>14}{fmt(q3):>14}{n:>5}")
    host = host_view(p)
    if host:
        print(f"  in host seconds: ops_per_s {fmt(host['ops_per_s'])}, "
              f"ops_per_cpu_s {fmt(host['ops_per_cpu_s'])}; machine speed "
              f"{host['speed']:.3f} x reference")
    sim = p.reps[0]["sim"] if p.reps else {}
    print("  simulated: " + ", ".join(f"{k}={v}" for k, v in sim.items()))


def print_per_layer(workload, values, breakdown, spec):
    print(f"-- {workload} per layer ({values['trace.samples']} samples, "
          "traced build)")
    units = {x["name"]: x["unit"] for x in spec["per_layer"]}
    for x in spec["per_layer"]:
        name = x["name"]
        print(f"  {name:<34}{fmt(values[name]):>14}  {units[name]}")
    print("  host self time by layer, with the top leaf functions:")
    attribute.report(*breakdown)


def measure(spec, workload, seed, seconds, *, e2e, layers, smoke, expected):
    """Run one workload.  `e2e`: a full-length untraced pass whose
    end-to-end metrics are reported; otherwise the untraced pass is a short
    one that only feeds the per-layer counts and the overhead base.
    `layers`: add the traced pass and the per-layer metrics.  Returns the
    run's record (the --out format)."""
    t0 = time.monotonic()
    scale = 0.01 if smoke else 1.0
    if smoke:
        shape = dict(seconds=0, min_reps=1, max_reps=1, probes=2)
    elif e2e:
        shape = dict(seconds=seconds)
    else:
        shape = dict(seconds=0, min_reps=2)
    untraced = Pass("ulsb", workload, seed, scale=scale, **shape)
    problems = consistency_problems(untraced, f"{workload} untraced")
    if seed == 1 and not smoke:
        problems += expected_problems(untraced, workload, expected)
    passes = [untraced]
    samples = end_to_end_samples(untraced)
    first = untraced.reps[0] if untraced.reps else {}
    record = {"workload": workload, "seed": seed, "samples": samples,
              "host": host_view(untraced),
              "sim": first.get("sim", {}), "counts": first.get("counts", {}),
              "end_to_end": None, "per_layer": None}
    if e2e and untraced.reps:
        print_end_to_end(workload, seed, untraced, samples, spec)
        record["end_to_end"] = spec_metrics(
            spec, "end_to_end",
            {name: stats(v)[0] for name, v in samples.items()})
    if layers:
        profile = BUILD / f"profile-{workload}-{os.getpid()}.txt"
        traced = Pass("ulsb_fp", workload, seed, scale=scale,
                      seconds=1.0 if smoke else seconds, min_reps=1,
                      max_reps=1000 if smoke else 20, probes=0,
                      profile=profile,
                      min_samples=0 if smoke else MIN_SAMPLES,
                      timeout=DEADLINE_S - (time.monotonic() - t0))
        passes.append(traced)
        problems += consistency_problems(traced, f"{workload} traced")
        if untraced.reps and traced.reps:
            if traced.reps[0]["sim"] != untraced.reps[0]["sim"]:
                problems.append(f"{workload}: traced and untraced builds "
                                "simulate different outputs")
            if traced.reps[0]["counts"] != untraced.reps[0]["counts"]:
                problems.append(f"{workload}: traced and untraced builds "
                                "count differently")
        if not problems:
            stacks = attribute.load_profile(profile, BUILD / "ulsb_fp")
            values, breakdown = per_layer(untraced, traced, stacks)
            print_per_layer(workload, values, breakdown, spec)
            record["per_layer"] = spec_metrics(spec, "per_layer", values)
        if profile.exists():
            profile.unlink()
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    record["correct"] = not problems
    record["attempted"] = max(sum(p.attempted() for p in passes), 1)
    # A failed check fails every op of the run it covers.
    record["failed"] = (record["attempted"] if problems
                        else sum(p.failed() for p in passes))
    print(f"  error_rate {ratio(record['failed'], record['attempted']):.4g} "
          f"({record['failed']} of {record['attempted']} ops failed)")
    return record


def result_of(record, key):
    """The result object of one run: `key` selects the
    end_to_end or per_layer metrics."""
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record[key] or {}}


def environment():
    env = {"nproc": os.cpu_count()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1]
                out = subprocess.run([compiler, "--version"],
                                     capture_output=True, text=True).stdout
                env["compiler"] = out.splitlines()[0] if out else compiler
    env["date"] = time.strftime("%Y-%m-%d")
    return env


def print_spread(spec, records):
    """Per (workload, end-to-end metric): the median over runs and the
    quartile spread as a share of it, against the metric's bound."""
    print("== spread over runs (q3 - q1) / median, against each bound")
    bounds = {x["name"]: x["bound"] for x in spec["end_to_end"]}
    for w in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == w]
        for name, bound in bounds.items():
            vals = [r["end_to_end"][name]["value"] for r in runs
                    if r["end_to_end"]]
            med, q1, q3, n = stats(vals)
            spread = ratio(q3 - q1, med)
            flag = "ok" if spread <= bound / 3 or name == "setup_s" else "WIDE"
            print(f"  {w:<16}{name:<15}{fmt(med):>12}  spread {spread:6.2%}"
                  f"  bound {bound:.0%}  n={n}  {flag}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics only, 1: per-layer only "
                         "(default: both)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--runs", type=int, default=1,
                    help="untraced runs per workload, seeds N, N+1, ...")
    ap.add_argument("--out", type=Path, help="write every run's record here")
    ap.add_argument("--expected", type=Path, default=EXPECTED_PATH,
                    help="pinned seed-1 simulated outputs")
    ap.add_argument("--pin-expected", action="store_true",
                    help="rewrite --expected from this run's seed-1 outputs")
    args = ap.parse_args(argv[1:])
    try:
        spec = json.loads(SPEC_PATH.read_text())
        build()
    except (Failure, OSError, json.JSONDecodeError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    expected = (json.loads(args.expected.read_text())
                if args.expected.exists() else {})
    if args.smoke or args.trace is None:
        e2e, layers = True, args.smoke or args.runs == 1
    else:
        e2e, layers = args.trace == 0, args.trace == 1

    records = []
    for w in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            records.append(measure(spec, w, seed, seconds, e2e=e2e,
                                   layers=layers, smoke=args.smoke,
                                   expected=expected))
            print(flush=True)
    if args.runs > 1:
        print_spread(spec, records)
    if args.pin_expected and not args.smoke:
        pinned = {r["workload"]: r["sim"] for r in records if r["seed"] == 1}
        args.expected.write_text(json.dumps(pinned, indent=2) + "\n")
    if args.out:
        args.out.write_text(json.dumps(
            {"schema": "ulsocks.benchmark.v1", "env": environment(),
             "run_seconds": seconds, "runs": records}, indent=1) + "\n")

    schema = []
    if args.smoke:
        for r in records:
            schema += [f"{r['workload']}: {p}" for p in
                       schema_problems(spec, result_of(r, "end_to_end"), False)
                       + schema_problems(spec, result_of(r, "per_layer"), True)]
        print("smoke: result schema " + ("ok" if not schema else
                                         "BROKEN: " + "; ".join(schema)))
    correct = all(r["correct"] for r in records) and not schema
    if len(records) == 1 and args.trace is not None:
        final = result_of(records[0], "per_layer" if args.trace else
                          "end_to_end")
    else:
        label = (lambda r: r["workload"]) if args.runs == 1 else (
            lambda r: f"{r['workload']}.{r['seed']}")
        final = {"correct": correct,
                 "attempted": sum(r["attempted"] for r in records),
                 "failed": sum(r["failed"] for r in records),
                 "metrics": {f"{label(r)}.{k}": v for r in records
                             for part in ("end_to_end", "per_layer")
                             for k, v in (r[part] or {}).items()}}
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
