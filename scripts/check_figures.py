#!/usr/bin/env python3
"""Refill EXPERIMENTS.md's bench tables and check the paper's shape claims.

Usage: check_figures.py DIR

DIR holds what every bench binary NAME printed and wrote when run as
`NAME --out DIR > DIR/NAME.md`: its tables (NAME.md) and its results
(BENCH_NAME.json).

1. Each `<!-- bench NAME -->` ... `<!-- /bench -->` block of EXPERIMENTS.md
   is refilled with DIR/NAME.md, and the file is rewritten.  Every block
   needs its NAME.md and every NAME.md its block.
2. The shape claims below are asserted over the JSON, and the numbers
   EXPERIMENTS.md quotes in its known deviations are checked against the
   values they summarize.

Exits 1, naming each, if a block changed, a block or an output has no
counterpart, or a claim fails; 2 on a bad argument.
"""

import difflib
import glob
import json
import os
import re
import sys

DOC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                   "EXPERIMENTS.md")
BLOCK = re.compile(r"(<!-- bench (\S+) -->\n)(.*?)(<!-- /bench -->)",
                   re.DOTALL)

failures = []


def expect(ok, claim, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {claim}"
          + (f" [{detail}]" if detail and not ok else ""))
    if not ok:
        failures.append(claim)


def refill(out_dir):
    """Refill every bench block from DIR/NAME.md and rewrite the file;
    returns its new text."""
    with open(DOC, encoding="utf-8") as f:
        text = f.read()
    outputs = {os.path.basename(p)[:-3]
               for p in glob.glob(os.path.join(out_dir, "*.md"))}
    names = [m.group(2) for m in BLOCK.finditer(text)]
    for name in sorted(outputs - set(names)):
        expect(False, f"bench {name} has a block in EXPERIMENTS.md")
    changed = []

    def fill(m):
        name = m.group(2)
        path = os.path.join(out_dir, name + ".md")
        if not os.path.exists(path):
            expect(False, f"block {name} has an output {path}")
            return m.group(0)
        with open(path, encoding="utf-8") as f:
            body = "\n" + f.read() + "\n"
        if body != m.group(3):
            changed.append(name)
            sys.stdout.writelines(difflib.unified_diff(
                m.group(3).splitlines(True), body.splitlines(True),
                f"EXPERIMENTS.md ({name})", f"{path}"))
        return m.group(1) + body + m.group(4)

    text = BLOCK.sub(fill, text)
    with open(DOC, "w", encoding="utf-8") as f:
        f.write(text)
    for name in changed:
        expect(False, f"block {name} matches the bench's output "
                      "(refilled; commit EXPERIMENTS.md)")
    print(f"EXPERIMENTS.md: {len(names)} bench blocks, "
          f"{len(changed)} refilled")
    return text


def load(out_dir):
    """figure -> series -> {x: value}, both in recording order."""
    figs = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "BENCH_*.json"))):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        series = figs.setdefault(doc["figure"], {})
        for p in doc["points"]:
            series.setdefault(p["series"], {})[p["x"]] = p["value"]
    return figs


def every(claim, rows):
    """Expect `claim` of every (x, ok, detail) row, naming failing xs."""
    bad = [f"{x}: {detail}" for x, ok, detail in rows if not ok]
    expect(bool(rows) and not bad, claim, "; ".join(bad))


def within(measured, target, tolerance):
    return abs(measured - target) <= tolerance * abs(target)


def check_claims(figs, doc):
    f11 = figs["fig11_latency"]
    order = ["DS", "DS_DA", "DS_DA_UQ", "DG", "raw_EMP"]
    every("F11: DS > DS_DA > DS_DA_UQ > DG > raw EMP at every size",
          [(x, all(f11[a][x] > f11[b][x] for a, b in zip(order, order[1:])),
            " ".join(f"{f11[s][x]:.1f}" for s in order))
           for x in f11["DS"]])

    f12 = figs["fig12_credits"]
    every("F12: delayed acks <= immediate acks at every credit count",
          [(x, f12["delayed_acks"][x] <= imm,
            f"{f12['delayed_acks'][x]:.1f} > {imm:.1f}")
           for x, imm in f12["immediate_acks"].items()])

    f13 = figs["fig13_microbench"]
    ratio = f13["TCP"]["4"] / f13["Datagram"]["4"]
    expect(ratio >= 4.0, "F13: TCP/DG >= 4x at 4 B", f"{ratio:.2f}x")
    ds, emp = f13["bw_Substrate_DS"]["64K"], f13["bw_raw_EMP"]["64K"]
    expect(within(ds, emp, 0.02),
           "F13: substrate DS bandwidth within 2% of raw EMP at 64 KB",
           f"{ds:.1f} vs {emp:.1f}")

    f14 = figs["fig14_ftp"]
    every("F14: DS/TCP >= 2x at every file size",
          [(x, v / f14["TCP"][x] >= 2.0, f"{v / f14['TCP'][x]:.2f}x")
           for x, v in f14["DataStreaming"].items()])

    f15, f16 = figs["fig15_web10"], figs["fig16_web11"]
    every("F15/F16: both stacks respond faster under HTTP/1.1 at every "
          "reply size",
          [(x, all(f16[s][x] < f15[s][x] for s in ("Substrate", "TCP")),
            " ".join(f"{s} {f15[s][x]:.0f} -> {f16[s][x]:.0f}"
                     for s in ("Substrate", "TCP")))
           for x in f15["Substrate"]])

    def gap(f, x):
        return f["TCP"][x] - f["Substrate"][x]

    every("F15/F16: HTTP/1.1 narrows the absolute TCP - substrate gap at "
          "every reply size",
          [(x, gap(f16, x) < gap(f15, x),
            f"{gap(f15, x):.0f} -> {gap(f16, x):.0f} us")
           for x in f15["Substrate"]])

    f17 = figs["fig17_matmul"]
    speedups = [(n, f17["TCP"][n] / v) for n, v in f17["Substrate"].items()]
    every("F17: TCP/Sub falls strictly with N",
          [(n, s < prev, f"{prev:.2f} -> {s:.2f}")
           for (_, prev), (n, s) in zip(speedups, speedups[1:])])

    a1 = figs["ablation_flowcontrol"]
    every("A1: comm thread - eager credits = 20 +- 1 us at every size",
          [(x, within(a1["comm_thread"][x] - v, 20.0, 0.05),
            f"{a1['comm_thread'][x] - v:.2f} us")
           for x, v in a1["eager_credits"].items()])

    # The fillers sit on the server only, so one round trip walks them
    # once: twice the one-way growth is the walk cost.
    a2 = figs["ablation_tagmatch"]["latency"]
    every("A2: tag matching walks 550 ns per descriptor +- 5%",
          [(x, within(ns, 550.0, 0.05), f"{ns:.0f} ns")
           for x, ns in ((x, (v - a2["0"]) * 2000.0 / int(x))
                         for x, v in a2.items() if x != "0")])

    a3 = figs["ablation_nic_cpus"]["stream_bw"]
    expect(a3["single"] < a3["dual"],
           "NIC CPUs: single-CPU streaming bandwidth < dual",
           f"{a3['single']:.0f} vs {a3['dual']:.0f} Mb/s")

    # EXPERIMENTS.md's calibration targets, as the paper states them.
    for what, measured, paper in (
            ("raw EMP 4 B one-way latency (us)", f11["raw_EMP"]["4"], 28),
            ("raw EMP peak bandwidth (Mb/s)",
             max(f13["bw_raw_EMP"].values()), 880),
            ("kernel TCP 4 B one-way latency (us)", f13["TCP"]["4"], 120),
            ("kernel TCP peak bandwidth, 16 KB buffers (Mb/s)",
             max(f13["bw_TCP_16K"].values()), 340),
            ("kernel TCP peak bandwidth, tuned buffers (Mb/s)",
             max(f13["bw_TCP_tuned"].values()), 550)):
        expect(within(measured, paper, 0.10),
               f"calibration: {what} within 10% of the paper's {paper}",
               f"{measured:.1f}")

    # Known deviations quote these values; each quote must stay within
    # 10% of what it summarizes.
    web = max(f["TCP"][x] / f["Substrate"][x]
              for f in (f15, f16) for x in f["Substrate"])
    for pattern, measured in (
            (r"DS-vs-DG latency gap at 4 B is ~([\d.]+) us",
             f13["DataStreaming"]["4"] - f13["Datagram"]["4"]),
            (r"Web-server advantage tops out at ([\d.]+)x", web),
            (r"Tuned-TCP bandwidth plateaus at ~([\d.]+)",
             max(f13["bw_TCP_tuned"].values()))):
        m = re.search(pattern, doc)
        expect(m is not None and within(float(m.group(1)), measured, 0.10),
               f"known deviation /{pattern}/ within 10% of {measured:.2f}",
               m.group(1) if m else "quote not found")


def main(argv):
    if len(argv) != 2 or not os.path.isdir(argv[1]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    doc = refill(argv[1])
    check_claims(load(argv[1]), doc)
    if failures:
        print(f"check_figures: {len(failures)} failed", file=sys.stderr)
        return 1
    print("check_figures: every block current, every claim holds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
