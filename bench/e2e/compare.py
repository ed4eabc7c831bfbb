#!/usr/bin/env python3
"""Same-host A/B comparison for the end-to-end benchmark.

  python3 bench/e2e/compare.py PARENT.json CHANGE.json
      compare two BENCH_e2e.json files (the first set of each)
  python3 bench/e2e/compare.py --parent-src DIR --change-src DIR [--pairs 10]
      build this benchmark against both source trees and run alternating
      parent/change pairs of `run.py --workload W` on every workload

Per workload and end-to-end metric it reports each side's median and
quartiles and a verdict. A metric may worsen by its bound in BENCHMARK.json
times the parent's median, and setup_s, which is millisecond-scale, by at
least 2 ms:

  gain        the change wins >= 9/10 of the pairs (ties count for neither)
              and the medians differ by more than the parent's interquartile
              range
  regression  the change's median is worse than the parent's by more than
              it may worsen
  unresolved  a side's interquartile range is wider than the allowed
              worsening, so "no regression" cannot be shown — unless every
              change run reads better than every parent run ("better"), or
              every one reads worse and the medians differ by more than the
              allowed worsening ("regression")
  unchanged   otherwise

A digest mismatch between the sides is flagged: simulated results changed.
Exit status is 1 on a regression or a digest mismatch.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
# Smallest worsening, in the metric's unit, that counts as a regression.
ABSOLUTE_FLOOR = {"setup_s": 0.002}


def bounds():
    """End-to-end metric -> (bound, better) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return med, q[0], q[2]


def verdict(parent, change, bound, better, floor=0.0):
    sign = 1.0 if better == "lower" else -1.0
    mp, p1, p3 = summary(parent)
    mc, c1, c3 = summary(change)
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    allowed = max(bound * mp, floor)  # worsening that still passes
    worsened = sign * (mc - mp)  # > 0: the change is worse
    if pairs and wins >= 0.9 * pairs and abs(mc - mp) > p3 - p1:
        v = "gain"
    elif max(p3 - p1, c3 - c1) > allowed:
        if all(sign * (p - c) > 0 for p in parent for c in change):
            v = "better"
        elif worsened > allowed and \
                all(sign * (c - p) > 0 for p in parent for c in change):
            v = "regression"
        else:
            v = "unresolved"
    elif worsened > allowed:
        v = "regression"
    else:
        v = "unchanged"
    return {"parent": [mp, p1, p3], "change": [mc, c1, c3], "wins": wins,
            "pairs": pairs, "worse": worsened / mp,
            "spread": max((p3 - p1) / mp, (c3 - c1) / mc), "verdict": v}


def compare(parent, change):
    """parent/change: {workload: {"samples": {metric: [...]}, "digest": d}}."""
    rows = {}
    metrics = bounds()
    for w in parent:
        if w not in change:
            continue
        rows[w] = {"digest_match": parent[w]["digest"] == change[w]["digest"],
                   "metrics": {}}
        for name, (bound, better) in metrics.items():
            rows[w]["metrics"][name] = verdict(parent[w]["samples"][name],
                                               change[w]["samples"][name],
                                               bound, better,
                                               ABSOLUTE_FLOOR.get(name, 0.0))
    return rows


def from_set(workloads):
    """A BENCH_e2e.json set in compare()'s input shape."""
    return {w: {"digest": s["digest"],
                "samples": {k: m["samples"] for k, m in s["end_to_end"].items()}}
            for w, s in workloads.items()}


def print_rows(rows):
    print("%-12s %-12s %26s %26s %7s %8s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "worse", "verdict"))
    for w, row in rows.items():
        for name, v in row["metrics"].items():
            print("%-12s %-12s %26s %26s %3d/%-3d %+7.2f%%  %s" % (
                w, name, "%.4g [%.4g, %.4g]" % tuple(v["parent"]),
                "%.4g [%.4g, %.4g]" % tuple(v["change"]), v["wins"],
                v["pairs"], 100 * v["worse"], v["verdict"]))
        if not row["digest_match"]:
            print("%-12s DIGEST MISMATCH: simulated results differ" % w)


def failing(rows):
    return any(not r["digest_match"] or
               any(v["verdict"] == "regression" for v in r["metrics"].values())
               for r in rows.values())


def acceptance(set_a, set_b):
    """Two sets of runs of the same code must agree: every end-to-end median
    within its bound of the other set's (setup_s within 2 ms at least),
    error_rate 0 in both, and identical digests across sets and between
    traced and untraced runs."""
    rows = compare(from_set(set_a), from_set(set_b))
    metrics = bounds()
    out = {}
    for w, row in rows.items():
        within = {}
        for name, v in row["metrics"].items():
            allowed = max(metrics[name][0] * v["parent"][0],
                          ABSOLUTE_FLOOR.get(name, 0.0))
            within[name] = abs(v["change"][0] - v["parent"][0]) <= allowed
        digests = {set_a[w]["digest"], set_a[w]["traced_digest"],
                   set_b[w]["digest"], set_b[w]["traced_digest"]}
        out[w] = {"medians_within_bound": within,
                  "relative_change": {n: v["worse"]
                                      for n, v in row["metrics"].items()},
                  "error_rates": [set_a[w]["error_rate"], set_b[w]["error_rate"]],
                  "digests_identical": len(digests) == 1,
                  "pass": all(within.values()) and len(digests) == 1 and
                  set_a[w]["error_rate"] == 0 and set_b[w]["error_rate"] == 0}
    return out


def print_acceptance(acc):
    for w, a in acc.items():
        print("acceptance %s: %s (digests identical: %s, error rates %s)" % (
            w, "pass" if a["pass"] else "FAIL", a["digests_identical"],
            a["error_rates"]))
        for name, ok in a["medians_within_bound"].items():
            print("  %-12s %+7.2f%% %s" % (name, 100 * a["relative_change"][name],
                                          "within bound" if ok else "OUT OF BOUND"))


def live(args):
    """Alternating parent/change pairs with identical benchmark code."""
    sys.path.insert(0, HERE)
    import run
    binaries = {}
    for side, src in (("parent", args.parent_src), ("change", args.change_src)):
        build_dir = os.path.join(HERE, "out", "ab", side)
        binaries[side] = run.build(os.path.abspath(src), build_dir)
    data = {side: {w: {"digest": set(), "samples": {}} for w in args.workloads}
            for side in binaries}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in args.workloads:
            for side in order:
                run.log("pair %d/%d: %s %s" % (i + 1, args.pairs, w, side))
                res = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", w, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", "0",
                     "--binary", binaries[side]],
                    stdout=subprocess.PIPE, text=True, check=True)
                lines = res.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                d = data[side][w]
                d["digest"] |= {l.split()[2] for l in lines
                                if l.startswith("digest ")}
                if not result["correct"]:
                    d["digest"].add("incorrect")
                for name, m in result["metrics"].items():
                    d["samples"].setdefault(name, []).append(m["value"])
    for side in data.values():
        for w in side.values():
            w["digest"] = ",".join(sorted(w["digest"]))
    return compare(data["parent"], data["change"])


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*", help="PARENT.json CHANGE.json")
    ap.add_argument("--parent-src", help="parent source tree (live mode)")
    ap.add_argument("--change-src", help="change source tree (live mode)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+",
                    default=["fig07_seeds", "farm64", "cross_dl", "crowd_grid"])
    ap.add_argument("--seed", type=int, default=-1)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args()

    if args.parent_src and args.change_src:
        rows = live(args)
    elif len(args.files) == 2:
        sets = []
        for path in args.files:
            with open(path) as f:
                sets.append(from_set(json.load(f)["sets"][0]["workloads"]))
        rows = compare(*sets)
    else:
        ap.error("give two BENCH_e2e.json files, or --parent-src and "
                 "--change-src")
    print_rows(rows)
    return 1 if failing(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
