#!/usr/bin/env python3
"""End-to-end simulator benchmark: four workloads, host-time metrics, and
per-layer attribution measured from outside the engine.

  python3 bench/e2e/run.py            # full suite -> bench/e2e/out/BENCH_e2e.json
  python3 bench/e2e/run.py --workload farm64 --seed 21 --seconds 25 --trace 0
  python3 bench/e2e/run.py --smoke    # self-test (also the e2e_smoke ctest)
  python3 bench/e2e/run.py --sets 2 --spread-seeds 10 --out bench/e2e/BENCH_e2e.json
                                      # the committed baseline

Every mode builds the Release program mcc_e2e first (CMake, bench/e2e as the
top-level project), into $CARGO_TARGET_DIR when set, else build-e2e/.

The full suite runs each workload in its own process, 5 times, round-robin
across workloads so host drift hits them all alike, then one traced run per
workload for the per-layer numbers. It prints every metric as
"workload metric value unit" and writes all samples, medians, and quartiles.

With --workload it runs one workload for --seconds, in rounds: a few set-up
children (world set-ups only), then one timed child, until the time is spent.
Spreading the millisecond-scale set-ups over the whole run keeps a short slow
spell of the host from moving their median. With --trace 1 it ends with one
traced child that also runs the layer probes. The last stdout line is one
JSON object: correct, attempted, failed, and the end-to-end (--trace 0) or
per-layer (--trace 1) metrics.

See README.md for the metric glossary, workload rationale, and limits.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
WORKLOADS = ["fig07_seeds", "farm64", "cross_dl", "crowd_grid"]
# Full suite: timed runs of each workload per set.
REPEATS = 5
# Set-up time: processes per measurement (full suite) or per round
# (--workload mode), and world set-ups timed in each process.
SETUP_PROCESSES = 9
SETUP_PROCESSES_PER_ROUND = 4
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
SMOKE_SCALE = 0.1
# Wall-clock allowance for the traced child's layer probes.
PROBE_ALLOWANCE_S = 3.0


def metric_units(kind):
    """name -> unit of BENCHMARK.json's `kind` metrics, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


END_TO_END = metric_units("end_to_end")
PER_LAYER = metric_units("per_layer")
# error_rate is reported with the end-to-end metrics but is not a
# BENCHMARK.json metric: it is 0 on a correct run, and --workload mode
# carries it as the result's failed/attempted fields instead.
ERROR_RATE_UNIT = "ratio"

# Counts copied straight from the layer counts mcc_e2e sums over worlds.
COPIED_COUNTS = [
    "sched.events", "link.enqueued", "link.delivered", "link.dropped",
    "link.aqm_dropped", "link.ecn_marked", "node.forwarded_multicast",
    "node.forwarded_unicast", "node.policy_denied", "sigma.ctrl_shards",
    "sigma.blocks_decoded", "sigma.authorized_forwards",
    "sigma.grace_forwards", "sigma.denied", "sigma.valid_keys",
    "sigma.invalid_keys", "sigma.session_joins", "sigma.unsubscribes",
    "sigma.memory_refusals", "delta.slots", "delta.receiver_slots",
    "cm.lookups", "cm.observations", "population.ticks",
    "population.state_bytes",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def default_build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, "build-e2e"))


def build(src, build_dir):
    """Configures and builds mcc_e2e against the source tree `src`; returns
    the binary path. Configure runs every time (it takes a fraction of a
    second) so that a build directory reused for another tree follows it."""
    if not os.path.isfile(os.path.join(src, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(src, "src")):
        raise SystemExit("run.py: no mcc source tree at %s" % src)
    cmd = ["cmake", "-S", HERE, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=Release", "-DMCC_SOURCE_DIR=" + src,
           "-DPython3_EXECUTABLE=" + sys.executable]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("run.py: cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "mcc_e2e", "-j", "2"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("run.py: build failed")
    return os.path.join(build_dir, "mcc_e2e")


# --- one child process -------------------------------------------------------

def child(binary, workload, seed, *extra):
    """Runs mcc_e2e once. Returns (result, wall_s, peak_rss_mb, cpu_s).

    Peak RSS is the child's own VmHWM: wait4's ru_maxrss would also count
    this script's resident set, which the child holds from fork to exec."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)] + list(extra)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit("run.py: %s exited with %d" % (" ".join(cmd),
                                                         proc.returncode))
    result = json.loads(out)
    rss_kb = result.get("peak_rss_kb", -1)
    if rss_kb < 0:
        rss_kb = usage.ru_maxrss
    return result, wall, rss_kb / 1024.0, usage.ru_utime + usage.ru_stime


def setup_samples(binary, workload, seed, processes, scale=1.0,
                  repeats=SETUP_REPEATS):
    """Each of `processes` processes times `repeats` world set-ups; returns
    each process's median. A process's set-ups agree closely, but whole
    processes now and then run slow, hence several."""
    medians = []
    for _ in range(processes):
        res, _, _, _ = child(binary, workload, seed, "--mode", "setup",
                             "--repeats", str(repeats), "--scale", str(scale))
        medians.append(statistics.median(res["setup_s"]))
    return medians


def setup_time(binary, workload, seed):
    return statistics.median(setup_samples(binary, workload, seed,
                                           SETUP_PROCESSES))


def timed_child(binary, workload, seed, scale=1.0):
    res, wall, rss, cpu = child(binary, workload, seed, "--scale", str(scale))
    return {"result": res, "wall_s": wall, "peak_rss_mb": rss, "cpu_s": cpu}


def traced_child(binary, workload, seed, trace_path, scale=1.0):
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    res, wall, rss, cpu = child(binary, workload, seed, "--scale", str(scale),
                                "--trace-out", trace_path)
    return {"result": res, "wall_s": wall, "peak_rss_mb": rss, "cpu_s": cpu}


# --- metrics -----------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    """Nearest-rank percentile (p in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def e2e_samples(reps, setups):
    """Per-metric samples of the untraced runs."""
    return {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": list(setups),
        "run_s": [r["result"]["run_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def e2e_values(samples):
    """One value per metric: the median, except peak_rss_mb, which is the
    largest process peak, the memory a user must budget for."""
    return {k: max(v) if k == "peak_rss_mb" else statistics.median(v)
            for k, v in samples.items()}


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced, untraced_run_s):
    """Per-layer metrics of a traced child (counts, probes, shares)."""
    r = traced["result"]
    c = r["counts"]
    p = r["probes"]
    run_ns = r["run_s"] * 1e9
    m = {name: c.get(name, 0.0) for name in COPIED_COUNTS}
    world_ms = r["world_ms"]
    m.update({
        "exp.build_ms": r["build_ms"],
        "exp.finalize_ms": r["finalize_ms"],
        "exp.report_ms": r["report_ms"],
        "exp.world_ms_p50": percentile(world_ms, 50),
        "exp.world_ms_p79": percentile(world_ms, 79),
        "sweep.parallel_efficiency":
            ratio(sum(world_ms), r["wall_s"] * 1e3 * r["threads"]),
        "sched.peak_pending": r["peak_pending"],
        "sched.slots_high_water": r["slots_high_water"],
        "sched.events_per_run_s": ratio(c["sched.events"], r["run_s"]),
        "link.drop_ratio": ratio(c["link.dropped"],
                                 c["link.enqueued"] + c["link.dropped"]),
        "node.forward_ratio": ratio(
            c["node.forwarded_multicast"] + c["node.forwarded_unicast"],
            c["node.arrivals"]),
        "sigma.valid_key_ratio": ratio(
            c["sigma.valid_keys"], c["sigma.valid_keys"] + c["sigma.invalid_keys"]),
        "cm.bind_ratio": ratio(c.get("cm.capped_lookups", 0.0),
                               c.get("cm.lookups", 0.0)),
        "obs.snapshot_ms": r["snapshot_ms"],
        "obs.trace_overhead": ratio(r["run_s"], untraced_run_s) - 1.0,
        "proc.cpu_s": traced["cpu_s"],
        "sim.run_ms_per_sim_s.pre_attack":
            ratio(r["run_pre_s"] * 1e3, r["sim_pre_s"]),
        "sim.run_ms_per_sim_s.post_attack":
            ratio((r["run_s"] - r["run_pre_s"]) * 1e3, r["sim_post_s"]),
    })
    m.update(p)
    # Isolated-probe estimates: count x probe cost / measured run time.
    work_ns = {
        "sched": m["sched.events"] * p["sched.probe_ns_per_event"],
        "link": m["link.enqueued"] * p["link.probe_ns_per_packet"],
        "node": (m["node.forwarded_multicast"] + m["node.forwarded_unicast"])
        * p["node.probe_ns_per_copy"],
        "sigma": m["sigma.blocks_decoded"] * p["sigma.probe_ns_per_block"]
        + m["delta.slots"] * p["sigma.probe_ns_per_emit"],
        "delta": m["delta.slots"] * p["delta.probe_ns_per_begin_slot"]
        + m["delta.receiver_slots"] * p["delta.probe_ns_per_reconstruct"],
        "cm": m["cm.lookups"] * p["cm.probe_ns_per_consult"],
        "population": m["population.ticks"] * p["population.probe_ns_per_tick"],
    }
    for layer, ns in work_ns.items():
        m[layer + ".est_share"] = ratio(ns, run_ns)
    m["proc.unattributed_share"] = 1.0 - sum(ratio(ns, run_ns)
                                             for ns in work_ns.values())
    return m


def correctness(reps, traced=None):
    """Invariant checks from every child plus digest agreement: every
    repeat, and the traced run, must simulate exactly the same worlds."""
    runs = [r["result"] for r in reps] + ([traced["result"]] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    messages = [m for r in runs for m in r["failures"]]
    for r in runs[1:]:
        attempted += 1
        if r["digest"] != runs[0]["digest"]:
            failed += 1
            messages.append("digest %s != %s" % (r["digest"], runs[0]["digest"]))
    return attempted, failed, messages


def print_metric(workload, name, value, unit):
    print("%s %s %.6g %s" % (workload, name, value, unit), flush=True)


# --- modes -------------------------------------------------------------------

def one_workload(binary, workload, seed, seconds, trace, out_dir):
    """One workload for `seconds`; prints the JSON result as the last line."""
    start = time.perf_counter()
    setups = []
    reps = []
    budget = seconds
    while True:
        round_start = time.perf_counter()
        setups += setup_samples(binary, workload, seed,
                                SETUP_PROCESSES_PER_ROUND)
        reps.append(timed_child(binary, workload, seed))
        last = time.perf_counter() - round_start
        if trace and len(reps) == 1:
            # Leave room for the traced child: one more run plus the probes.
            budget = seconds - reps[0]["wall_s"] - PROBE_ALLOWANCE_S
        if time.perf_counter() - start + last > budget:
            break
    traced = None
    if trace:
        traced = traced_child(binary, workload, seed,
                              os.path.join(out_dir, "trace_%s.json" % workload))
    attempted, failed, messages = correctness(reps, traced)
    for m in messages:
        log("check failed: " + m)
    print("digest %s %s" % (workload, reps[0]["result"]["digest"]))
    if trace:
        run_s = statistics.median(r["result"]["run_s"] for r in reps)
        values = per_layer(traced, run_s)
        units = PER_LAYER
    else:
        values = e2e_values(e2e_samples(reps, setups))
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        print_metric(workload, name, values[name], unit)
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def suite(binary, sets, out_dir):
    """`sets` independent full sets at the default seeds: every workload
    REPEATS times per set, then one traced run each. Runs go round-robin
    across workloads and sets, so host drift hits every set alike. Returns
    one {workload: summary} per set."""
    reps = [{w: [] for w in WORKLOADS} for _ in range(sets)]
    setups = [{w: [] for w in WORKLOADS} for _ in range(sets)]
    for i in range(REPEATS):
        for k in range(sets):
            for w in WORKLOADS:
                log("repeat %d/%d, set %d: %s" % (i + 1, REPEATS, k + 1, w))
                setups[k][w].append(setup_time(binary, w, -1))
                reps[k][w].append(timed_child(binary, w, -1))
    return [{w: summarize(binary, w, reps[k][w], setups[k][w], out_dir)
             for w in WORKLOADS} for k in range(sets)]


def summarize(binary, workload, reps, setups, out_dir):
    """One workload's summary in a set; runs its traced child."""
    log("traced: %s" % workload)
    traced = traced_child(binary, workload, -1,
                          os.path.join(out_dir, "trace_%s.json" % workload))
    attempted, failed, messages = correctness(reps, traced)
    samples = e2e_samples(reps, setups)
    values = e2e_values(samples)
    e2e = {}
    for name, unit in END_TO_END.items():
        q1, q3 = quartiles(samples[name])
        e2e[name] = {"unit": unit, "value": values[name],
                     "samples": samples[name],
                     "median": statistics.median(samples[name]),
                     "q1": q1, "q3": q3}
    layer = per_layer(traced, values["run_s"])
    return {
        "seed": reps[0]["result"]["seed"],
        "digest": reps[0]["result"]["digest"],
        "traced_digest": traced["result"]["digest"],
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "failures": messages,
        "end_to_end": e2e,
        "per_layer": {k: {"value": layer[k], "unit": u}
                      for k, u in PER_LAYER.items()},
    }


def print_set(summary):
    for w, s in summary.items():
        for name, m in s["end_to_end"].items():
            print_metric(w, name, m["value"], m["unit"])
        print_metric(w, "error_rate", s["error_rate"], ERROR_RATE_UNIT)
        print("%s digest %s" % (w, s["digest"]))
        for name, m in s["per_layer"].items():
            print_metric(w, name, m["value"], m["unit"])


def host_info(binary):
    info = json.loads(subprocess.run([binary, "--info", "true"],
                                     stdout=subprocess.PIPE, check=True).stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": info["compiler"], "build_type": info["build_type"],
            "commit": git_commit()}


def git_commit():
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def seed_spread(binary, seeds, seconds):
    """The steadiness check for --workload mode: seeds 1..`seeds` per
    workload; spread = (q3 - q1) / median of each end-to-end metric."""
    out = {}
    for w in WORKLOADS:
        values = {name: [] for name in END_TO_END}
        for seed in range(1, seeds + 1):
            log("spread: %s seed %d" % (w, seed))
            res = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                 "--binary", binary],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(res.stdout.strip().splitlines()[-1])
            for name in END_TO_END:
                values[name].append(result["metrics"][name]["value"])
        out[w] = {}
        for name, v in values.items():
            q1, q3 = quartiles(v)
            med = statistics.median(v)
            out[w][name] = {"values": v, "median": med,
                            "spread": (q3 - q1) / med}
    return out


def smoke(binary):
    """Self-test at 1/10 of every horizon: every BENCHMARK.json metric is
    computed, finite, and printed with its unit; digests repeat (and match
    the traced run); checks pass; every probe returns a finite positive
    cost."""
    problems = []
    for w in WORKLOADS:
        log("smoke: %s" % w)
        setups = setup_samples(binary, w, -1, 1, SMOKE_SCALE, 2)
        reps = [timed_child(binary, w, -1, SMOKE_SCALE) for _ in range(2)]
        traced = traced_child(binary, w, -1,
                              os.path.join(HERE, "out", "smoke_trace_%s.json" % w),
                              SMOKE_SCALE)
        messages = correctness(reps, traced)[2]
        problems += ["%s: %s" % (w, m) for m in messages]
        e2e = e2e_values(e2e_samples(reps, setups))
        layer = per_layer(traced, e2e["run_s"])
        for values, units in ((e2e, END_TO_END), (layer, PER_LAYER)):
            for name, unit in units.items():
                if name in values and math.isfinite(values[name]):
                    print_metric(w, name, values[name], unit)
                else:
                    problems.append("%s: %s missing or not finite" % (w, name))
        for name, ns in traced["result"]["probes"].items():
            if not (math.isfinite(ns) and ns > 0):
                problems.append("%s: probe %s returned %r" % (w, name, ns))
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload for --seconds")
    ap.add_argument("--seed", type=int, default=-1,
                    help="base seed (-1 = the workload's default)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="--workload mode: how long to measure")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="--workload mode: 1 = per-layer metrics")
    ap.add_argument("--sets", type=int, default=1,
                    help="full suite: independent sets (2 = acceptance check)")
    ap.add_argument("--spread-seeds", type=int, default=0,
                    help="full suite: also run --workload mode on seeds 1..N")
    ap.add_argument("--out", default=os.path.join(HERE, "out", "BENCH_e2e.json"),
                    help="full suite: results file")
    ap.add_argument("--smoke", action="store_true", help="self-test")
    ap.add_argument("--binary", default=None,
                    help="use this mcc_e2e instead of building")
    args = ap.parse_args()

    binary = args.binary or build(ROOT, default_build_dir())
    out_dir = os.path.join(HERE, "out")
    if args.smoke:
        return smoke(binary)
    if args.workload:
        one_workload(binary, args.workload, args.seed, args.seconds,
                     args.trace, out_dir)
        return 0

    doc = {"schema": "mcc-e2e-bench/1", "host": host_info(binary),
           "repeats": REPEATS,
           "sets": [{"workloads": s}
                    for s in suite(binary, args.sets, out_dir)]}
    if doc["sets"]:
        print_set(doc["sets"][-1]["workloads"])
    if args.sets >= 2:
        sys.path.insert(0, HERE)
        import compare
        doc["acceptance"] = compare.acceptance(doc["sets"][0]["workloads"],
                                               doc["sets"][1]["workloads"])
        compare.print_acceptance(doc["acceptance"])
    if args.spread_seeds:
        doc["seed_spread"] = {"seconds": args.seconds,
                              "workloads": seed_spread(binary, args.spread_seeds,
                                                       args.seconds)}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    log("wrote " + args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
