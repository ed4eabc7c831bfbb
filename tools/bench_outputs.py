#!/usr/bin/env python3
"""Runs every sweep bench and example at short smoke flags and keeps what
each one writes: stdout as NAME.txt, the --json file as NAME.json, and the
event trace of the traced runs as NAME.trace.

The simulator is deterministic, so two trees that should behave the same can
be compared file by file:

    python3 tools/bench_outputs.py out_a --build build_a
    python3 tools/bench_outputs.py out_b --build build_b
    diff -r out_a out_b

The list covers the 16 sweep benches at the CI smoke flags (plus a few more
attack-matrix, flash-crowd, session-farm and fig07 variants), the traced
fig07 and fig08e runs, and the five examples. Exits non-zero when any run
fails or a run leaves an output file missing.
"""

import argparse
import pathlib
import subprocess
import sys
import time

MATRIX_CI = [
    "--strategies=inflate_once,collusion,adaptive_pulse,adaptive_churn",
    "--topos=dumbbell", "--interface-keying=both", "--probation-memory=both",
    "--cm=both",
]

# (output name, binary, flags). Sweep benches also get --jobs=2 and --json;
# their outputs do not depend on the worker count. CI keeps the --json of
# attack_matrix_ci, flash_crowd_ci and session_farm_ci as its bench
# artifacts and rolling baseline.
SWEEPS = [
    ("attack_matrix_ci", "fig_attack_matrix", MATRIX_CI),
    ("attack_matrix_ci_ds", "fig_attack_matrix", MATRIX_CI + ["--mode=ds"]),
    ("attack_matrix_default", "fig_attack_matrix", []),
    ("attack_matrix_dl_all", "fig_attack_matrix",
     ["--mode=dl", "--strategies=all", "--topos=all"]),
    ("flash_crowd_ci", "fig_flash_crowd",
     ["--population=1000,1000000", "--topos=dumbbell"]),
    ("flash_crowd_short", "fig_flash_crowd",
     ["--population=1000,100000", "--topos=dumbbell", "--duration=40",
      "--flash-at=10", "--attack-at=20"]),
    ("session_farm_ci", "fig_session_farm", ["--cm=both"]),
    ("session_farm_short", "fig_session_farm",
     ["--sessions=2", "--topos=dumbbell", "--attacks=inflate_once",
      "--duration=60", "--attack-at=20", "--damage-window=20"]),
    ("multibottleneck", "fig_multibottleneck",
     ["--duration=40", "--inflate_at=20"]),
    ("fig08d_red", "fig08d_average_with_cross",
     ["--duration=30", "--max_sessions=1", "--repeats=1", "--qdisc=red"]),
    ("fig08d_codel", "fig08d_average_with_cross",
     ["--duration=30", "--max_sessions=1", "--repeats=1", "--qdisc=codel"]),
    ("fig08abc", "fig08abc_throughput_nocross",
     ["--duration=30", "--max_sessions=4"]),
    ("fig07_60s", "fig07_protection", ["--duration=60", "--inflate_at=20"]),
    ("fig07_default", "fig07_protection", []),
    ("fig07_best_effort_keyed", "fig07_protection",
     ["--attack-keys=best_effort", "--interface-keying=on"]),
    ("fig08e", "fig08e_responsiveness", ["--duration=20"]),
    ("fig01", "fig01_inflated_subscription",
     ["--duration=40", "--inflate_at=20"]),
    ("fig08f", "fig08f_heterogeneous_rtt", ["--duration=60"]),
    ("fig08gh", "fig08gh_convergence", []),
    ("fig09", "fig09_overhead", []),
    ("ablation_fec_rate", "ablation_fec_rate", ["--duration=60"]),
    ("ablation_key_guessing", "ablation_key_guessing", ["--trials=20000"]),
    ("ablation_slot_duration", "ablation_slot_duration",
     ["--duration=60", "--inflate_at=20"]),
    ("ablation_threshold_overhead", "ablation_threshold_overhead", []),
]

# Runs that also write an event trace (the sweep runner owns --trace).
TRACED = {"fig07_60s", "fig08e"}

EXAMPLES = ["quickstart", "attack_demo", "video_streaming",
            "webrc_style_session", "replicated_session"]


def run(cmd, stdout_path):
    with open(stdout_path, "wb") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE,
                              check=False)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=pathlib.Path)
    ap.add_argument("--build", type=pathlib.Path, default=pathlib.Path("build"),
                    help="directory holding the built binaries (default: build)")
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    runs = []
    for name, binary, flags in SWEEPS:
        expected = [f"{name}.txt", f"{name}.json"]
        cmd = [str(args.build / binary), *flags, "--jobs=2",
               f"--json={args.outdir / (name + '.json')}"]
        if name in TRACED:
            cmd.append(f"--trace={args.outdir / (name + '.trace')}")
            expected.append(f"{name}.trace")
        runs.append((name, cmd, expected))
    for name in EXAMPLES:
        runs.append((name, [str(args.build / name)], [f"{name}.txt"]))

    failed = []
    for name, cmd, expected in runs:
        t0 = time.monotonic()
        proc = run(cmd, args.outdir / f"{name}.txt")
        secs = time.monotonic() - t0
        missing = [f for f in expected if not (args.outdir / f).is_file()]
        ok = proc.returncode == 0 and not missing
        print(f"{'ok  ' if ok else 'FAIL'} {name:30s} {secs:6.1f} s", flush=True)
        if not ok:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            if missing:
                sys.stderr.write(f"{name}: missing {', '.join(missing)}\n")
            failed.append(name)
    if failed:
        print(f"{len(failed)} of {len(runs)} runs failed: {', '.join(failed)}")
        return 1
    print(f"all {len(runs)} runs wrote their outputs to {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
