#!/usr/bin/env python3
"""Bench flag rejection: a bad flag value fails at parse time.

Each case runs one bench binary with one bad value and asserts that it
exits with status 1 and the one bad-flag message format
(`bad value for --NAME: ...`) before any grid point runs: nothing on stdout
(benches print their tables only after the sweep) and well under a second of
wall clock.

Usage: bench_flag_rejection.py BIN_DIR
"""
import subprocess
import sys
import time
from pathlib import Path

# (bench, args, flag name the message must carry)
CASES = [
    ("fig_session_farm", ["--sessions=2.5"], "sessions"),
    ("fig_flash_crowd", ["--topos=dumbell"], "topos"),
    ("fig_attack_matrix", ["--strategies=inflate"], "strategies"),
    ("fig07_protection", ["--attack-keys=guessing"], "attack-keys"),
    ("fig07_protection", ["--duration=50", "--inflate_at=45"],
     "duration/--inflate_at"),
    ("fig_attack_matrix", ["--flap-period=2.5"], "flap-period"),
    ("fig08abc_throughput_nocross", ["--max_sessions=0"], "max_sessions"),
    ("fig08d_average_with_cross", ["--repeats=1.5"], "repeats"),
    ("fig_session_farm", ["--check-sessions=2.5"], "check-sessions"),
    ("fig01_inflated_subscription", ["--inflate_level=1.5"], "inflate_level"),
    ("ablation_key_guessing", ["--trials=2.5"], "trials"),
    ("ablation_threshold_overhead", ["--jobs=0"], "jobs"),
]

MAX_WALL_S = 1.0


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    bin_dir = Path(sys.argv[1])
    failures = []
    for bench, args, flag in CASES:
        cmd = [str(bin_dir / bench)] + args
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        wall = time.monotonic() - start
        label = " ".join([bench] + args)
        expected = f"bad value for --{flag}"
        if proc.returncode != 1:
            failures.append(f"{label}: exit {proc.returncode}, want 1")
        if expected not in proc.stderr:
            failures.append(f"{label}: stderr lacks '{expected}':\n"
                            f"{proc.stderr[:400]}")
        if proc.stdout:
            failures.append(f"{label}: printed results, so a grid point ran")
        if wall > MAX_WALL_S:
            failures.append(f"{label}: took {wall:.2f} s, want < {MAX_WALL_S}")
        print(f"{label}: exit {proc.returncode} in {wall * 1e3:.1f} ms")
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
