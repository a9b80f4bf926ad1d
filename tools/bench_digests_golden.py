#!/usr/bin/env python3
"""Rerun ppfs_perf and compare its output with the committed BENCH_*.json
files.

Every row's `digest` and `events`, and the sharded run's `digest_serial` /
`digest_parallel`, must equal the committed values bit for bit. The key
sets must match too: the top-level keys, the keys of every row and the
keys of the `sharded` object. Timings, ratios and gate verdicts are not
compared: they depend on the host. The committed files are only read,
never rewritten.

    bench_digests_golden.py --repo <root> --ppfs-perf <exe>

Exit 0 when every value matches, 1 on any mismatch or missing output.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROW_KEYS = ("digest", "events")
SHARDED_KEYS = ("digest_serial", "digest_parallel", "events")
BENCH_FILES = ("BENCH_datapath.json", "BENCH_datapath_gate.json", "BENCH_kernel.json",
               "BENCH_prefetch.json", "BENCH_recovery.json", "BENCH_scale.json",
               "BENCH_sweep.json", "BENCH_write.json")


def compare_keys(where, golden, fresh, problems):
    """Append a line when two objects differ in their key sets."""
    missing, extra = golden.keys() - fresh.keys(), fresh.keys() - golden.keys()
    if missing or extra:
        problems.append(f"{where} keys: missing {sorted(missing)}, extra {sorted(extra)}")


def compare(name, golden, fresh, problems):
    """Append one line per differing value or key set; return the rows compared."""
    rows = 0
    compare_keys(name, golden, fresh, problems)
    g_rows, f_rows = golden.get("rows", []), fresh.get("rows", [])
    if len(g_rows) != len(f_rows):
        problems.append(f"{name}: {len(f_rows)} rows, committed {len(g_rows)}")
    for i, (g, f) in enumerate(zip(g_rows, f_rows)):
        compare_keys(f"{name} row {i}", g, f, problems)
        rows += any(key in g for key in ROW_KEYS)
        for key in ROW_KEYS:
            if key in g and f.get(key) != g[key]:
                problems.append(f"{name} row {i} {key}: {f.get(key)} != committed {g[key]}")
    if "sharded" in golden:
        compare_keys(f"{name} sharded", golden["sharded"], fresh.get("sharded", {}), problems)
        for key in SHARDED_KEYS:
            got = fresh.get("sharded", {}).get(key)
            if got != golden["sharded"][key]:
                problems.append(f"{name} sharded {key}: {got} != committed "
                                f"{golden['sharded'][key]}")
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", required=True)
    ap.add_argument("--ppfs-perf", required=True)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="bench_digests_") as tmp:
        # Gate verdicts (events/sec floors, speedups) are host-dependent, so
        # the exit status is reported but only the written files decide.
        proc = subprocess.run([args.ppfs_perf, "--jobs", "4", "--out-dir", tmp],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, check=False)
        if proc.returncode != 0:
            print(f"note: ppfs_perf exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)

        problems, checked = [], 0
        for name in BENCH_FILES:
            path = os.path.join(tmp, name)
            if not os.path.exists(path):
                problems.append(f"{name}: not written")
                continue
            with open(os.path.join(args.repo, name), encoding="utf-8") as f:
                golden = json.load(f)
            with open(path, encoding="utf-8") as f:
                checked += compare(name, golden, json.load(f), problems)

    for p in problems:
        print(f"MISMATCH {p}")
    print(f"bench_digests_golden: {checked} rows checked, {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
