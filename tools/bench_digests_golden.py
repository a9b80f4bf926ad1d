#!/usr/bin/env python3
"""Rerun the digest-bearing benchmarks and compare them with the committed
BENCH_*.json files.

Every row's `digest` and `events`, and the sharded run's `digest_serial` /
`digest_parallel`, must equal the committed values bit for bit. Timings,
ratios and gate verdicts are not compared: they depend on the host. The
committed files are only read, never rewritten.

    bench_digests_golden.py --repo <root> --ppfs-perf <exe>
        --bench-write-scaling <exe> --bench-recovery <exe> --bench-datapath <exe>

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


def compare(name, golden, fresh, problems):
    """Append one line per differing value; return the rows compared."""
    rows = 0
    g_rows, f_rows = golden.get("rows", []), fresh.get("rows", [])
    if len(g_rows) != len(f_rows):
        problems.append(f"{name}: {len(f_rows)} rows, committed {len(g_rows)}")
    for i, (g, f) in enumerate(zip(g_rows, f_rows)):
        rows += any(key in g for key in ROW_KEYS)
        for key in ROW_KEYS:
            if key in g and f.get(key) != g[key]:
                problems.append(f"{name} row {i} {key}: {f.get(key)} != committed {g[key]}")
    if "sharded" in golden:
        for key in SHARDED_KEYS:
            got = fresh.get("sharded", {}).get(key)
            if got != golden["sharded"][key]:
                problems.append(f"{name} sharded {key}: {got} != committed "
                                f"{golden['sharded'][key]}")
    return rows


def run(cmd):
    # Gate verdicts (events/sec floors, speedups) are host-dependent, so the
    # exit status is reported but only the written digests decide.
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=False)
    if proc.returncode != 0:
        print(f"note: {os.path.basename(cmd[0])} exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", required=True)
    ap.add_argument("--ppfs-perf", required=True)
    ap.add_argument("--bench-write-scaling", required=True)
    ap.add_argument("--bench-recovery", required=True)
    ap.add_argument("--bench-datapath", required=True)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="bench_digests_") as tmp:
        perf_dir = os.path.join(tmp, "perf")
        os.mkdir(perf_dir)
        run([args.ppfs_perf, "--jobs", "4", "--out-dir", perf_dir])
        run([args.bench_write_scaling, "--json", os.path.join(tmp, "BENCH_write.json")])
        run([args.bench_recovery, "--json", os.path.join(tmp, "BENCH_recovery.json")])
        run([args.bench_datapath, "--jobs", "4",
             "--json", os.path.join(tmp, "BENCH_datapath.json")])

        # ppfs_perf's own BENCH_write.json is a two-row subset of the
        # bench_write_scaling grid; the committed file is the full grid.
        fresh = {name: os.path.join(perf_dir, name) for name in (
            "BENCH_kernel.json", "BENCH_sweep.json", "BENCH_datapath_gate.json",
            "BENCH_prefetch.json", "BENCH_scale.json")}
        for name in ("BENCH_write.json", "BENCH_recovery.json", "BENCH_datapath.json"):
            fresh[name] = os.path.join(tmp, name)

        problems, checked = [], 0
        for name, path in sorted(fresh.items()):
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
