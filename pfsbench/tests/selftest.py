#!/usr/bin/env python3
"""PFSBench self-test: does the benchmark load the system the way it claims?

    python3 pfsbench/tests/selftest.py

Run from the repository root; it builds like pfsbench/run.py does (plus
the repository's ppfs_run CLI) and checks:

  1. paper Fig. 4: paper_balanced_read with prefetch reaches at least 5x the
     sim_read_mbs of the same load without it, and agrees within 1% with
     `ppfs_run --request 64K --prefetch --delay 0.025` at the same 64 MB file;
  2. the correctness gate: an injected verification mismatch makes the
     benchmark exit nonzero with correct=false;
  3. the bypass design, from each workload's traced run: prefetch issues
     nothing outside paper_balanced_read, no token RPCs on the three read
     workloads, batch sweeps only on datapath_pipelined_read, and pattern
     work is a far smaller host share on scale_open_arrival than on
     paper_balanced_read; every traced digest equals the untraced one and
     every trace passes tools/ppfs_trace_check.py;
  4. seed plumbing: a second seed changes the simulated load (a different
     digest) of the workloads whose timing the seed drives (scale and
     checkpoint; the paper and datapath readers run in lockstep and their
     seed only changes the file contents) while each end-to-end metric stays
     within a factor of two.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

PAPER = "paper_balanced_read"
SCALE = "scale_open_arrival"
CKPT = "checkpoint_write"
DATA = "datapath_pipelined_read"
BENCH, SIDE = run.declarations()
METRICS = run.metric_table(BENCH, SIDE)

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(binary: Path, workload: str, seed: int, *extra: str) -> tuple[int, dict]:
    """One run of the benchmark binary; a tiny --seconds gives the minimum
    number of repetitions."""
    res = subprocess.run([str(binary), "--workload", workload, "--seed", str(seed),
                          "--seconds", "0.001", "--out", str(run.ROOT / ".bench_out"), *extra],
                         capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    return res.returncode, json.loads(res.stdout.strip().splitlines()[-1])


def ppfs_run_bandwidth(build_dir: Path) -> float:
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "ppfs_run", "-j", "4"],
                   check=True, capture_output=True, timeout=run.BUILD_TIMEOUT_S)
    out = subprocess.run([str(build_dir / "ppfs_run"), "--request", "64K", "--prefetch",
                          "--delay", "0.025", "--file", "64M"],
                         check=True, capture_output=True, text=True, timeout=120).stdout
    return float(re.search(r"observed read B/W\s+([0-9.]+) MB/s", out).group(1))


def main() -> int:
    binary = run.build()
    one = ("--trace", "0")

    # 1. Fig. 4 shape and agreement with ppfs_run.
    _, on = bench(binary, PAPER, 1, *one)
    _, off = bench(binary, PAPER, 1, *one, "--no-prefetch")
    mbs_on = on["metrics"]["sim_read_mbs"]
    mbs_off = off["metrics"]["sim_read_mbs"]
    check(mbs_on >= 5 * mbs_off,
          f"prefetch {mbs_on:.1f} MB/s >= 5 x no-prefetch {mbs_off:.1f} MB/s")
    ref = ppfs_run_bandwidth(binary.parent)
    check(abs(mbs_on - ref) <= 0.01 * ref,
          f"benchmark {mbs_on:.2f} MB/s within 1% of ppfs_run {ref:.2f} MB/s")

    # 2. The gate fires on a corrupt read.
    rc, bad = bench(binary, PAPER, 1, *one, "--inject-mismatch")
    check(rc != 0 and not bad["correct"] and bad["failed"] > 0,
          f"injected mismatch: exit {rc}, correct={bad['correct']}, failed={bad['failed']}")

    # 3. Bypass design and traced runs.
    layer: dict[str, dict] = {}
    for w in SIDE["workloads"]:
        rc, rep = bench(binary, w, 1, "--trace", "1")
        layer[w] = rep["metrics"]
        check(rc == 0 and rep["correct"] and rep["traced_digest"] == rep["digests"][0],
              f"{w}: traced run correct, traced digest {rep['traced_digest']} "
              f"== untraced {rep['digests'][0]}")
        check(run.check_traces(w, rep["trace_files"], SIDE["workloads"][w]["tracks"]),
              f"{w}: traces pass ppfs_trace_check")
        wanted = [n for n, d in METRICS.items() if d["kind"] == "per_layer"]
        check(all(n in layer[w] for n in wanted), f"{w}: every per-layer metric reported")
    for w in (SCALE, CKPT, DATA):
        check(layer[w]["prefetch.issued"] == 0, f"{w}: prefetch.issued == 0")
    check(layer[PAPER]["prefetch.issued"] > 0, "paper: prefetch.issued > 0")
    for w in (PAPER, SCALE, DATA):
        check(layer[w]["pfs.token.rpcs"] == 0, f"{w}: pfs.token.rpcs == 0")
    check(layer[CKPT]["pfs.token.rpcs"] > 0, "checkpoint: pfs.token.rpcs > 0")
    for w in (PAPER, SCALE, CKPT):
        check(layer[w]["pfs.server.batch_sweeps"] == 0, f"{w}: pfs.server.batch_sweeps == 0")
    check(layer[DATA]["pfs.server.batch_sweeps"] > 0, "datapath: batch sweeps > 0")
    scale_share = layer[SCALE]["workload.pattern.host_share"]
    paper_share = layer[PAPER]["workload.pattern.host_share"]
    check(scale_share < 0.25 * paper_share,
          f"pattern host share scale {scale_share:.3f} < 1/4 of paper {paper_share:.3f}")

    # 4. Seed plumbing.
    e2e = [n for n, d in METRICS.items() if d["kind"] == "end_to_end"]
    for w in SIDE["workloads"]:
        _, a = bench(binary, w, 1, "--trace", "0")
        _, b = bench(binary, w, 2, "--trace", "0")
        if w in (SCALE, CKPT):
            check(a["digests"][0] != b["digests"][0], f"{w}: seed 2 changes the digest")
        for n in e2e:
            x, y = a["metrics"][n], b["metrics"][n]
            check(x > 0 and 0.5 <= y / x <= 2, f"{w}: {n} seed 1 {x:.4g} vs seed 2 {y:.4g}")

    print(f"{len(failures)} failed check(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
