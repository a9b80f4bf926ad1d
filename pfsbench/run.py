#!/usr/bin/env python3
"""PFSBench: build the simulator from source and run one benchmark workload.

    python3 pfsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds pfsbench/ (which
compiles ../src) into $CARGO_TARGET_DIR or .bench_build, runs one workload
in one single-threaded process, and prints every metric it measured with
its unit, the seed and the event digests. With --trace 1 it also checks the
traced run's three Chrome traces (written to .bench_out/) with
tools/ppfs_trace_check.py.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. The exit status is 0 only when every
operation succeeded and verified, every digest repeated, the traced digest
equals the untraced one and the traces pass the checker.

Metric names, units and directions are read from BENCHMARK.json; each
metric's layer and each workload's required trace tracks from
pfsbench/metrics.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150
CHECK_TIMEOUT_S = 60


def fail(msg: str, code: int = 1) -> int:
    print(f"pfsbench: error: {msg}", file=sys.stderr)
    return code


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build() -> Path:
    """Configure (once) and build the benchmark; returns the binary path."""
    out = build_dir() / "pfsbench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "pfsbench", "-j", jobs])
    with log.open("w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "pfsbench"


def declarations() -> tuple[dict, dict]:
    """BENCHMARK.json and pfsbench/metrics.json, parsed."""
    return (json.loads((ROOT / "BENCHMARK.json").read_text()),
            json.loads((HERE / "metrics.json").read_text()))


def metric_table(bench: dict, side: dict) -> dict[str, dict]:
    """name -> {kind, unit, layer} for every metric BENCHMARK.json declares."""
    layer_of = {m: layer for layer, d in side["layers"].items() for m in d["metrics"]}
    table = {m["name"]: {"kind": kind, "unit": m["unit"], "layer": layer_of.get(m["name"])}
             for kind in ("end_to_end", "per_layer") for m in bench[kind]}
    unplaced = sorted(n for n, d in table.items() if d["layer"] is None)
    if unplaced or len(layer_of) != len(table):
        raise ValueError(f"metrics.json layers disagree with BENCHMARK.json: {unplaced}")
    return table


def check_traces(workload: str, files: list[str], tracks: str) -> bool:
    ok = True
    checker = ROOT / "tools" / "ppfs_trace_check.py"
    for i, path in enumerate(files):
        cmd = [sys.executable, str(checker), path]
        if i == 0:  # the simulator's own trace
            cmd += ["--require-tracks", tracks]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHECK_TIMEOUT_S)
        print((res.stdout + res.stderr).strip())
        ok = ok and res.returncode == 0
    return ok


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0", 2)
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        return fail(f"no simulator sources under {ROOT / 'src'}", 2)

    try:
        bench, side = declarations()
        declared = metric_table(bench, side)
        if args.workload not in side["workloads"]:
            return fail(f"unknown workload {args.workload}", 2)
        binary = build()
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        return fail(str(e))

    out_dir = ROOT / ".bench_out"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out_dir)]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(res.stdout)
        return fail(f"{args.workload} exited {res.returncode} without a report")
    for line in lines[:-1]:
        print(line)

    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [n for n, d in declared.items() if d["kind"] == kind]
    measured = report["metrics"]
    undeclared = sorted(set(measured) - set(declared))
    missing = sorted(set(wanted) - set(measured))
    if undeclared or missing:
        return fail(f"metric sets disagree: undeclared {undeclared}, missing {missing}")

    tracks = side["workloads"][args.workload]["tracks"]
    traces_ok = check_traces(args.workload, report["trace_files"], tracks) if args.trace else True
    correct = bool(report["correct"]) and res.returncode == 0 and traces_ok

    print(f"workload {args.workload}  seed {args.seed}  repetitions {report['reps']}  "
          f"digest {report['digests'][0]}"
          + (f"  traced digest {report['traced_digest']}" if args.trace else ""))
    print(f"{'metric':42} {'value':>18}  {'unit':8} layer")
    for name in sorted(measured, key=lambda n: (declared[n]["layer"], n)):
        d = declared[name]
        print(f"{name:42} {measured[name]:18.6g}  {d['unit']:8} {d['layer']}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": measured[n], "unit": declared[n]["unit"]} for n in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
