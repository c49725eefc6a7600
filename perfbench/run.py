#!/usr/bin/env python3
"""Campaign benchmark: builds compi_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The first run configures and builds
the benchmark (with the library from src/) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs rebuild incrementally.

Prints a stamp line describing the host and build, then, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics.  `correct` also requires the first
campaign's iterations, covered branches and bugs to match the references in
perfbench/reference.json.  --smoke runs tiny campaigns and skips the
references (perfbench/smoke_test.py uses it).
"""
import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_SCALE = 0.02


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return out / "compi_perfbench"


def mount_of(path):
    """(mount point, fs type, options) of the filesystem holding `path`."""
    best = ("", "unknown", "")
    try:
        with open("/proc/mounts") as f:
            for line in f:
                _dev, mnt, fstype, opts = line.split()[:4]
                inside = str(path) == mnt or str(path).startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) >= len(best[0]):
                    best = (mnt, fstype, opts)
    except OSError:
        pass
    return best


def check_references(workload, seed, emitted):
    """Failures of the pinned first-campaign outputs for this seed."""
    with open(HERE / "reference.json") as f:
        ref = json.load(f)
    failures = []
    for key, want in ref["pinned"].get(workload, {}).get(str(seed), {}).items():
        if emitted[key] != want:
            failures.append(f"{key} = {emitted[key]}, pinned {want}")
    for key, floor in ref["floors"].get(workload, {}).items():
        if emitted[key + "_min"] < floor:
            failures.append(f"{key} = {emitted[key + '_min']} in some campaign, "
                            f"below the floor {floor}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny campaigns; skip the pinned references")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("no compi sources next to perfbench/: run from a full checkout")
        return 2
    out = build_dir()
    binary = build(out)
    if binary is None:
        log("build failed")
        return 2

    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    mnt, fstype, opts = mount_of(work.resolve())
    stamp = {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "loadavg_before": [round(x, 2) for x in os.getloadavg()],
        "session_fs": fstype,
        "session_fs_discard": "discard" in opts.split(","),
        "session_mount": mnt,
    }

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work-dir={work}"]
    if args.smoke:
        cmd.append(f"--scale={SMOKE_SCALE}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark binary failed (exit {proc.returncode})")
        return 1
    res = json.loads(lines[-1])

    stamp.update(res["stamp"])
    stamp["comparable"] = bool(stamp["ndebug"]) and not stamp["sanitizer"]
    failures = [] if args.smoke else check_references(
        args.workload, args.seed, res)
    for f in failures:
        log(f"REFERENCE MISMATCH: {args.workload} seed {args.seed}: {f}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}")
            return 1
        metrics[m["name"]] = got

    failed = min(res["attempted"], res["failed"] + (1 if failures else 0))
    print(json.dumps({"stamp": stamp, "workload": args.workload,
                      "seed": args.seed, "iterations": res["iterations"],
                      "covered_branches": res["covered_branches"],
                      "bugs_found": res["bugs_found"],
                      "covered_branches_min": res["covered_branches_min"],
                      "bugs_found_min": res["bugs_found_min"],
                      "trace_file": res["trace_file"]}))
    print(json.dumps({"correct": res["correct"] and not failures,
                      "attempted": res["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
