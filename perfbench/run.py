#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload sweep|scan|serve --seed N \
      --seconds S --trace 0|1

The first run configures and builds perfbench/ (the library modules under
src/ plus the perfbench program) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild only what changed. Build output
goes to stderr. The program's report goes to stdout; its last line is the
result object. When BENCHMARK.json is present, the result's metric names
and units are checked against it. A traced result lacks the per-layer rows
of layers its workload never calls (NOT_CALLED below); they are added with
the value 0, and named on an info line.
"""
import argparse
import fnmatch
import json
import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
RUN_TIMEOUT_S = 170

# Per-layer rows of layers a workload's code never calls. The traced result
# must report every other declared row and none of these.
PROBE_SCAN = ["probe.scan_s", "probe.targets", "probe.deduped",
              "probe.probed", "probe.packets", "probe.hits",
              "probe.hit_ratio", "probe.packets_per_probe"]
SWEEP_RUN = ["probe.sweep_scan_s", "dealias.output_s",
             "experiment.run_other_s"]
NOT_CALLED = {
    "sweep": ["service.*", "perfbench.targets_s"] + PROBE_SCAN,
    "scan": ["tga.*", "service.*", "seeds.*", "experiment.precompute_s"]
            + SWEEP_RUN,
    # HitlistService builds its TGAs itself, so the benchmark cannot wrap
    # them; their time is inside service.refresh_s and service.ingest_s.
    "serve": ["tga.*", "perfbench.targets_s"] + PROBE_SCAN + SWEEP_RUN,
}


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "scan", "serve"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")
    return args


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = REPO / base
    return base / "perfbench"


def build(out):
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources under {REPO / 'src'}; run from a full "
            "checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        die("build failed")


def source_id():
    """The git commit of the checkout, or 'unknown' outside a repository."""
    try:
        head = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def conform(result, workload, trace):
    """Checks the result's metrics against BENCHMARK.json; returns the
    names of the per-layer rows added as 0."""
    spec_path = REPO / "BENCHMARK.json"
    if not spec_path.is_file():
        return []
    spec = json.loads(spec_path.read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if declared.get(name) != metric["unit"]:
            die(f"metric {name} ({metric['unit']}) is not declared in "
                "BENCHMARK.json", 3)
    not_called = [name for name in declared if trace and any(
        fnmatch.fnmatchcase(name, p) for p in NOT_CALLED[workload])]
    reported = [name for name in not_called if name in metrics]
    if reported:
        die(f"{workload} reports rows listed as not called: "
            f"{', '.join(reported)}", 3)
    missing = [name for name in declared
               if name not in metrics and name not in not_called]
    if missing:
        die(f"metrics missing: {', '.join(missing)}", 3)
    for name in not_called:
        metrics[name] = {"value": 0.0, "unit": declared[name]}
    return not_called


def main():
    args = parse_args()
    out = build_dir()
    build(out)
    records = out / "records"
    records.mkdir(exist_ok=True)
    record = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    command = [str(out / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", source_id(),
               "--record", str(record)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        die(f"perfbench exited with status {run.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("perfbench's last line is not a result object", 3)
    zeroed = conform(result, args.workload, args.trace == 1)
    print("\n".join(lines[:-1]))
    if zeroed:
        print(f"  info   not called by {args.workload}, reported as 0: "
              f"{len(zeroed)} rows ({', '.join(zeroed)})")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
