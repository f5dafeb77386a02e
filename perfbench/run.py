#!/usr/bin/env python3
"""The catenet benchmark: builds the library and the benchmark program from
source, runs a workload, checks it, and reports its metrics.

    python3 perfbench/run.py --workload soak_forward|tcp_bulk|rpc_churn|all
                             --seed N --seconds S --trace 0|1

Run it from the root of the repository. With --trace 0 it reports the
end-to-end metrics; with --trace 1 the per-layer metrics, the layers' self
times and the tracing overhead (see README.md in this directory). Every
metric is printed by name with its unit and sample count, followed by the
machine the run used. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run is appended to perfbench/results/runs.jsonl; traced runs also
leave their spans in perfbench/results/spans-<workload>-seed<N>.jsonl.
The exit status is 0 only when every correctness check passed, including
the check that a seed reproduces the signature an earlier run of the same
code recorded.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("soak_forward", "tcp_bulk", "rpc_churn")
ABLATION_SWITCHES = ("CATENET_NO_FIBFLAT", "CATENET_NO_OFFLOAD")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (out / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *generator,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(out), "--parallel", jobs,
                      "--target", *targets])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if proc.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})")
    return out


def cache_value(out, key):
    try:
        for line in (out / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def source_digest():
    """sha256 over the library and benchmark sources: names the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and RESULTS not in path.parents:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def box(out, seed):
    compiler = cache_value(out, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True, timeout=30).stdout.splitlines()[0]
        except (OSError, subprocess.SubprocessError, IndexError):
            version = compiler
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
        "commit": commit,
        "source_digest": source_digest(),
        "seed": seed,
    }


def earlier_signature(workload, seed, steps, digest):
    """The signature an earlier run of the same code, workload, seed and
    instance length recorded, if any."""
    try:
        lines = (RESULTS / "runs.jsonl").read_text().splitlines()
    except OSError:
        return None
    for line in reversed(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if (rec.get("workload") == workload and rec.get("seed") == seed
                and rec.get("steps_per_instance") == steps
                and rec.get("box", {}).get("source_digest") == digest):
            return rec.get("signature")
    return None


def run_workload(out, workload, seed, seconds, trace, info):
    RESULTS.mkdir(parents=True, exist_ok=True)
    report_path = out / f"report-{workload}.json"
    cmd = [str(out / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--out", str(report_path)]
    if trace:
        cmd += ["--spans", str(RESULTS / f"spans-{workload}-seed{seed}.jsonl")]
    load_start = os.getloadavg()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    load_end = os.getloadavg()
    if proc.returncode not in (0, 3) or not report_path.exists():
        fail(f"{workload} exited with status {proc.returncode}")
    report = json.loads(report_path.read_text())
    report_path.unlink()

    earlier = earlier_signature(workload, seed, report["steps_per_instance"],
                                info["source_digest"])
    same = earlier is None or earlier == report["signature"]
    report["checks"].append({
        "name": "same_signature_as_earlier_run", "ok": same,
        "detail": "" if same else f"earlier run of this code and seed: {earlier}"})
    report["correct"] = report["correct"] and same

    record = dict(report)
    record["time"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    record["trace"] = bool(trace)
    record["seconds"] = seconds
    record["box"] = dict(info, loadavg_start=load_start, loadavg_end=load_end)
    with open(RESULTS / "runs.jsonl", "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def print_report(rec, trace):
    b = rec["box"]
    print(f"== {rec['workload']}  seed {rec['seed']}  "
          f"{rec['instances']} instances x {rec['steps_per_instance']} steps"
          f"{' (alternate ones traced)' if trace else ''}")
    group = "per_layer" if trace else "end_to_end"
    for name, m in rec[group].items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']:<6} (n={m['samples']})")
    if not trace:
        ratio = rec["failed"] / rec["attempted"] if rec["attempted"] else 0.0
        print(f"  {'fail_ratio':<28} {ratio:>16.6g} {'ratio':<6} "
              f"(n={rec['attempted']})")
    for k, v in rec["notes"].items():
        print(f"  {k}: {v}")
    print(f"  signature {rec['signature']}")
    for c in rec["checks"]:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED ' + c['detail']}")
    print(f"  box: nproc {b['nproc']}, load {b['loadavg_start'][0]:.2f} -> "
          f"{b['loadavg_end'][0]:.2f}, {b['compiler']}, {b['build_type']}, "
          f"commit {b['commit'][:12]}, source {b['source_digest']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    for switch in ABLATION_SWITCHES:
        if switch in os.environ:
            fail(f"{switch} is set; the benchmark measures the shipped configuration only")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no catenet sources at {ROOT / 'src'}")

    if args.selftest:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.run([str(out / "perfbench_tests")]).returncode)

    out = build(["perfbench"])
    info = box(out, args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(out, w, args.seed, args.seconds, args.trace, info)
               for w in names]
    for rec in records:
        print_report(rec, args.trace)

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for name, m in rec[group].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
