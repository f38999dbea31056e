#!/usr/bin/env python3
"""End-to-end benchmark of the OpenDRC engine (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. Builds the engine and the benchmark
driver into .bench_build/ (Release), generates the inputs from --seed into
.bench_work/ in a process of its own, runs the workload in another, checks its outputs and prints one JSON
object as the last line of stdout. --trace 1 runs the traced pass and reports
the per-layer metrics instead of the end-to-end ones.
"""
import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
WORK = os.path.join(ROOT, ".bench_work")
DECK = os.path.join("decks", "asap7.deck")

WORKLOADS = ("signoff-par-jpeg", "serve-edit-aes")

END_TO_END = {
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "gdsii.read_s": "s",
    "engine.snapshot_s": "s",
    "engine.check_s": "s",
    "report.write_s": "s",
    "pipeline.pack_ms": "ms",
    "pipeline.pack_max_ms": "ms",
    "engine.pair_group_self_ms": "ms",
    "pipeline.device_wait_ms": "ms",
    "device.kernel_ms": "ms",
    "device.kernels_launched": "count",
    "device.bytes_h2d": "bytes",
    "sweep.edges_uploaded": "count",
    "pipeline.partition_ms": "ms",
    "engine.intra_ms": "ms",
    "engine.pair_group_ms": "ms",
    "sweep.edge_pairs_tested": "count",
    "engine.global_ms": "ms",
    "serve.apply_ms": "ms",
    "serve.recheck_ms": "ms",
    "serve.wire_ms": "ms",
    "subs.push_lag_ms": "ms",
    "serve.windows_per_recheck": "count",
    "serve.purged_per_recheck": "count",
    "serve.inserted_per_recheck": "count",
    "serve.open_s": "s",
    "process.minor_faults": "count",
    "op_tail_ms": "ms",
    "query_p50_ms": "ms",
    "trace.overhead_s": "s",
}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def thread_settings():
    """Worker pools pinned so their threads add up to the cores available."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    host = max(1, cores // 2)
    device = max(1, cores - host)
    return cores, {"ODRC_WORKERS": str(host), "ODRC_DEVICE_SMS": str(device)}


def build():
    """Configure once, then an incremental build of the two programs."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench_build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "odrc", "odrc_perfbench", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd), 1)


def binary(name):
    for sub in ("", "odrc/tools"):
        path = os.path.join(BUILD, sub, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            return path
    fail("built program %s not found under %s" % (name, BUILD), 1)


def provenance(cores, env):
    """One line naming the build and host the figures come from."""
    sha = "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    compiler = build_type = "unknown"
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        text = open(cache).read()
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", text, re.M)
        compiler = m.group(1) if m else compiler
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", text, re.M)
        build_type = m.group(1) if m else build_type
    try:
        ver = subprocess.run([compiler, "--version"], capture_output=True, text=True, timeout=10)
        compiler = ver.stdout.splitlines()[0] if ver.returncode == 0 else compiler
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"git_sha": sha, "compiler": compiler, "build_type": build_type,
            "nproc": cores, "machine": platform.machine(),
            "ODRC_WORKERS": env["ODRC_WORKERS"], "ODRC_DEVICE_SMS": env["ODRC_DEVICE_SMS"]}


def run_harness(args, env):
    os.makedirs(WORK, exist_ok=True)
    cmd = [binary("odrc_perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--odrc", os.path.relpath(binary("odrc"), ROOT), "--deck", DECK,
           "--work", os.path.relpath(WORK, ROOT)]
    # Generation is a process of its own, so the measured set-up holds none of it.
    if subprocess.run(cmd + ["--generate", "1"], cwd=ROOT, env=env, timeout=60).returncode != 0:
        fail("generating the inputs failed", 1)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=150)
    except subprocess.TimeoutExpired:
        fail("workload did not finish in time", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver exited with status %d" % proc.returncode, 1)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="prove every output check can fail, then exit")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"), DECK):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from the root of a full source checkout" % need)

    cores, pinned = thread_settings()
    env = dict(os.environ, **pinned)
    t_build = time.monotonic()
    build()
    info = provenance(cores, pinned)
    info["build_s"] = round(time.monotonic() - t_build, 2)
    print("provenance " + json.dumps(info, sort_keys=True))

    if args.self_test:
        rc = subprocess.run([binary("perfbench_selftest"), DECK], cwd=ROOT, env=env).returncode
        sys.exit(rc)

    res = run_harness(args, env)
    for p in res["problems"]:
        print("problem: " + p)
    print("raw " + json.dumps(res["raw"], sort_keys=True))
    metrics = dict(res["metrics"])
    if args.trace:
        for path in res["trace_files"]:
            metrics.update(spans.layer_metrics(os.path.join(ROOT, path), args.workload,
                                               res["raw"]))
        table = PER_LAYER
    else:
        table = END_TO_END
    out = {}
    for name, unit in table.items():
        if name not in metrics:
            fail("metric %s was not measured" % name, 1)
        out[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": out}))


if __name__ == "__main__":
    main()
