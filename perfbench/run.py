#!/usr/bin/env python3
"""Runs the tats benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary (``perfbench/``, which compiles the repo's
crates from source into ``$CARGO_TARGET_DIR``, default ``.bench_build``),
runs the workload in a process of its own, checks its outputs, and prints
every metric by name with its unit. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` first runs the workload untraced for half the time, then
runs the same units traced in a second process, and reports the per-layer
metrics. See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("campaign-cosyn", "service-platform")
# A second workload seed, kept out of tuning so later claims can be
# re-checked on inputs nobody tuned against.
HELD_OUT_SEED = 7919
# A run must end within 180 s; stop a workload process well before that.
PROCESS_TIMEOUT_S = 170
SOURCE_DIRS = ("crates", "vendor", "src", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}")


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Builds the benchmark binary; exits non-zero if the sources are not there."""
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repo's crates/ directory is missing; nothing to benchmark")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    result = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if result.returncode != 0:
        fail(f"cargo build failed with code {result.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds (a checkout has no .git)."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, name) for name in SOURCE_FILES]
    for top in SOURCE_DIRS:
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = sorted(d for d in subdirs if d not in ("target", ".git"))
            paths.extend(os.path.join(directory, name) for name in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def command_output(argv):
    try:
        result = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "not a git checkout",
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def run_workload(binary, args):
    """Runs one workload process; returns its JSON result, rusage and wall."""
    started = time.monotonic()
    process = subprocess.Popen([binary, *args], cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(PROCESS_TIMEOUT_S, process.kill)
    timer.start()
    try:
        output = process.stdout.read().decode("utf-8", "replace")
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        timer.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    process.stdout.close()
    wall = time.monotonic() - started
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        fail(f"workload process exited with code {process.returncode}")
    try:
        return json.loads(lines[-1]), usage, wall
    except ValueError:
        fail("workload process printed no result")


def read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny runs each workload at a smoke-test size")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))

    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    # A traced run spends half its time on an untraced reference pass and
    # half on the traced pass over the same units.
    seconds = args.seconds / 2 if args.trace else args.seconds
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(seconds), "--scale", args.scale]
    untraced, usage, wall = run_workload(
        binary, common + ["--trace", "0", "--out", os.path.join(out, "untraced")])
    attempted = untraced["attempted"]
    failed = untraced["failed"] + untraced["checks_failed"]
    measured = dict(untraced["metrics"])

    if args.trace:
        traced, _, _ = run_workload(binary, common + [
            "--trace", "1", "--units", str(untraced["units"]),
            "--out", os.path.join(out, "traced")])
        attempted += traced["attempted"]
        failed += traced["failed"] + traced["checks_failed"]
        # Same inputs, same outputs: the traced record set equals the
        # untraced one, and the traced run's caches did the same work.
        if read_lines(untraced["records_file"]) != read_lines(traced["records_file"]):
            print("check failed: traced records differ from untraced", file=sys.stderr)
            failed += 1
        if untraced["refused"] != traced["refused"]:
            print("check failed: refused scenarios differ traced/untraced", file=sys.stderr)
            failed += 1
        for name in ("engine.cache_misses", "engine.cache_hit_rate"):
            if untraced["metrics"].get(name) != traced["metrics"].get(name):
                print(f"check failed: {name} differs traced/untraced", file=sys.stderr)
                failed += 1
        measured.update(traced["metrics"])
        cpu = usage.ru_utime + usage.ru_stime
        measured.update({
            "process.cpu_user_s": usage.ru_utime,
            "process.cpu_sys_s": usage.ru_stime,
            "process.ctx_switches": float(usage.ru_nvcsw + usage.ru_nivcsw),
            "process.cpu_per_wall": cpu / wall,
            "trace_overhead": traced["metrics"]["traced_scenarios_per_s"]
            / untraced["metrics"]["scenarios_per_s"],
        })
        measured["error_ratio"] = failed / max(attempted, 1)
        wall_ms = traced["traced_wall_ms"]
        print(f"layer table ({args.workload}, traced wall {wall_ms:.3f} ms):")
        print(f"  {'layer':<14}{'self ms':>14}{'share':>10}{'spans':>10}")
        for name, self_ms, share, spans in traced["layers"]:
            print(f"  {name:<14}{self_ms:>14.3f}{share:>10.4f}{spans:>10}")
        unattributed = measured["unattributed_ms"]
        print(f"  {'unattributed':<14}{unattributed:>14.3f}"
              f"{measured['unattributed_share']:>10.4f}")
        print(f"  trace_overhead {measured['trace_overhead']:.4f}"
              " (traced / untraced scenarios_per_s)")
        print(f"  spans: {traced['spans_file']}")
        wanted = spec["per_layer"]
    else:
        print(f"latency_p50_ms and latency_tail_ms are medians over "
              f"{untraced['windows']} windows of {untraced['window']} consecutive samples "
              f"of each window's p50 and p{fmt(untraced['tail_percentile'])}; "
              f"{untraced['latency_samples']} samples in all, whole-run quantiles (ms): "
              + json.dumps(untraced["latency_quantiles_ms"]))
        wanted = spec["end_to_end"]

    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name not in measured:
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": measured[name], "unit": unit}
        print(f"{name} = {fmt(measured[name])} {unit}")
    print(f"error_ratio = {fmt(failed / max(attempted, 1))} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(f"refused = {untraced['refused']} scenario(s) the flow rejected as "
          "unschedulable inputs, left out of the workload")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
