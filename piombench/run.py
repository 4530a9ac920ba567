#!/usr/bin/env python3
"""piom-bench: build the benchmark, pin its environment, run one workload,
check the result against BENCHMARK.json and report it.

    python3 piombench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 piombench/run.py --smoke

Run from the root of a checkout. The build goes to .bench_build/piombench
(configured once, rebuilt incrementally). Human-readable lines come first;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (which also writes a
Chrome trace-event file under .bench_build/piombench/traces/).

--smoke runs every listed workload briefly in both modes, checks that
exactly the workload and metric names of BENCHMARK.json are emitted,
proves an injected wrong payload is counted as a failure, and exits
non-zero if anything failed.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "piombench")
BINARY = os.path.join(BUILD_DIR, "piombench")
OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo")


def die(msg, code=2):
    print("piombench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {SPEC_PATH}: {e}")


def build():
    """Configure once, then rebuild incrementally (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found: run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            die("build failed: " + " ".join(cmd))
    build_type = ""
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type not in OPTIMISED_BUILD_TYPES:
        die(f"refusing to report from build type '{build_type}'")


def pinned_env():
    """The caller's environment minus every PIOM_* variable: each knob the
    library reads there (backend, matcher, aggregation, overlay, fanout,
    sparse cut-over, tracing, logging) changes the measured program."""
    cleared = sorted(k for k in os.environ if k.startswith("PIOM_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIOM_")}
    return env, cleared


def run_binary(workload, seed, seconds, trace, trace_out=None, inject=False):
    """One run of the benchmark binary. Returns (exit code, result dict or
    None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if inject:
        cmd.append("--inject-fault")
    env, _ = pinned_env()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=2 * seconds + 90)
    except subprocess.TimeoutExpired:
        die(f"{workload}: run timed out", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def check_names(result, spec, trace):
    """Problems with the emitted metric set: exactly the BENCHMARK.json
    names of this mode, with their units, each a finite number."""
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    problems = []
    for name in sorted(set(wanted) - set(got)):
        problems.append(f"metric {name} not emitted")
    for name in sorted(set(got) - set(wanted)):
        problems.append(f"metric {name} emitted but not in BENCHMARK.json")
    for name in sorted(set(wanted) & set(got)):
        m = got[name]
        if m.get("unit") != wanted[name]:
            problems.append(f"metric {name}: unit {m.get('unit')} != "
                            f"{wanted[name]}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"metric {name}: value {v!r} is not a number")
    return problems


def check_trace_file(path):
    """Problems with a Chrome trace-event file."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"trace file {path}: {e}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return [f"trace file {path}: no traceEvents"]
    for ev in events:
        if ev.get("ph") != "X" or not all(k in ev for k in
                                          ("name", "ts", "dur", "pid", "tid")):
            return [f"trace file {path}: malformed event {ev}"]
    return []


def source_fingerprint():
    """Commit (when the checkout is a git repository) and a hash of src/."""
    commit = "unavailable (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def print_report(result, spec, trace, cleared):
    info = result.get("info", {})
    metrics = result.get("metrics", {})
    commit, src_hash = source_fingerprint()
    print(f"piom-bench {info.get('workload')} seed={info.get('seed'):.0f} "
          f"trace={int(trace)}")
    print(f"  host: nproc={info.get('nproc'):.0f} cpu='{info.get('cpu_model')}'")
    print(f"  build: {info.get('compiler')} {info.get('build_type')} "
          f"flags='{info.get('cxx_flags', '').strip()}' "
          f"sanitizer={info.get('sanitizer')}")
    print(f"  source: commit={commit} src_sha256={src_hash}")
    print(f"  config: engine={info.get('engine')} "
          f"workers={info.get('workers'):.0f} matcher={info.get('matcher')} "
          f"aggregation={info.get('aggregation')} "
          f"overlay={info.get('overlay')} wiring='{info.get('wiring')}'")
    print(f"  environment: every PIOM_* removed; cleared "
          f"{', '.join(cleared) or 'none'}")
    print(f"  checks: attempted={result.get('attempted')} "
          f"failed={result.get('failed')} "
          f"verifier_selfcheck='{info.get('verifier_selfcheck')}'")
    order = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    for name in order + sorted(set(metrics) - set(order)):
        m = metrics.get(name)
        if m is None:
            continue
        n = f" (n={m['samples']})" if m.get("samples") else ""
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{n}")
    extras = {k: v for k, v in info.items() if k.startswith("view.")}
    for key in sorted(extras):
        print(f"  {key:34s} {extras[key]:14.6g}")
    if trace and info.get("workload") == "pingpong_mt":
        # Where the one-way latency goes: wire floor, nmad above the wire,
        # then everything above nmad (Comm, engine, scheduler, wake-ups).
        comm = info.get("op_us.p50.untraced", 0.0)
        gate = metrics["nmad.gate_oneway_us.p50"]["value"]
        raw = metrics["transport.simnet_oneway_us.p50"]["value"]
        disp = metrics["sched.dispatch_us.p50"]["value"]
        print("  decomposition of lat_us.p50 (one-way, 4 B, simnet):")
        print(f"    Comm (untraced half)        {comm:12.2f} us")
        print(f"    nmad gate, caller-driven    {gate:12.2f} us")
        print(f"    transport, raw IChannel     {raw:12.2f} us")
        print(f"    sched dispatch pick-up      {disp:12.2f} us")
        if comm > 0:
            print(f"    above nmad: {comm - gate:.2f} us "
                  f"({100.0 * (comm - gate) / comm:.1f}% of lat_us.p50)")


def final_line(result, problems):
    metrics = {k: {"value": v["value"], "unit": v["unit"]}
               for k, v in result.get("metrics", {}).items()}
    return json.dumps({
        "correct": bool(result.get("correct")) and not problems,
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": metrics,
    })


def trace_path(workload, seed):
    d = os.path.join(BUILD_DIR, "traces")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, f"{workload}-seed{seed}.json")


def run_once(args, spec):
    build()
    _, cleared = pinned_env()
    out = trace_path(args.workload, args.seed) if args.trace else None
    code, result = run_binary(args.workload, args.seed, args.seconds,
                              args.trace, out)
    if result is None or "metrics" not in result:
        die(f"{args.workload}: no result (exit code {code})", 1)
    if code != 0:
        print(json.dumps(result), file=sys.stderr)
        die(f"{args.workload}: run aborted (exit code {code}): "
            f"{result.get('info', {}).get('aborted', '')}", 1)
    problems = check_names(result, spec, args.trace)
    if out:
        problems += check_trace_file(out)
    print_report(result, spec, args.trace, cleared)
    if out:
        print(f"  chrome trace: {os.path.relpath(out, ROOT)}")
    for p in problems:
        print("  PROBLEM: " + p)
    print(final_line(result, problems))
    return 1 if problems else 0


def smoke(spec):
    build()
    listed = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in listed:
        for trace in (False, True):
            out = trace_path(workload, 1) if trace else None
            code, result = run_binary(workload, 1, 1, trace, out)
            tag = f"{workload} trace={int(trace)}"
            if code != 0 or result is None:
                problems.append(f"{tag}: exit code {code}, no result")
                continue
            problems += [f"{tag}: {p}" for p in check_names(result, spec, trace)]
            if out:
                problems += [f"{tag}: {p}" for p in check_trace_file(out)]
            if result.get("failed", 1) != 0 or not result.get("correct"):
                problems.append(f"{tag}: {result.get('failed')} of "
                                f"{result.get('attempted')} operations failed")
            print(f"smoke {tag}: attempted={result.get('attempted')} "
                  f"failed={result.get('failed')}")
    # The failure path itself: one deliberately corrupted payload must be
    # counted and must make the run incorrect.
    code, result = run_binary(listed[0], 1, 1, False, inject=True)
    if code != 0 or result is None or result.get("failed", 0) < 1 \
            or result.get("correct"):
        problems.append(f"{listed[0]}: injected corrupt payload was not "
                        "counted as a failure")
    else:
        print(f"smoke {listed[0]} inject-fault: failed={result['failed']} "
              "(expected >= 1)")
    for p in problems:
        print("SMOKE PROBLEM: " + p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if not args.workload:
        die("--workload is required (or --smoke)")
    if not 1 <= args.seconds <= 60:
        die("--seconds must be within 1..60")
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
