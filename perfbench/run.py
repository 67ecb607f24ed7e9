#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/NOTES.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-solo --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test     # the benchmark's own unit tests

The library and the benchmark binary are built in Release under .bench_build/perfbench
(the first run builds, later runs only re-check).  The binary's report goes
to standard output; its last line is the JSON result, re-checked here.
With --trace 1 the Chrome trace is written under .bench_build/traces and
validated before the result is printed.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
# Passed to the binary relative to ROOT, its working directory.
WORK = Path(".bench_build") / "work"
TRACES = Path(".bench_build") / "traces"
WORKLOADS = ("paper-solo", "paper-16rank-2t", "farm-mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr (stdout carries results)."""
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        die(f"build step failed: {' '.join(map(str, cmd))}: {e}")


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "core" / "v2d.hpp").is_file():
        die(f"no v2dsve sources under {ROOT}; run from a source checkout")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and \
            f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH}" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    if not cache.is_file():
        run_logged(["cmake", "-S", BENCH, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD, "-j", "4", "--target", target],
               BUILD_TIMEOUT_S)
    return BUILD / target


def check_trace(path):
    """Return a list of problems with a Chrome trace-event file."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        return [f"trace {path} is not valid JSON: {e}"]
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        return [f"trace {path} has no traceEvents"]
    problems = []
    ids = {e.get("args", {}).get("id") for e in events if isinstance(e, dict)}
    run_ids = set()
    for e in events:
        args = e.get("args", {}) if isinstance(e, dict) else {}
        ok = (isinstance(e, dict) and isinstance(e.get("name"), str)
              and e.get("ph") == "X"
              and isinstance(e.get("ts"), (int, float))
              and isinstance(e.get("dur"), (int, float)) and e["dur"] >= 0
              and "pid" in e and "tid" in e
              and (args.get("parent") == -1 or args.get("parent") in ids))
        if not ok:
            problems.append(f"malformed trace event: {e}")
            break
        run_ids.add(args.get("run_id"))
    if len(run_ids) != 1:
        problems.append(f"trace spans carry {len(run_ids)} run ids")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's unit tests")
    a = ap.parse_args()

    if a.self_test:
        exe = build("perfbench_tests")
        sys.exit(subprocess.run([exe], cwd=ROOT).returncode)
    if a.workload is None:
        die("--workload is required")

    exe = build("perfbench")
    (ROOT / WORK).mkdir(parents=True, exist_ok=True)
    (ROOT / TRACES).mkdir(parents=True, exist_ok=True)
    trace_path = TRACES / f"{a.workload}-seed{a.seed}.json"
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", WORK, "--trace-out", trace_path]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"benchmark exceeded {RUN_TIMEOUT_S} s", 3)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(out)
        die(f"benchmark exited {proc.returncode} without a result",
            proc.returncode or 2)

    for line in lines[:-1]:
        print(line)
    if a.trace:
        problems = check_trace(ROOT / trace_path)
        for p in problems:
            print(f"trace check failed: {p}")
        if problems:
            result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
