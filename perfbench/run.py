#!/usr/bin/env python3
"""Build bsrng from this checkout and run one workload of its benchmark.

    python3 perfbench/run.py --workload bulk_fill|serve_stream|serve_small \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # all three workloads in seconds
    python3 perfbench/run.py --selftest  # the benchmark's own unit tests

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
builds the repository's libraries and bsrngd with the repository's flags.
Build trees go to .bench_build/ and records to .bench_out/, both under the
checkout root.  The last line of standard output is the result object of
bsrng_perfbench; build logs go to standard error.  The exit status is the
benchmark's: 0 only when every op was verified against the canonical
stream.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("bulk_fill", "serve_stream", "serve_small")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def build(targets):
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"no bsrng source tree at {ROOT} (missing {need})")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd), 1)


def run_bench(workload, seed, seconds, trace, smoke=False):
    """Run bsrng_perfbench in its own process group; return (code, stdout)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "bsrng_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--bsrngd", os.path.join(BUILD, "bsrng", "tools", "bsrngd"),
           "--out-dir", OUT, "--commit", source_id()]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload, untraced and traced, at toy size")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    if args.selftest:
        build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode)
    if args.smoke:
        build(["bsrng_perfbench", "bsrngd"])
        worst = 0
        for w in WORKLOADS:
            for trace in (0, 1):
                code, out = run_bench(w, args.seed, 2, trace, smoke=True)
                last = out.strip().splitlines()[-1:] or ["(no result)"]
                print(f"{w} trace={trace} exit={code} {last[0][:160]}")
                worst = max(worst, code)
        sys.exit(worst)
    if args.workload is None:
        ap.error("--workload is required (or --smoke / --selftest)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build(["bsrng_perfbench", "bsrngd"])
    code, out = run_bench(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
