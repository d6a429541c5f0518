#!/usr/bin/env python3
"""SilverStack end-to-end benchmark.

    python3 silverbench/run.py --workload oneshot|longrun|cosim|svc|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the benchmark (a CMake project
of its own over ../src, Release) into .bench_build/silverbench, then runs
one workload (or each in turn, for "all") for S seconds.  The last line of stdout is the result
object; the host stamp, details and (with --trace 1) the spans are also
written to .bench_build/results/.  Everything the run writes stays under
.bench_build/, and the compiled-simulator artifact cache is a fresh
directory there, removed when the run ends.  See README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "silverbench")
BINARY = os.path.join(BUILD, "silverbench")
WORKLOADS = ("oneshot", "longrun", "cosim", "svc")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("silverbench: " + msg, file=sys.stderr)
    return code


def build(env):
    """Configures (once) and builds the benchmark; returns None or an error."""
    log_path = os.path.join(WORK, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-2000:]
                return "build failed: " + " ".join(cmd) + "\n" + tail
    return None


def git_commit(env):
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the
    code measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong-expected", action="store_true",
                    help="self-test: the first check uses a wrong expected "
                         "output, which must count as a failed op")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("the library sources (src/) are not in this checkout", 2)

    tmp = os.path.join(WORK, "tmp")
    results = os.path.join(WORK, "results")
    for d in (tmp, results):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp  # the host compiler's temporaries stay in the checkout
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)

    err = build(env)
    if err:
        return fail(err)

    env["SILVERBENCH_COMMIT"] = git_commit(env)
    env["SILVERBENCH_SOURCE_DIGEST"] = source_digest()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_one(w, args, env, results) for w in workloads)


def run_one(workload, args, env, results):
    hdl = os.path.join(WORK, "hdl-cache-%d" % os.getpid())
    shutil.rmtree(hdl, ignore_errors=True)
    os.makedirs(hdl)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", results, "--hdl-cache", hdl]
    if args.plant_wrong_expected:
        cmd.append("--plant-wrong-expected")
    # A session of its own, so a timeout also stops the host compiler the
    # compiled simulator may have started.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(hdl, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
