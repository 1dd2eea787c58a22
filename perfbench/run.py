#!/usr/bin/env python3
"""End-to-end benchmark of the SLaDe decompiler: build, prepare, run, check.

    python3 perfbench/run.py --workload stream-unique --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --small            # every workload, both modes

Builds the harness (perfbench/CMakeLists.txt) from the checkout's sources
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), trains
the served model there once per build, runs one workload and forwards the
harness's output. The last stdout line is the result JSON; the exit code
is nonzero when the build, the model or any output check fails.
"""

import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch-unique", "stream-unique", "stream-dup", "train"]
# The small model keeps the self-test short; it is not used for figures.
SMALL_TRAIN = ["--train-samples", "600", "--train-steps", "60"]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def log(msg):
    print("[run.py] " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        log("%s: %s" % (cmd[0], e))
        return False


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    if not run_quiet(["cmake", "--build", bdir, "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(bdir, "slade-bench")


def prepare(binary, bdir, small):
    """Trains the served model unless this build of the library (and of
    the harness's training code) already trained it."""
    model_dir = os.path.join(bdir, "model-small" if small else "model")
    train_args = SMALL_TRAIN if small else []
    digest = hashlib.sha256()
    for path in (os.path.join(bdir, "libslade_core.a"),
                 os.path.join(HERE, "Train.cpp")):
        with open(path, "rb") as f:
            digest.update(f.read())
    stamp = digest.hexdigest() + " " + " ".join(train_args)
    stamp_path = os.path.join(model_dir, "stamp")
    if os.path.exists(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return model_dir
    os.makedirs(model_dir, exist_ok=True)
    if os.path.exists(stamp_path):
        os.remove(stamp_path)
    log("training the served model into " + model_dir)
    if not run_quiet([binary, "--prepare", model_dir] + train_args,
                     BUILD_TIMEOUT_S):
        return None
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return model_dir


def run_workload(binary, model_dir, args, workload, trace):
    cmd = [binary, "--model-dir", model_dir, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.gen_seed is not None:
        cmd += ["--gen-seed", str(args.gen_seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out" % workload)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--gen-seed", type=int, default=None)
    p.add_argument("--small", action="store_true",
                   help="small model, 1-second runs, every workload in "
                        "both modes unless --workload is given")
    args = p.parse_args()
    if args.small and args.seconds == 10:
        args.seconds = 1
    if args.workload is None:
        if not args.small:
            p.error("--workload is required")
        args.workload = "all"

    # A terminated benchmark stops its child: subprocess.run kills and
    # reaps it when the exception passes through.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        binary = build(bdir)
        if binary is None:
            log("build failed")
            return 1
        model_dir = prepare(binary, bdir, args.small)
        if model_dir is None:
            log("model preparation failed")
            return 1

    if args.workload != "all":
        return run_workload(binary, model_dir, args, args.workload,
                            args.trace)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc = run_workload(binary, model_dir, args, workload, trace)
            log("%s --trace %d: exit %d" % (workload, trace, rc))
            status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
