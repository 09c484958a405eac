#!/usr/bin/env python3
"""Build and run the repository benchmark (stdlib only).

    python3 perfbench/run.py --workload paper-cold|edit-loop|load-run \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The script builds perfbench.exe and
irm_cli.exe from source with dune, asks `irm build --jobs 2` which
backend it selects (the paper-cold workload's second leg uses the
same), runs one workload in a fresh scratch directory under
perfbench/_work/, and prints the benchmark's report.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 1 it also checks the Chrome trace the run
wrote with scripts/check_trace.py; a malformed trace makes the run
incorrect.

Exits non-zero, without a result line, when the program cannot be
built (for instance outside a checkout of the repository).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-cold", "edit-loop", "load-run")
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 175


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        die(f"{ROOT} is not a checkout of the repository (no dune-project)")
    targets = ["./perfbench/perfbench.exe", "./bin/irm_cli.exe"]
    try:
        proc = subprocess.run(
            [dune, "build", "--root", ".", *targets],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0:
        die(f"dune build failed with code {proc.returncode}")
    return [os.path.join(ROOT, "_build", "default", t[2:]) for t in targets]


def jobs2_backend(irm, work, env):
    """The backend `irm build --jobs 2` selects, read from its summary."""
    probe = os.path.join(work, "probe")
    os.makedirs(probe)
    for name in ("a.sml", "b.sml"):
        shutil.copy(os.path.join(HERE, "selftest", name), probe)
    with open(os.path.join(probe, "sources.cm"), "w") as fp:
        fp.write("a.sml\nb.sml\n")
    proc = subprocess.run(
        [irm, "build", "-C", probe, "sources.cm", "--jobs", "2",
         "--policy", "cutoff", "--no-profile"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    found = re.search(r"\(cutoff policy, ([a-z]+(?:-\d+)?), ", proc.stdout)
    if proc.returncode != 0 or found is None:
        die(f"backend probe failed: {proc.stdout}{proc.stderr}")
    return found.group(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run only the benchmark's self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    start = time.monotonic()

    # everything the build and the run write stays inside the checkout
    work_root = os.path.join(HERE, "_work")
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(work_root, "xdg-cache")
    exe, irm = build(env)

    work = os.path.join(work_root, f"{args.workload or 'selftest'}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        cmd = [exe, "--workdir", work,
               "--selftest-dir", os.path.join(HERE, "selftest")]
        if args.selftest:
            sys.exit(subprocess.run(cmd + ["--selftest"], cwd=ROOT, env=env).returncode)
        trace_file = os.path.join(work, "trace.json")
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--trace-out", trace_file]
        if args.workload == "paper-cold":
            cmd += ["--jobs2-backend", jobs2_backend(irm, work, env)]
        budget = RUN_BUDGET_S - (time.monotonic() - start)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  text=True, timeout=max(budget, 30))
        except subprocess.TimeoutExpired:
            die("benchmark run timed out")
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            die(f"benchmark exited with code {proc.returncode}")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        if args.trace == 1:
            checker = os.path.join(ROOT, "scripts", "check_trace.py")
            check = subprocess.run([sys.executable, checker, trace_file],
                                   capture_output=True, text=True, timeout=60)
            print(f"chrome trace: {(check.stdout + check.stderr).strip()}")
            if check.returncode != 0:
                result["correct"] = False
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
