#!/usr/bin/env python3
"""Build the FiCSUM benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload stagger --seed 1 --seconds 50 --trace 0

Workloads: stagger, net-churn (see perfbench/README.md).
The benchmark is built in release mode into $CARGO_TARGET_DIR (default
.bench_build), offline, against the crates under crates/, and then runs on
one core (see pin_one_core). Traced runs (--trace 1) write their spans to
<target dir>/perfbench-traces/. The last line of standard output is the JSON
result; the exit code is non-zero when the build fails, an outcome is wrong,
or the run does not finish in time.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; leave room to report the failure.
RUN_TIMEOUT_S = 170


def commit():
    """The git commit of the checkout, or a digest of the sources when the
    checkout is not a git repository of its own."""
    try:
        # The ceiling keeps git from searching the directories above the
        # checkout for a repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("crates", "src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".py")):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def pin_one_core():
    """Restricts this process, and so the benchmark it starts, to one core.

    The serving workload is a request/reply chain of threads of which about
    one runs at a time. Spread over the cores of a VM, each hand-off waits
    for an idle virtual CPU to be woken by the host, which took milliseconds
    in some runs and halved their throughput; on one core a hand-off is a
    context switch. The single-stream workload uses one thread anyway.
    """
    try:
        cores = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cores[-1]})
    except (AttributeError, OSError) as e:
        print(f"perfbench: running unpinned: {e}", file=sys.stderr)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_NPROC"] = str(os.cpu_count() or 1)
    pin_one_core()
    exe = os.path.join(target, "release", "ficsum-perfbench")
    args = sys.argv[1:] + ["--trace-dir", os.path.join(target, "perfbench-traces")]
    try:
        return subprocess.run([exe] + args, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
