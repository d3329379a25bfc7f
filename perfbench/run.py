#!/usr/bin/env python3
"""Build the programs under test and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload window-shared --seed 1 --seconds 20 --trace 0

Builds `pm-server` and `pm-coord` from the repository and the
`pm-perfbench` harness from this directory (into `$CARGO_TARGET_DIR`,
default `.bench_build`), then runs the harness in its own process group
and relays its output; the last stdout line is the JSON result. Every
process the run started is killed and reaped, and its scratch directory
under `.bench_work/` removed, on every exit path.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["window-shared", "append-distinct", "serve-churn"]


def harness_timeout_s(seconds):
    """Wall-time allowance of one harness run: set-ups, probes and the
    reference check take a fixed share, the rate ladder about `seconds`
    (at `--seconds 12` a run takes 20-35 s and this allows 170 s)."""
    return 110 + 5 * seconds


def source_digest(root):
    """A digest of the sources, standing in for a commit id when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted(root.glob("crates/**/*.rs")) + [root / "Cargo.toml", root / "Cargo.lock"]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(root)).encode())
            h.update(f.read_bytes())
    return "src-" + h.hexdigest()[:16]


def commit_id(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return source_digest(root)


def build(root, env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--bin", "pm-server", "--bin", "pm-coord"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A terminated run still cleans up (see the `finally` below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = pathlib.Path.cwd().resolve()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        sys.exit("run.py: run me from the root of a pareto-monitor checkout")
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build(root, env)

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env["PM_BENCH_COMMIT"] = commit_id(root)
    # Below Linux's ephemeral range (32768+), so no client connection's
    # TIME_WAIT can hold a port a server is about to bind.
    port = 21300 + 40 * WORKLOADS.index(args.workload)
    cmd = [str(target / "release" / "pm-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", str(target / "release"), "--work-dir", str(work),
           "--port", str(port)]
    timeout_s = harness_timeout_s(args.seconds)
    child = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout_s)
        sys.stdout.write(out)
        sys.stdout.flush()
        return child.returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: harness exceeded {timeout_s} s", file=sys.stderr)
        return 1
    finally:
        # The harness reaps its own children; this catches anything left
        # behind by a crash or the timeout.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
