#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_search --seed 1 --seconds 30 --trace 0

Builds the `predtop` binary (the daemon under test) and the benchmark
binary in `perfbench/` with cargo into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the benchmark binary, whose last line of
standard output is the result object. Build logs go to standard error.
Exits non-zero, printing no result, when the checkout cannot be built.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ["crates", "src", "vendor", "perfbench/src"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git(root, *args):
    """Output of a git command in `root`, or None outside a repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def commit(root, digest):
    """The git commit, marked with the source digest when the sources
    differ from it; the source digest alone outside a repository."""
    head = git(root, "rev-parse", "HEAD")
    if head is None:
        return digest
    dirty = git(root, "status", "--porcelain", "--", *SOURCE_DIRS, *SOURCE_FILES)
    return f"{head}+{digest}" if dirty != "" else head


def source_digest(root):
    """A digest of the sources the run builds."""
    h = hashlib.sha256()
    paths = [p for p in SOURCE_FILES if os.path.isfile(os.path.join(root, p))]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames.sort()
            paths += [os.path.relpath(os.path.join(dirpath, f), root) for f in sorted(filenames)]
    for p in sorted(paths):
        h.update(p.encode())
        with open(os.path.join(root, p), "rb") as f:
            h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build(root, env, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    opts = parser.parse_args()

    root = os.getcwd()
    for needed in ["Cargo.toml", "crates", "src/main.rs", "perfbench/Cargo.toml"]:
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a full checkout")

    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(root, env, ["--bin", "predtop"])
    build(root, env, ["--manifest-path", "perfbench/Cargo.toml"])

    digest = source_digest(root)
    command = " ".join(["python3", "perfbench/run.py"] + sys.argv[1:])
    argv = [
        os.path.join(target, "release", "predtop-perfbench"),
        "--workload", opts.workload,
        "--seed", str(opts.seed),
        "--seconds", str(opts.seconds),
        "--trace", opts.trace,
        "--predtop", os.path.join(target, "release", "predtop"),
        "--out", os.path.join("perfbench", "out"),
        "--commit", commit(root, digest),
        "--source", digest,
        "--command", command,
    ]
    # a session of its own, so a timed-out run takes its daemons with it
    proc = subprocess.Popen(argv, cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
