#!/usr/bin/env python3
"""Build and run one workload of the DarkVec end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0

Builds perfbench/ (the darkvec libraries plus the dv_perfbench program)
under $CARGO_TARGET_DIR, default .bench_build, runs the workload in a
scratch directory there, and prints a provenance line followed by the
result object as the last line of stdout. The full record is also kept
in <build root>/results/. Build and library logs go to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline", "stream", "sweep")
# Upper limit on one workload run, build excluded.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds dv_perfbench; returns its path."""
    # The Makefile appears only once a configure step has succeeded.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "dv_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "dv_perfbench")


def git(*args):
    # Only the checkout's own metadata: git would otherwise report an
    # enclosing repository's revision.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest():
    """SHA-256 over the sources the benchmark builds: names the revision
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args):
    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if rev else None
    return {
        "git_rev": rev,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    workdir = os.path.join(build_root, "work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: dv_perfbench exited {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["provenance"]
    record.update(provenance(args))

    results = os.path.join(build_root, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"provenance": record, "result": result}, f, indent=1)
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
