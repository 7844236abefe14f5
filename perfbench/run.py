#!/usr/bin/env python3
"""Build and run the wavedyn campaign benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--scenario-seed N] [--experiment-seed N]

Configures perfbench/ with CMake in Release mode into .bench_build (the
wavedyn library is compiled from src/ as part of it), builds it, then
replaces this process with the benchmark binary. Build output goes to
stderr; the last line of stdout is the benchmark's result object.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def source_id():
    """The commit when run from a clean git work tree, the commit plus a
    digest of the sources when src/ or perfbench/ has changes, else the
    digest alone."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--", "src", "perfbench"],
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            commit = "git:" + head.stdout.strip()
            if status.stdout.strip():
                commit += "+dirty:" + sources_digest()
            return commit
    return sources_digest()


def sources_digest():
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    jobs = min(len(os.sched_getaffinity(0)), 8)
    subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs)],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    # The benchmark pins jobs, batch width and cache directories itself;
    # the library's WAVEDYN_* knobs must not reach it.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WAVEDYN_")}
    args = [binary] + sys.argv[1:] + ["--work-dir", BUILD,
                                      "--commit", source_id()]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
