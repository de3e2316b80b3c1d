#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

The Go program is built into .bench_build/ at the root of the checkout,
with its build cache there too, and then replaces this process, so the
workload runs in one process of its own. Arguments pass through unchanged.
Without the dataspread module next to this directory the build fails and
the command exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    # HOME and XDG_CONFIG_HOME keep the go command's own files (telemetry
    # counters, env file) inside the checkout too.
    env = dict(
        os.environ,
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home", ".config"),
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
