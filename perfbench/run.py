#!/usr/bin/env python3
"""Build the benchmark runner from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline-suite --seed 1 --seconds 15 --trace 0

Every build product, cache and trace file goes under .bench_build/ in the
repository root. The runner's own standard output is passed through; its
last line is the JSON result. The exit code is the runner's, or 1 when
the build fails.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175
# Where the Go toolchain lives when it is not on PATH.
GO_FALLBACK = "/usr/local/go/bin/go"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build")
    home = os.path.join(out, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, "config"),
        "XDG_CACHE_HOME": os.path.join(home, "cache"),
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomod"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench-%d" % os.getpid())
    go = shutil.which("go") or GO_FALLBACK
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
        return run.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        os.remove(binary)


if __name__ == "__main__":
    sys.exit(main())
