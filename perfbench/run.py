#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload stream-unique --seed 1 --seconds 10 --trace 0

The Go toolchain's caches, the binary, scratch files and traces go under
$CARGO_TARGET_DIR, or .bench_build when it is unset, so nothing is written
outside the checkout. Every argument is passed on to the binary; the last
line it prints is the result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "go-path"),
        "GOMODCACHE": os.path.join(build, "go-path", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    # The build's own output goes to stderr: the result must stay the last
    # line of standard output.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(built.returncode)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:] + ["--out", os.path.join(build, "perfbench-run")], env)


if __name__ == "__main__":
    main()
