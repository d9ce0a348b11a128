#!/usr/bin/env python3
"""Build and run the OctopusFS benchmark from a source checkout.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

The Go program in this directory is compiled against the repository's
own packages (go.mod replaces `repro` with the checkout root). Build
outputs, the Go build cache and the benchmark's scratch files all live
under .bench_build/ in the checkout, so nothing is read from or written
to the user's home directory. The arguments are passed through to the
benchmark binary; its exit status is this script's exit status.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "TMPDIR": tmp,
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed; run from the root of a full source checkout",
              file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
