#!/usr/bin/env python3
"""Build the MedVault benchmark from source and run it.

Run from the root of a checkout:

    python3 vaultbench/run.py --workload ward_round --seed 1 --seconds 10 --trace 0

The Go program is built into .bench_build/ at the root of the checkout, with
the Go build cache and temporary files kept there too, so a run reads and
writes nothing outside the checkout. Every argument is passed through to the
program; its last line of standard output is the JSON result. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main() -> int:
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    binary = os.path.join(BUILD, "vaultbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write("vaultbench: build failed:\n" + build.stdout)
        return 1
    run = subprocess.run([binary, "-dir", BUILD] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
