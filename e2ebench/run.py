#!/usr/bin/env python3
"""Build the uselessmiss CLI and the e2ebench harness from source, then run
one benchmark workload and relay its result.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload large --seed 1 --seconds 24 --trace 0

The last line of standard output is the harness's JSON result. Every build
product, Go cache and scratch file stays under the build directory
($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

# The harness must finish well inside the per-run limit of 180 s.
HARNESS_TIMEOUT_S = 175


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest(root, skip):
    """sha256 over every Go source and module file of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if os.path.join(dirpath, d) not in skip)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum", "expected.json"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")) or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="artifacts, large, packed-sharded or serve-jobs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("go.mod", "cmd/uselessmiss", "internal", "results/large.txt", "e2ebench/go.mod"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a repository checkout")
    if not shutil.which("go"):
        fail("the go toolchain is not on PATH")

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        # The go command's config and telemetry files live under the user
        # config directory; keep them inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
        E2EBENCH_COMMIT=commit(root),
        E2EBENCH_SOURCE_SHA256=source_digest(root, {build, os.path.join(root, ".git")}),
    )
    # Measure at the default GOMAXPROCS: every CPU of the host.
    env.pop("GOMAXPROCS", None)

    cli = os.path.join(build, "bin", "uselessmiss")
    harness = os.path.join(build, "bin", "e2eharness")
    for cwd, out, pkg in ((root, cli, "./cmd/uselessmiss"), (os.path.join(root, "e2ebench"), harness, ".")):
        r = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            fail(f"building {pkg} in {os.path.relpath(cwd, root) or '.'} failed")

    cmd = [harness, "-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
           "-trace", str(args.trace), "-cli", cli, "-work", os.path.join(build, "work")]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S}s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
