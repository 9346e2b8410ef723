#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload kv-uniform --seed 1 --seconds 30 --trace 0

The Go build cache, temporary files and the binary all live under
.bench_build/ at the repository root (or under $CARGO_TARGET_DIR when it
is set, relative to the root), so a run reads and writes nothing outside
the checkout. The binary is rebuilt only when a Go source file changed.
Every argument is passed on to the binary; its exit code is returned.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def sources_digest():
    """Digest of every Go source and module file of the repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    root_mod = os.path.join(ROOT, "go.mod")
    if not os.path.isfile(root_mod) or not os.path.isdir(os.path.join(ROOT, "store")):
        fail(f"the repository's sources are missing (no go.mod and store/ in {ROOT})")
    with open(root_mod) as f:
        if "module repro\n" not in f.read():
            fail(f"{root_mod} is not the repro module")

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build, "perfbench")
    stamp = os.path.join(build, "perfbench.sources")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
        # The go command keeps telemetry counters under the user's
        # config directory; point it inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)

    digest = sources_digest()
    built = ""
    if os.path.isfile(stamp) and os.path.isfile(binary):
        with open(stamp) as f:
            built = f.read()
    if built != digest:
        tmp = binary + ".tmp"
        try:
            r = subprocess.run(["go", "build", "-o", tmp, "."], cwd=HERE, env=env)
        except FileNotFoundError:
            fail("the go toolchain is not on PATH")
        if r.returncode != 0:
            fail("go build failed")
        os.replace(tmp, binary)
        with open(stamp, "w") as f:
            f.write(digest)

    r = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
