#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Everything the perfbench package builds from: its own sources and the
# path dependencies under crates/ and vendor/.
SOURCES = ["perfbench", "crates", "vendor"]


def fingerprint() -> str:
    """Digest of the path, size and mtime of every source file.

    hidisc-serve's build script asks to rerun when `.git/HEAD` changes; in
    a checkout without `.git` that file is missing, so cargo rebuilds the
    service and the benchmark on every invocation (10-25 s). The binary is
    rebuilt only when this digest changes instead.
    """
    h = hashlib.sha256()
    for top in SOURCES:
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
            for f in sorted(files):
                p = os.path.join(d, f)
                st = os.stat(p)
                h.update(f"{os.path.relpath(p, ROOT)}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    exe = os.path.join(target, "release", "perfbench")
    stamp = os.path.join(target, "perfbench.sources")
    digest = fingerprint()
    try:
        with open(stamp) as f:
            fresh = f.read() == digest and os.path.exists(exe)
    except OSError:
        fresh = False
    if not fresh:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            env=env,
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return build.returncode or 1
        with open(stamp, "w") as f:
            f.write(digest)
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
