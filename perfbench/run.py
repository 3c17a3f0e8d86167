#!/usr/bin/env python3
"""Build and run the perfvar benchmark.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the `perfbench` package and the
`pv-serve` daemon in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the benchmark with the given flags. Build
output goes to stderr; the benchmark's last stdout line is the JSON
result. Exits non-zero when the build fails or any output check fails.
"""

import hashlib
import os
import subprocess
import sys


def source_id():
    """A commit id when the tree is a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for root in ("crates", "vendor", "perfbench/src"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def cargo(*args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    result = subprocess.run(cmd, stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit(result.returncode or 1)


def main():
    if os.environ.get("PV_EXACT_TREES") is not None:
        print("run.py: refusing to run with PV_EXACT_TREES set", file=sys.stderr)
        sys.exit(2)
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo("--manifest-path", "perfbench/Cargo.toml")
    cargo("--manifest-path", "Cargo.toml", "-p", "pv-bench", "--bin", "pv-serve")
    exe = os.path.join(target, "release")
    cmd = [os.path.join(exe, "perfbench"), *sys.argv[1:],
           "--pv-serve", os.path.join(exe, "pv-serve"), "--commit", source_id()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
