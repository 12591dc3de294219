#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload file_batch --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
the library and the perfbench binary (Release) into the build directory
($CARGO_TARGET_DIR when set, else .bench_build); later calls only let the
build tool confirm it is up to date. All other arguments are passed to
the binary, together with the two metric catalogues of BENCHMARK.json
(names and units are written down there only), and the binary's last
stdout line is the result JSON. Build output goes to stderr. Exits
non-zero, without a result line, when BENCHMARK.json is unreadable or the
build fails.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path


def build(root: Path, build_dir: Path) -> Path:
    source = root / "perfbench"
    binary = build_dir / "perfbench"
    cache = build_dir / "CMakeCache.txt"
    jobs = str(max(1, os.cpu_count() or 1))
    if not cache.exists():
        cmd = ["cmake", "-S", str(source), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return binary


def catalogue(metrics) -> str:
    return ",".join(f"{m['name']}:{m['unit']}" for m in metrics)


def main() -> int:
    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        catalogues = ["--end-to-end", catalogue(spec["end_to_end"]),
                      "--per-layer", catalogue(spec["per_layer"])]
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    args = sys.argv[1:] + catalogues
    if "--work-dir" not in args:
        args += ["--work-dir", str(build_dir / "work")]
    sys.stdout.flush()
    return subprocess.run([str(binary)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
