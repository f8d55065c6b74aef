#!/usr/bin/env python3
"""Run one benchmark workload against the repository's ``src/``.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 \\
        --trace 0

prints human-readable lines (provenance, every metric with its unit,
the error rate) and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="chain, ols-zstd or pathlen-r")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Every run measures the library's defaults.
    for var in ("REPRO_PARALLELISM", "REPRO_SANITIZE"):
        os.environ.pop(var, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"from this checkout's src/", file=sys.stderr)
        return 2
    from perfbench import harness
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")

    # Page files live in a fresh directory inside the checkout, removed
    # at exit, also when the run is terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    tempfile.tempdir = workdir
    try:
        result = harness.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still holds its directory
    print(harness.format_report(result))
    result.pop("report")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
