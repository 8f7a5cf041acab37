"""Time ``import daxkernel`` in fresh interpreters.

    python3 tools/import_time.py                       # src
    python3 tools/import_time.py --runs 9 ../parent/src src

For each source directory, ``--runs`` interpreters are started, the
directories taking turns, with ``python -I`` (no user site, no
environment variables).  Each puts the directory first on ``sys.path``
and times its ``import daxkernel`` with ``time.perf_counter``.  One line
per directory gives the median in milliseconds, then the directory.
Site packages still load before the timer starts, as they do for the
command line.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
        " import daxkernel; print(repr(time.perf_counter() - t))")


def import_seconds(src: str) -> float:
    """The seconds one fresh interpreter takes to import the package in src."""
    out = subprocess.run([sys.executable, "-I", "-c", CODE, src], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return float(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", default=[str(ROOT / "src")],
                        help="directories holding the daxkernel package")
    parser.add_argument("--runs", type=int, default=9, help="interpreters per directory")
    args = parser.parse_args(argv)
    times: dict[str, list[float]] = {src: [] for src in args.src}
    for _ in range(args.runs):  # the directories alternate, so drift hits each alike
        for src in args.src:
            times[src].append(import_seconds(src))
    for src, seconds in times.items():
        print(f"{statistics.median(seconds) * 1000:.1f}  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
