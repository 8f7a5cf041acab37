"""Smoke test of tools/output_digest.py on one workload and one seed."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def digest_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), "--workload", "eval_knots",
                           "--seeds", "0", *args],
                          capture_output=True, text=True, timeout=300)


def test_output_digest_lists_and_compares(tmp_path):
    listing = digest_tool()
    assert listing.returncode == 0, listing.stderr
    lines = listing.stdout.splitlines()
    assert len(lines) == 7
    assert all(re.fullmatch(r"eval_knots 0 \S+ [0-9a-f]{64} [0-9a-f]{64}", line)
               for line in lines)
    same = tmp_path / "same.txt"
    same.write_text(listing.stdout)
    assert digest_tool("--compare", str(same)).returncode == 0
    # a changed output digest alone is basis-only, a changed invariant
    # digest is not; a missing op is listed too
    ops = [line.split() for line in lines]
    changed = [" ".join(ops[0][:3] + ["0" * 64, ops[0][4]]),
               " ".join(ops[1][:3] + ["0" * 64, "0" * 64])] + lines[3:]
    other = tmp_path / "other.txt"
    other.write_text("\n".join(changed) + "\n")
    result = digest_tool("--compare", str(other))
    assert result.returncode == 1
    assert result.stdout.splitlines() == [" ".join(ops[0][:3] + ["basis-only"]),
                                          " ".join(ops[1][:3] + ["invariant"]),
                                          " ".join(ops[2][:3] + ["not in the listing"])]
    assert "3 differ" in result.stderr
    # a listing with one digest per op still reads; a changed digest there
    # cannot be told apart
    old = [" ".join(ops[0][:3] + ["0" * 64])] + [" ".join(op[:4]) for op in ops[1:]]
    old_listing = tmp_path / "old.txt"
    old_listing.write_text("\n".join(old) + "\n")
    result = digest_tool("--compare", str(old_listing))
    assert result.returncode == 1
    assert result.stdout.splitlines() == [" ".join(ops[0][:3] + ["differs"])]


def test_seed_0_outputs_match_the_recorded_listing():
    """Every seed-0 op of every workload gives the output recorded in
    ``tests/data/output_digest_seed0.txt``, coordinates and ``w_map``
    included.  A change that alters an output on purpose records the
    listing again (``python3 tools/output_digest.py --seeds 0``) and says
    so."""
    listing = Path(__file__).resolve().parent / "data" / "output_digest_seed0.txt"
    result = subprocess.run([sys.executable, str(TOOL), "--seeds", "0",
                             "--compare", str(listing)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "21 ops run, 0 differ" in result.stderr
