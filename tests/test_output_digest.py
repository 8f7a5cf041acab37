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
    assert all(re.fullmatch(r"eval_knots 0 \S+ [0-9a-f]{64}", line) for line in lines)
    same = tmp_path / "same.txt"
    same.write_text(listing.stdout)
    assert digest_tool("--compare", str(same)).returncode == 0
    # one changed digest and one missing op are both listed
    workload, seed, op_id, digest = lines[0].split()
    changed = [f"{workload} {seed} {op_id} {'0' * 64}"] + lines[2:]
    other = tmp_path / "other.txt"
    other.write_text("\n".join(changed) + "\n")
    result = digest_tool("--compare", str(other))
    assert result.returncode == 1
    assert result.stdout.splitlines() == [f"{workload} {seed} {op_id} differs",
                                          f"{lines[1].rsplit(' ', 1)[0]} not in the listing"]
