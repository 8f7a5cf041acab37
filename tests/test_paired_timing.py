"""Smoke test of tools/paired_timing.py: the repository against itself, and
against a copy whose text report differs."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "paired_timing.py"


def paired(other, seconds):
    return subprocess.run([sys.executable, str(TOOL), "--root", str(ROOT),
                           "--root", str(other), "--workload", "eval_knots",
                           "--seconds", str(seconds)],
                          capture_output=True, text=True, timeout=300)


def test_paired_timing_of_a_checkout_against_itself():
    result = paired(ROOT, 1)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert re.fullmatch(r"workload eval_knots seed 0: 7 ops, \d+ rounds", lines[0])
    assert len(lines) == 2 + 7 + 1
    ratio = re.fullmatch(r"paired median pass-time ratio root 1 / root 2: (\S+)"
                         r" \(quartiles \S+-\S+\)", lines[-1])
    assert ratio and 0.75 < float(ratio.group(1)) < 1.33


def test_paired_timing_fails_when_outputs_differ(tmp_path):
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "runs"))
    cli = tmp_path / "src" / "daxkernel" / "cli.py"
    cli.write_text(cli.read_text() + "\n\n_render = render_report\n\n\n"
                   "def render_report(report):\n    return _render(report) + '.'\n")
    result = paired(tmp_path, 0)
    assert result.returncode == 1
    assert result.stdout.count("output differs: ") == 7
