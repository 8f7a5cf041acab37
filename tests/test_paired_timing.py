"""Smoke test of tools/paired_timing.py: the repository against itself, and
against a copy whose text report differs."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "paired_timing.py"


OP_LINE = re.compile(r"(\S+) +(\d+\.\d\d) +(\d+\.\d\d) +(\d+\.\d{3})")


def op_ratios(lines):
    """op id -> the median of its own per-round time ratio, from the op
    table between the header lines and the five summary lines."""
    assert lines[1].split() == ["op", "root", "1", "ms", "root", "2", "ms", "ratio"]
    rows = [OP_LINE.fullmatch(line) for line in lines[2:-5]]
    assert all(rows), lines
    return {row.group(1): float(row.group(4)) for row in rows}


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
    assert len(lines) == 2 + 7 + 5
    ratios = op_ratios(lines)
    assert len(ratios) == 7 and all(0.33 < r < 3 for r in ratios.values()), ratios
    ratio = re.fullmatch(r"paired median pass-time ratio root 1 / root 2: (\S+)"
                         r" \(quartiles \S+-\S+\)", lines[-5])
    assert ratio and 0.75 < float(ratio.group(1)) < 1.33
    rounds = int(re.search(r"(\d+) rounds$", lines[0]).group(1))
    wins = re.fullmatch(r"root 2 faster in (\d+) of (\d+) rounds", lines[-4])
    assert wins and int(wins.group(2)) == rounds
    assert 0 <= int(wins.group(1)) <= rounds
    # the same code allocates alike: each root's pass runs the collector
    runs = re.fullmatch(r"collector runs per pass: root 1 (\d+\.\d), root 2 (\d+\.\d)",
                        lines[-3])
    assert runs and all(float(n) > 0 for n in runs.groups()), lines[-3]
    # and builds as many Words: a knot value and its residue have Words
    words = re.fullmatch(r"Words built per pass: root 1 (\d+), root 2 (\d+)", lines[-2])
    assert words and words.group(1) == words.group(2) != "0", lines[-2]
    # and takes as many Fox steps: the s1_x_sphere class has no closed form
    fox = re.fullmatch(r"Fox steps per pass: root 1 (\d+), root 2 (\d+)", lines[-1])
    assert fox and fox.group(1) == fox.group(2) != "0", lines[-1]


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


def test_paired_timing_counts_the_rounds_the_second_root_wins(tmp_path):
    # the second root renders every report 20 ms late, with the same output:
    # it is faster in none of the rounds
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "runs"))
    cli = tmp_path / "src" / "daxkernel" / "cli.py"
    cli.write_text(cli.read_text() + "\n\n_render = render_report\n\n\n"
                   "def render_report(report):\n    import time\n"
                   "    time.sleep(0.02)\n    return _render(report)\n")
    result = paired(tmp_path, 1)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    rounds = int(re.search(r"(\d+) rounds$", lines[0]).group(1))
    assert lines[-4] == f"root 2 faster in 0 of {rounds} rounds"
    # each op is slower by the 20 ms, so each op's own ratio is below 1
    ratios = op_ratios(lines)
    assert len(ratios) == 7 and all(r < 1 for r in ratios.values()), ratios
