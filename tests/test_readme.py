"""Every ```python block of README.md runs as written, and every
``dax-kernel`` line of its ```sh blocks exits 0, so a change to a signature
or a flag it uses cannot leave the README stale."""

import re
import shlex
from pathlib import Path

import pytest

from daxkernel import cli
from daxkernel.scene import PRESETS

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [line.strip() for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
            for line in block.splitlines() if line.startswith("dax-kernel ")]
(SCENE,) = re.findall(r"^```toml\n(.*?)^```", TEXT, re.M | re.S)
PRESET_ROWS = re.findall(r"^\| `(\w+)` +\| ([^|]*)\|",
                         TEXT.split("\n## Presets\n")[1].split("\n## ")[0], re.M)


def test_readme_usage_matches_cli_docstring():
    (usage,) = re.findall(r"^## Command line\n\n```\n(.*?)^```", TEXT, re.M | re.S)
    assert " ".join(usage.split()) in " ".join(cli.__doc__.split())


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block, capsys):
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_runs(command, tmp_path, monkeypatch, capsys):
    """The command runs through ``cli.main`` in a directory that holds the
    README's example scene as ``myscene.toml``."""
    (tmp_path / "myscene.toml").write_text(SCENE)
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out


def test_readme_presets_table_lists_declared_parameters():
    """Each row of the presets table names the parameters its preset
    declares, in the order they are checked; ``window`` is said once below
    the table."""
    assert [name for name, _ in PRESET_ROWS] == list(PRESETS)
    for name, params in PRESET_ROWS:
        assert re.findall(r"`(\w+)`", params) == list(PRESETS[name][0]), name
