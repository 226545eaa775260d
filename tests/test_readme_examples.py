"""Every ``pathlab`` line of the README's CLI block, run through ``cli.main``,
against the exit code and stdout recorded in ``readme_cli_goldens.json``.

``verify --suite all`` is left out: it runs every sweep and takes minutes.
"""

import json
import shlex
from pathlib import Path

import pytest

from pathlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = json.loads((Path(__file__).parent / "readme_cli_goldens.json").read_text())
SLOW = "verify --suite all"


def readme_commands() -> list[str]:
    """The commands of the first ``sh`` block after the CLI heading, with
    backslash continuations joined."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        line = " ".join(line.split())
        if line.startswith("pathlab ") and SLOW not in line:
            commands.append(line)
    return commands


def exit_code(line: str) -> int:
    """Exit code of one README line; argparse usage errors surface as
    SystemExit."""
    try:
        return main(shlex.split(line)[1:])
    except SystemExit as exc:
        return exc.code


def test_every_readme_command_has_a_golden():
    assert sorted(readme_commands()) == sorted(GOLDENS)


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_output(line, capsys):
    code = exit_code(line)
    out = capsys.readouterr().out
    assert code == GOLDENS[line]["exit"]
    assert out == GOLDENS[line]["stdout"]


def test_readme_shows_what_verify_max_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    epilog = "--max M" + capsys.readouterr().out.split("\n--max M", 1)[1]
    assert f"```text\n{epilog}```" in (ROOT / "README.md").read_text()
