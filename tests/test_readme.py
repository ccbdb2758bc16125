"""The README's "Command line" block, run as tests: every birow line exits
0 through birow.cli.main, each commented --plain output is printed, and
every verify check is run."""

import re
import shlex
from pathlib import Path

from birow.cli import _CHECKS, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_command_line_block(capsys):
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    checked, checks = [], set()
    for line in block.splitlines():
        if not line.startswith("birow "):
            continue
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if argv[0] == "verify":
            checks.add(argv[1])
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        quoted = re.fullmatch(r'\s*"(.*)"\s*', comment)
        if "--plain" in argv and quoted:
            assert out.strip() == quoted.group(1), line
            checked.append(quoted.group(1))
    assert checked == ["x[2,1]", "A[1,2] + A[2,1] + A[3,0]"]
    assert checks == set(_CHECKS)
