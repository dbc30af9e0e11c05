"""The README library example runs as written and prints what it promises."""

import re
import shlex
from pathlib import Path

from tidlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example(capsys):
    (source,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(source, str(README), "exec"), {})
    lines = capsys.readouterr().out.split()
    assert len(lines) == 3
    assert float(lines[0]) < 1e-12 and float(lines[1]) < 1e-12
    assert lines[2] == "True"


def test_readme_command_lines_parse():
    """Every `tidlab` line in the README's sh blocks parses, and the suite list is complete."""
    text = README.read_text(encoding="utf-8")
    parser = cli.build_parser()
    lines = [
        line.split("#", 1)[0].strip()
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
    ]
    commands = [shlex.split(line) for line in lines if line.startswith("tidlab ")]
    assert commands
    for argv in commands:
        parser.parse_args(argv[1:])
    (suites,) = re.findall(r"^Suites:(.*?)\.\s", text, re.S | re.M)
    assert tuple(re.findall(r"`([^`]+)`", suites)) == cli.SUITES
