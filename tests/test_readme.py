"""The README library example runs as written and prints what it promises."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example(capsys):
    (source,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(source, str(README), "exec"), {})
    lines = capsys.readouterr().out.split()
    assert len(lines) == 3
    assert float(lines[0]) < 1e-12 and float(lines[1]) < 1e-12
    assert lines[2] == "True"
