"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    exec(compile(block, f"{README}:quick start", "exec"), {})
    assert "[ True]" in capsys.readouterr().out
