"""The README's library quick start runs as written, and its command-line
section documents exactly the options the parser defines."""

import argparse
import re
from pathlib import Path

from weakdep import cli

README = Path(__file__).resolve().parent.parent / "README.md"
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    exec(compile(block, f"{README}:quick start", "exec"), {})
    assert "[ True]" in capsys.readouterr().out


def test_command_line_section_lists_every_option():
    """The "Command line" usage block shows each subcommand with every
    option the parser defines for it, and the section names no other flag."""
    text = README.read_text(encoding="utf-8")
    (section,) = re.findall(r"\n## Command line\n(.*?)\n## ", text, re.S)
    (block,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    shown = {}
    for line in block.replace("\\\n", " ").splitlines():
        usage = line.split("#")[0].split()
        shown[usage[1]] = set(_FLAG.findall(" ".join(usage)))
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    defined = {name: {flag for action in parser._actions if action.dest != "help"
                      for flag in action.option_strings}
               for name, parser in subparsers.choices.items()}
    assert shown == defined
    assert set(_FLAG.findall(section)) == set().union(*defined.values())
