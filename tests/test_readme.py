"""The README's "Python API sketch" runs as written, and its command line is the CLI's."""

import argparse
import pathlib
import re

from iontomo import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _section(title):
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_python_api_sketch_runs():
    (block,) = re.findall(r"```python\n(.*?)```", _section("Python API sketch"), flags=re.S)
    exec(compile(block, f"{README}:Python API sketch", "exec"), {"__name__": "readme_sketch"})


def test_command_line_section_names_the_registered_flags():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _section("Command line")))
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    registered = {flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings}
    assert named == registered - {"-h", "--help"}
