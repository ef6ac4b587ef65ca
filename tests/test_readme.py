"""The README's "Python API sketch" runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_sketch_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API sketch", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], flags=re.S)
    exec(compile(block, f"{README}:Python API sketch", "exec"), {"__name__": "readme_sketch"})
