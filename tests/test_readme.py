"""The README's Python API example runs, and its CLI lines parse, against the package as it is."""

import re
import shlex
from pathlib import Path

import numpy as np

from bbnet.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(section, language):
    """The first ```<language> block of the README's "<section>" section."""
    text = README.read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


def python_api_block():
    """The first ```python block of the README's "Python API" section."""
    return readme_block("Python API", "python")


def test_python_api_example_runs():
    names: dict = {}
    exec(compile(python_api_block(), f"{README}:Python API", "exec"), names)
    own, traj = names["own"], names["traj"]
    assert own.dtype == np.int64 and len(own) == names["g"].n
    assert traj.last_t == 500


def test_cli_lines_parse():
    # parsed only, not run: the sweep and the 1e6-sample omega take minutes
    lines = [line for line in readme_block("CLI", "sh").splitlines() if line.startswith("bbnet ")]
    assert len(lines) == 5
    for line in lines:
        words = shlex.split(line)[1:]
        assert build_parser().parse_args(words).command == words[0]
