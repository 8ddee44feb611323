"""The README's Python API example runs against the package as it is."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_block():
    """The first ```python block of the README's "Python API" section."""
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_api_example_runs():
    names: dict = {}
    exec(compile(python_api_block(), f"{README}:Python API", "exec"), names)
    own, traj = names["own"], names["traj"]
    assert own.dtype == np.int64 and len(own) == names["g"].n
    assert traj.last_t == 500
