"""The README's Python API sketch runs as written."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def sketch() -> str:
    """The fenced python block under "## Python API sketch"."""
    section = README.read_text().split("\n## Python API sketch\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_api_sketch_runs_and_converges():
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(sketch(), str(README), "exec"), namespace)
    assert namespace["result"].converged
