"""The ```python blocks of README.md run as written.

Later blocks use the names that earlier ones define, so block i runs after
blocks 0..i-1 in one namespace.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS[:index + 1]):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
