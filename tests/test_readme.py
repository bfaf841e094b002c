"""The code examples in README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README's Library section has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
