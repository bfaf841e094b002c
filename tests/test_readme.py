"""README.md's examples run as written and its census line is what the CLI prints."""

import json
import re
from pathlib import Path

import quadcolor as qc

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README's Library section has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_census_line_is_the_cli_summary():
    # census prints json.dumps(summary_to_json(summary)), keys in
    # CensusSummary's field order
    summary = qc.CensusSummary(2, 512, 314, 176, 22, None, 6, 41)
    assert json.dumps(qc.summary_to_json(summary)) + "\n" in README.read_text(encoding="utf-8")
