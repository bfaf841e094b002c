"""README.md's examples run as written, its command-line transcripts are
what the CLI prints, and the bundled fixture files hold the fixtures module's
data."""

import json
import re
from pathlib import Path

import pytest

import quadcolor as qc
from quadcolor import cli, fixtures
from conftest import write_json

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def _transcripts() -> dict:
    """README's ``$ quadcolor ...`` lines, each mapped to the output lines
    under it (up to the next blank or ``$`` line)."""
    out: dict = {}
    command = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ quadcolor "):
            command = line[len("$ quadcolor "):]
            out[command] = ""
        elif command is not None and line and not line.startswith("```"):
            out[command] += line + "\n"
        else:
            command = None
    return out


@pytest.mark.parametrize(
    "command, exit_code",
    [
        ("check fixtures/example.system.json fixtures/example.triangle.json", 0),
        ("classify fixtures/stripes.system.json", 0),
        ("solve fixtures/stripes.system.json --chain 8", 0),
        ("isomorphic fixtures/example.system.json fixtures/stripes.system.json", 1),
        ("classify fixtures/example.system.json --depth-cap 20", 0),
    ],
)
def test_command_line_transcript(command, exit_code, monkeypatch, capsys):
    expected = _transcripts()[command]
    monkeypatch.chdir(ROOT)
    assert cli.main(command.split()) == exit_code
    assert capsys.readouterr().out == expected


def test_fixture_files_hold_the_fixtures_module_data(tmp_path):
    for name, value in (
        ("example.system.json", fixtures.example_system()),
        ("example.triangle.json", fixtures.example_triangle()),
    ):
        written = Path(write_json(tmp_path / name, value)).read_bytes()
        assert (ROOT / "fixtures" / name).read_bytes() == written, name
