"""Command line behavior, driven in-process through main(argv).

Exit code contract: 0 accepted/found/isomorphic, 1 rejected/unreachable/
not isomorphic, 2 malformed input.  A rejection is a successful run that
answered no; it must never be conflated with a parse failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadcolor as qc
from quadcolor.cli import main
from conftest import write_json

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture()
def paths(tmp_path, example_system, example_triangle, example_sequence):
    """The example system plus assorted colorings, saved to disk."""
    return {
        "system": write_json(tmp_path / "system.json", example_system),
        "triangle": write_json(tmp_path / "triangle.json", example_triangle),
        "sequence": write_json(tmp_path / "sequence.json", example_sequence),
        "tmp": tmp_path,
    }


def write_system(tmp_path, name, n, origin, h, v):
    return write_json(tmp_path / name, qc.ColoringSystem.from_pairs(n, origin, h, v))


def test_check_accepts_example(paths, capsys):
    assert main(["check", paths["system"], paths["triangle"]]) == 0
    assert capsys.readouterr().out == "accepted\n"
    assert main(["check", paths["system"], paths["sequence"]]) == 0


def test_check_rejects_corrupted_triangle(paths, capsys, example_triangle):
    rows = [list(r) for r in example_triangle.rows()]
    rows[0][0] = 5  # origin color is pinned; 5 is wrong
    bad = write_json(paths["tmp"] / "bad.json",
                     qc.TriangleColoring.from_rows(example_triangle.depth, rows))
    assert main(["check", paths["system"], bad]) == 1
    out = capsys.readouterr().out
    assert out.startswith("rejected: ")
    assert "(0, 0)" in out


def test_check_witness(paths, tmp_path, capsys):
    sys_path = write_system(tmp_path, "free.json", 2, 0,
                            [(0, 1), (1, 0)], [(0, 1), (1, 0)])
    wit_path = write_json(tmp_path / "wit.json",
                          qc.PeriodicWitness(p=2, q=2, rows=((0, 1), (1, 0))))
    assert main(["check", sys_path, wit_path]) == 0
    write_json(wit_path, qc.PeriodicWitness(p=2, q=2, rows=((0, 1), (0, 1))))
    assert main(["check", sys_path, wit_path]) == 1
    assert "rejected" in capsys.readouterr().out


def test_check_witness_color_out_of_range_is_exit_2(tmp_path, capsys):
    # a color outside [0, n) is malformed input for witnesses as for
    # sequences; a torn witness is a rejection
    sys_path = write_system(tmp_path, "stripes.json", 2, 0, [(0, 1), (1, 0)], [(0, 0), (1, 1)])
    wit_path = tmp_path / "wit.json"
    wit_path.write_text('{"p": 2, "q": 1, "cells": [[0, 5]]}')
    assert main(["check", sys_path, str(wit_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    wit_path.write_text('{"p": 2, "q": 1, "cells": [[0, 0]]}')
    assert main(["check", sys_path, str(wit_path)]) == 1
    assert capsys.readouterr().out.startswith("rejected: ")


def test_check_garbage_is_exit_2(paths, tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{nope")
    assert main(["check", paths["system"], str(garbage)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert main(["check", str(tmp_path / "missing.json"), paths["triangle"]]) == 2


def test_solve_bounded_system(tmp_path, capsys):
    # H empty: nothing may sit right of the origin, so length 2 is the max
    path = write_system(tmp_path, "short.json", 2, 0, [], [(0, 1)])
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out == "bounded, max length 2\n"


def test_solve_periodic_system(tmp_path, capsys):
    path = write_system(tmp_path, "checker.json", 2, 0,
                        [(0, 1), (1, 0)], [(0, 1), (1, 0)])
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out.startswith("has coloring, period ")


def test_solve_chain_prints_triangle(tmp_path, capsys):
    path = write_system(tmp_path, "checker.json", 2, 0,
                        [(0, 1), (1, 0)], [(0, 1), (1, 0)])
    assert main(["solve", path, "--chain", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    chain_line = next(line for line in out if line.startswith("chain: "))
    chain = json.loads(chain_line[len("chain: "):])
    assert len(chain) == 6
    assert chain[0] == 0
    assert out[-1] == "0 1 0"  # bottom row of the rendered staircase


def test_solve_chain_unreachable(tmp_path, capsys):
    path = write_system(tmp_path, "short.json", 2, 0, [], [(0, 1)])
    assert main(["solve", path, "--chain", "10"]) == 1
    assert "no acceptable sequence of length 10" in capsys.readouterr().out


def test_solve_exhausted_node_budget(tmp_path, capsys):
    path = write_system(tmp_path, "checker.json", 2, 0,
                        [(0, 1), (1, 0)], [(0, 1), (1, 0)])
    assert main(["solve", path, "--chain", "30", "--node-cap", "5"]) == 1
    assert "node budget exhausted" in capsys.readouterr().out


def test_classify_emits_verdict_json(paths, capsys):
    assert main(["classify", paths["system"], "--depth-cap", "12"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["kind"] == "unknown"
    assert verdict["depth_reached"] == 12


def test_classify_bad_budget_is_exit_2(paths, capsys):
    assert main(["classify", paths["system"], "--depth-cap", "0"]) == 2
    assert "error: " in capsys.readouterr().err


def test_census_summary_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "n1.jsonl")
    assert main(["census", "1", "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mu_exact"] == 3
    assert len(open(out).read().splitlines()) == 4


def test_census_pause_then_resume(tmp_path, capsys):
    out = str(tmp_path / "n2.jsonl")
    caps = ["--depth-cap", "16", "--period-cap", "3"]
    assert main(["census", "2", "--out", out, "--stop-after", "17", *caps]) == 0
    assert capsys.readouterr().out == "paused\n"
    assert main(["census", "2", "--out", out, "--resume", *caps]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["total_systems"] == 512
    assert summary["bounded"] + summary["has_coloring"] + summary["unknown"] == 512


def test_census_rejects_resumption_with_other_caps(tmp_path, capsys):
    out = str(tmp_path / "n2.jsonl")
    assert main(["census", "2", "--out", out, "--stop-after", "5"]) == 0
    assert main(["census", "2", "--out", out, "--resume", "--depth-cap", "9"]) == 2
    assert "depth_cap" in capsys.readouterr().err


def test_render_text_to_stdout(paths, capsys):
    assert main(["render", paths["sequence"]]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("1 2 0")


def test_render_ppm_to_file(paths, tmp_path):
    out = tmp_path / "img.ppm"
    assert main(["render", paths["triangle"], "--format", "ppm",
                 "--scale", "2", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.startswith(b"P3\n20 20\n255\n")


def test_render_witness_expands(tmp_path, capsys):
    wit_path = write_json(tmp_path / "wit.json", qc.PeriodicWitness(p=2, q=1, rows=((0, 1),)))
    assert main(["render", wit_path, "--depth", "3"]) == 0
    assert capsys.readouterr().out == "0\n0 1\n0 1 0\n0 1 0 1\n"


def test_render_custom_palette(paths, tmp_path):
    palette_path = tmp_path / "palette.json"
    palette_path.write_text(json.dumps(
        [{"name": f"c{i}", "rgb": [i, i, i]} for i in range(13)]
    ))
    out = tmp_path / "img.svg"
    assert main(["render", paths["triangle"], "--format", "svg",
                 "--palette", str(palette_path), "--out", str(out)]) == 0
    assert b"<title>c8</title>" in out.read_bytes()


def test_render_rejects_bad_palette(paths, tmp_path, capsys):
    palette_path = tmp_path / "palette.json"
    # out of range, a JSON true (no channel value), a float
    for rgb in ([0, 0, 256], [0, True, 0], [0, 0.5, 0]):
        palette_path.write_text(json.dumps([{"name": "x", "rgb": rgb}]))
        assert main(["render", paths["sequence"], "--format", "svg",
                     "--palette", str(palette_path)]) == 2
        assert "palette entry 0" in capsys.readouterr().err
    # entries of the wrong JSON shape, a name that is no string, no entries
    for palette in ([["x", [0, 0, 0]]], [{"name": "x"}], [{"name": "x", "rgb": "abc"}],
                    [{"name": 3, "rgb": [0, 0, 0]}], [], {"name": "x", "rgb": [0, 0, 0]}):
        palette_path.write_text(json.dumps(palette))
        assert main(["render", paths["sequence"], "--format", "svg",
                     "--palette", str(palette_path)]) == 2
        assert "palette" in capsys.readouterr().err


def test_isomorphic_exit_codes(tmp_path, capsys):
    a = write_system(tmp_path, "a.json", 2, 0, [(0, 1)], [(1, 0)])
    b = write_system(tmp_path, "b.json", 2, 1, [(1, 0)], [(0, 1)])
    c = write_system(tmp_path, "c.json", 2, 0, [(0, 1)], [(0, 1)])
    assert main(["isomorphic", a, b]) == 0
    assert main(["isomorphic", a, c]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["isomorphic", "not isomorphic"]


def test_canon_writes_canonical_system(tmp_path, capsys):
    path = write_system(tmp_path, "sys.json", 2, 1, [(1, 1)], [(1, 1)])
    out = str(tmp_path / "canon.json")
    assert main(["canon", path, "--out", out]) == 0
    assert qc.load_system(out) == qc.ColoringSystem.from_pairs(2, 0, [(0, 0)], [(0, 0)])
    assert main(["canon", path]) == 0
    printed = qc.parse_system(json.loads(capsys.readouterr().out))
    assert printed == qc.load_system(out)


def test_python_m_runs_the_cli(tmp_path):
    """``python -m quadcolor.cli`` runs main and exits with its code."""
    env = dict(os.environ)
    src = str(Path(qc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "quadcolor.cli", *args],
                              capture_output=True, text=True, env=env, timeout=120)

    stripes = str(FIXTURES / "stripes.system.json")
    bad = tmp_path / "bad.witness.json"
    bad.write_text('{"p":2,"q":1,"cells":[[0,5]]}')
    result = run("check", stripes, str(bad))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    result = run("check", stripes, str(FIXTURES / "stripes.witness.json"))
    assert result.returncode == 0
    assert result.stdout == "accepted\n"
