"""Interchange format roundtrips and strictness of the parsers."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadcolor as qc
from quadcolor.fileio import (
    parse_coloring,
    parse_sequence,
    parse_system,
    parse_triangle,
    parse_witness,
)
from conftest import system_strategy


def test_system_roundtrip_is_byte_stable(tmp_path, example_system):
    path = tmp_path / "sys.json"
    qc.save_system(example_system, str(path))
    first = path.read_bytes()
    loaded = qc.load_system(str(path))
    assert loaded == example_system
    qc.save_system(loaded, str(path))
    assert path.read_bytes() == first


@given(system_strategy(max_colors=5))
@settings(max_examples=60, deadline=None)
def test_system_json_roundtrip(s):
    assert parse_system(qc.system_to_json(s)) == s


def test_system_json_layout(example_system):
    obj = qc.system_to_json(example_system)
    assert list(obj) == ["colors", "origin", "horizontal", "vertical"]
    assert obj["horizontal"] == sorted(obj["horizontal"])
    assert obj["vertical"] == sorted(obj["vertical"])


def test_parse_system_rejects_malformed():
    good = {"colors": 2, "origin": 0, "horizontal": [[0, 1]], "vertical": []}
    parse_system(good)
    cases = [
        {**good, "extra": 1},
        {k: v for k, v in good.items() if k != "origin"},
        {**good, "colors": True},
        {**good, "origin": "0"},
        {**good, "horizontal": [[0, 1], [0, 1]]},  # duplicate pair
        {**good, "horizontal": [[0, 1, 2]]},
        {**good, "horizontal": [[0, True]]},
        {**good, "vertical": 7},
        [],
    ]
    for bad in cases:
        with pytest.raises(qc.FileFormatError):
            parse_system(bad)


def test_parse_system_propagates_relation_range_errors():
    # structurally fine JSON, semantically bad system: InputError, not a crash
    with pytest.raises(qc.InputError):
        parse_system({"colors": 2, "origin": 0, "horizontal": [[0, 5]], "vertical": []})
    with pytest.raises(qc.InputError):
        parse_system({"colors": 2, "origin": 2, "horizontal": [], "vertical": []})


def test_sequence_roundtrip(tmp_path, example_sequence):
    path = tmp_path / "seq.json"
    qc.save_sequence(example_sequence, str(path))
    assert path.read_text().count("\n") == 1  # one line
    assert qc.load_sequence(str(path)) == example_sequence
    with pytest.raises(qc.FileFormatError):
        parse_sequence([1, "2"])
    with pytest.raises(qc.FileFormatError):
        parse_sequence({"cells": []})
    # saving coerces nothing: a color the loader refuses is refused here
    # too, with the same check, not written as some other int
    for bad in (1.7, True, "2", None):
        with pytest.raises(qc.InputError, match=r"sequence\[1\] must be an integer"):
            qc.save_sequence((0, bad), str(tmp_path / "bad.json"))
    assert not (tmp_path / "bad.json").exists()


def test_triangle_roundtrip(tmp_path, example_triangle):
    path = tmp_path / "tri.json"
    qc.save_triangle(example_triangle, str(path))
    back = qc.load_triangle(str(path))
    assert back == example_triangle
    obj = qc.triangle_to_json(example_triangle)
    assert obj["depth"] == example_triangle.depth
    assert obj["rows"][0] == list(example_triangle.rows()[0])


def test_parse_triangle_rejects_bad_shapes():
    with pytest.raises(qc.FileFormatError):
        parse_triangle({"depth": 1, "rows": [[0, 0]], "palette": []})
    with pytest.raises(qc.FileFormatError):
        parse_triangle({"depth": 1, "rows": 3})
    with pytest.raises(qc.InputError):
        # a cell off the staircase: domain errors surface from construction
        parse_triangle({"depth": 2, "rows": [[0], [0, 0]]})


def test_witness_roundtrip(tmp_path):
    w = qc.PeriodicWitness(p=2, q=1, rows=((0, 1),))
    path = tmp_path / "wit.json"
    qc.save_witness(w, str(path))
    assert qc.load_witness(str(path)) == w
    obj = qc.witness_to_json(w)
    assert obj == {"p": 2, "q": 1, "cells": [[0, 1]]}


def test_parse_witness_checks_grid_shape():
    base = {"p": 2, "q": 2, "cells": [[0, 1], [1, 0]]}
    parse_witness(base)
    for bad in (
        {**base, "cells": [[0, 1]]},  # one row short
        {**base, "cells": [[0, 1], [1]]},  # ragged
        {**base, "p": 0},
        {**base, "q": -1},
        {**base, "cells": "xy"},
    ):
        with pytest.raises(qc.FileFormatError):
            parse_witness(bad)


def test_verdict_roundtrips():
    verdicts = [
        qc.Bounded(max_len=7),
        qc.HasColoring(qc.PeriodicWitness(p=1, q=1, rows=((0,),))),
        qc.Unknown(depth_reached=64, period_cap_reached=4),
    ]
    for v in verdicts:
        assert qc.parse_verdict(qc.verdict_to_json(v)) == v
    with pytest.raises(qc.FileFormatError):
        qc.parse_verdict({"kind": "maybe"})
    with pytest.raises(qc.FileFormatError):
        qc.parse_verdict({"max_len": 7})
    with pytest.raises(qc.FileFormatError):
        qc.parse_verdict({"kind": "bounded", "max_len": 7, "note": "hi"})
    # fields out of range, or bools, are rejected by the verdicts themselves,
    # and the parser names the field
    unknown = {"kind": "unknown", "depth_reached": 64, "period_cap_reached": 4}
    for field, bad in (
        ("max_len", -4), ("max_len", 0), ("max_len", True), ("max_len", 2.0),
        ("depth_reached", -1), ("depth_reached", False),
        ("period_cap_reached", 0), ("period_cap_reached", True),
    ):
        obj = {"kind": "bounded", "max_len": bad} if field == "max_len" else {**unknown, field: bad}
        with pytest.raises(qc.FileFormatError, match=field):
            qc.parse_verdict(obj)
        fields = {k: v for k, v in obj.items() if k != "kind"}
        with pytest.raises(qc.InputError, match=field):
            (qc.Bounded if field == "max_len" else qc.Unknown)(**fields)
    assert qc.Unknown(depth_reached=0, period_cap_reached=1).depth_reached == 0


def test_coloring_dispatch(example_sequence, example_triangle):
    kind, seq = parse_coloring(list(example_sequence))
    assert kind == "sequence" and seq == example_sequence
    kind, tri = parse_coloring(qc.triangle_to_json(example_triangle))
    assert kind == "triangle" and tri == example_triangle
    kind, wit = parse_coloring({"p": 1, "q": 1, "cells": [[0]]})
    assert kind == "witness" and wit.rows == ((0,),)
    with pytest.raises(qc.FileFormatError):
        parse_coloring("a string")
    with pytest.raises(qc.FileFormatError):
        parse_coloring({"mystery": 1})


def test_load_coloring_from_disk(tmp_path, example_triangle):
    path = tmp_path / "anything.json"
    qc.save_triangle(example_triangle, str(path))
    kind, value = qc.load_coloring(str(path))
    assert kind == "triangle" and value == example_triangle


def test_malformed_json_error_names_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"colors": 2,\n  "origin": }\n')
    with pytest.raises(qc.FileFormatError) as excinfo:
        qc.load_system(str(path))
    assert "line 2" in str(excinfo.value)
    assert str(path) in str(excinfo.value)


def test_error_classes_nest():
    # file format problems are input problems are value errors
    assert issubclass(qc.FileFormatError, qc.InputError)
    assert issubclass(qc.InputError, ValueError)
