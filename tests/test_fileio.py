"""Interchange format roundtrips and strictness of the parsers."""

import json

import pytest
from hypothesis import given, settings

import quadcolor as qc
from quadcolor.fileio import (
    parse_coloring,
    parse_sequence,
    parse_system,
    parse_triangle,
    parse_witness,
)
from conftest import system_strategy, write_json


def test_system_roundtrip_is_byte_stable(tmp_path, example_system):
    path = tmp_path / "sys.json"
    write_json(path, example_system)
    first = path.read_bytes()
    loaded = qc.load_system(str(path))
    assert loaded == example_system
    write_json(path, loaded)
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


def test_sequence_roundtrip(example_sequence):
    assert parse_sequence(list(example_sequence)) == example_sequence
    with pytest.raises(qc.FileFormatError):
        parse_sequence([1, "2"])
    with pytest.raises(qc.FileFormatError):
        parse_sequence({"cells": []})
    for bad in (1.7, True, "2", None):
        with pytest.raises(qc.InputError, match=r"sequence\[1\] must be an integer"):
            parse_sequence([0, bad])


def test_triangle_roundtrip(example_triangle):
    # the layout the CLI reads: depth, then bottom-up rows
    for tri in (example_triangle, *(qc.TriangleColoring(range(k)) for k in range(1, 12))):
        assert parse_triangle({"depth": tri.depth, "rows": tri.rows()}) == tri


def test_parse_triangle_rejects_bad_shapes():
    with pytest.raises(qc.FileFormatError):
        parse_triangle({"depth": 1, "rows": [[0, 0]], "palette": []})
    with pytest.raises(qc.FileFormatError):
        parse_triangle({"depth": 1, "rows": 3})
    with pytest.raises(qc.InputError):
        # a cell off the staircase: domain errors surface from construction
        parse_triangle({"depth": 2, "rows": [[0], [0, 0]]})


def test_witness_roundtrip():
    w = qc.PeriodicWitness(p=2, q=1, rows=((0, 1),))
    obj = qc.witness_to_json(w)
    assert obj == {"p": 2, "q": 1, "cells": [[0, 1]]}
    assert parse_witness(obj) == w


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
    # classify prints verdict_to_json, and a census record's detail holds
    # the same fields, so each kind reads back through the record parser
    system = qc.system_at(2, 0)
    for v in (
        qc.Bounded(max_len=7),
        qc.HasColoring(qc.PeriodicWitness(p=1, q=1, rows=((0,),))),
        qc.Unknown(depth_reached=64, period_cap_reached=4),
    ):
        obj = qc.verdict_to_json(v)
        assert obj["kind"] == qc.verdict_kind(v)
        fields = {key: value for key, value in obj.items() if key != "kind"}
        detail = fields["witness"] if isinstance(v, qc.HasColoring) else fields
        line = json.dumps({
            "system_index": 0,
            "canonical_id": qc.canonical_id(system),
            "verdict": obj["kind"],
            "detail": detail,
        })
        assert qc.parse_record_line(2, line).verdict == v
    with pytest.raises(TypeError, match="not a verdict"):
        qc.verdict_to_json(qc.PeriodicWitness(p=1, q=1, rows=((0,),)))


def test_coloring_dispatch(example_sequence, example_triangle):
    kind, seq = parse_coloring(list(example_sequence))
    assert kind == "sequence" and seq == example_sequence
    kind, tri = parse_coloring({"depth": example_triangle.depth, "rows": example_triangle.rows()})
    assert kind == "triangle" and tri == example_triangle
    kind, wit = parse_coloring({"p": 1, "q": 1, "cells": [[0]]})
    assert kind == "witness" and wit.rows == ((0,),)
    with pytest.raises(qc.FileFormatError):
        parse_coloring("a string")
    with pytest.raises(qc.FileFormatError):
        parse_coloring({"mystery": 1})


def test_load_coloring_from_disk(tmp_path, example_sequence, example_triangle):
    witness = qc.PeriodicWitness(p=2, q=1, rows=((0, 1),))
    for kind, value in (
        ("sequence", example_sequence),
        ("triangle", example_triangle),
        ("witness", witness),
    ):
        path = write_json(tmp_path / "anything.json", value)
        assert qc.load_coloring(path) == (kind, value)


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
