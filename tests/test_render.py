"""Renderer output: golden text, PPM pixel checks, SVG structure,
palette behavior, and the text roundtrip."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadcolor as qc


def small_triangle():
    # staircase for sequence (0, 1, 2): (0,0)=0, (0,1)=1, (1,0)=2
    return qc.TriangleColoring((0, 1, 2))


def test_text_render_golden():
    out = qc.render_triangle(small_triangle(), fmt="text")
    assert out == b"1\n0 2\n"


def test_text_render_example_matches_rows(example_triangle):
    lines = qc.render_triangle(example_triangle, fmt="text").decode().splitlines()
    assert len(lines) == len(example_triangle.rows())
    assert lines[-1].split() == [str(c) for c in example_triangle.rows()[0]]
    assert lines[0] == "8"  # lone top cell


def test_parse_text_triangle_roundtrip(example_triangle):
    text = qc.render_triangle(example_triangle, fmt="text").decode()
    assert qc.parse_text_triangle(text) == example_triangle
    with pytest.raises(qc.InputError):
        qc.parse_text_triangle("")
    with pytest.raises(qc.InputError):
        qc.parse_text_triangle("0 x\n1\n")


@given(st.integers(min_value=1, max_value=40), st.randoms())
@settings(max_examples=40, deadline=None)
def test_text_roundtrip_property(length, rng):
    seq = tuple(rng.randrange(10) for _ in range(length))
    tri = qc.TriangleColoring(seq)
    back = qc.parse_text_triangle(qc.render_triangle(tri, fmt="text").decode())
    assert back == tri


def test_ppm_geometry_and_background():
    tri = small_triangle()
    data = qc.render_triangle(tri, fmt="ppm").decode()
    lines = data.splitlines()
    assert lines[0] == "P3"
    assert lines[1] == "2 2"  # max_x+1 by max_y+1
    assert lines[2] == "255"
    palette = qc.default_palette(3)
    top = lines[3].split("  ")
    bottom = lines[4].split("  ")
    assert top[0] == "%d %d %d" % palette.rgb(1)
    assert top[1] == "255 255 255"  # off the staircase
    assert bottom[0] == "%d %d %d" % palette.rgb(0)
    assert bottom[1] == "%d %d %d" % palette.rgb(2)


def test_ppm_scale_multiplies_pixels():
    tri = small_triangle()
    data = qc.render_triangle(tri, fmt="ppm", scale=3).decode().splitlines()
    assert data[1] == "6 6"
    assert len(data) == 3 + 6


def test_svg_structure():
    tri = small_triangle()
    data = qc.render_triangle(tri, fmt="svg").decode()
    assert data.count("<rect") == 3
    assert 'width="20" height="20"' in data.splitlines()[0]
    assert "#ff0000" in data  # color 0 is red
    assert "<title>red</title>" in data
    assert "<title>blue</title>" in data


def test_svg_is_deterministic(example_triangle):
    a = qc.render_triangle(example_triangle, fmt="svg", scale=2)
    b = qc.render_triangle(example_triangle, fmt="svg", scale=2)
    assert a == b
    assert a.count(b"<rect") == len(example_triangle.cells)


def test_example_render_bytes_are_pinned(example_triangle):
    pinned = {
        ("text", 1): "1d73d3213ec872900f36caef822bc24a2d9f5b13436a3dec2fce4334398b7a65",
        ("svg", 1): "e0a52e9c03b26e790a0f0d870895a9b9ec8f28cb6d6cbcc2f95c0515fcdb7ee9",
        ("ppm", 3): "f556ca00490e9756990fa2bb80b0f9438fc4ef95bdf96d7163307f12abed7281",
    }
    digests = {
        (fmt, scale): hashlib.sha256(
            qc.render_triangle(example_triangle, fmt=fmt, scale=scale)
        ).hexdigest()
        for fmt, scale in pinned
    }
    assert digests == pinned


def test_default_palette_names():
    p = qc.default_palette(13)
    assert p.name(0) == "red"
    assert p.name(12) == "orange"
    assert len(p) == 13
    bigger = qc.default_palette(16)
    assert bigger.name(12) == "orange"
    assert bigger.name(13).startswith("hue")
    assert len({bigger.rgb(i) for i in range(16)}) == 16  # no collisions
    with pytest.raises(qc.InputError):
        qc.default_palette(0)


def test_palette_bounds():
    p = qc.default_palette(2)
    with pytest.raises(qc.InputError):
        p.rgb(2)
    with pytest.raises(qc.InputError):
        p.name(-1)
    # rendering a triangle with colors past the palette is an input error
    with pytest.raises(qc.InputError):
        qc.render_triangle(small_triangle(), fmt="ppm", palette=p)


def test_render_argument_validation():
    with pytest.raises(qc.InputError):
        qc.render_triangle(small_triangle(), fmt="png")
    with pytest.raises(qc.InputError):
        qc.render_triangle(small_triangle(), fmt="ppm", scale=0)
