"""Pictures of triangle colorings: text, SVG, and PPM.

The quadrant is drawn the usual way up, origin in the bottom-left corner,
so row y of the staircase appears max_y - y lines from the top.  Each
renderer reads the triangle's rows once, and none emits timestamps or
float formatting, so equal colorings produce equal bytes.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass

from .systems import InputError, TriangleColoring, _is_int

# an homage to the classic crayon box; colors beyond these are generated
_BASE_COLORS: tuple = (
    ("red", (255, 0, 0)),
    ("blue", (0, 0, 255)),
    ("forest green", (34, 139, 34)),
    ("purple", (128, 0, 128)),
    ("yellow", (255, 255, 0)),
    ("pink", (255, 192, 203)),
    ("aqua", (0, 255, 255)),
    ("grey", (128, 128, 128)),
    ("teal", (0, 128, 128)),
    ("lime green", (50, 205, 50)),
    ("brown", (139, 69, 19)),
    ("candy green", (99, 214, 104)),
    ("orange", (255, 165, 0)),
)

_BACKGROUND = (255, 255, 255)

FORMATS = ("text", "svg", "ppm")


@dataclass(frozen=True)
class Palette:
    """Color number -> (name, rgb).  Lookups past the end are errors."""

    entries: tuple

    def __post_init__(self):
        if not (isinstance(self.entries, tuple) and self.entries):
            raise InputError(f"palette entries must be a non-empty tuple, got {self.entries!r}")
        for i, entry in enumerate(self.entries):
            if not (isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str)
                    and isinstance(entry[1], tuple) and len(entry[1]) == 3
                    and all(_is_int(v) and 0 <= v <= 255 for v in entry[1])):
                raise InputError(f"palette entry {i} is not (name, (r, g, b)) in [0, 255]: {entry}")

    def name(self, color: int) -> str:
        self._check(color)
        return self.entries[color][0]

    def rgb(self, color: int) -> tuple:
        self._check(color)
        return self.entries[color][1]

    def _check(self, color: int) -> None:
        if not (_is_int(color) and 0 <= color < len(self.entries)):
            raise InputError(f"palette has {len(self.entries)} colors, cannot draw color {color!r}")


def default_palette(n: int) -> Palette:
    """The named base colors, extended with evenly spaced hues as needed."""
    if not _is_int(n) or n < 1:
        raise InputError(f"palette size must be an int >= 1, got {n!r}")
    entries = list(_BASE_COLORS[:n])
    for i in range(len(_BASE_COLORS), n):
        hue = (i - len(_BASE_COLORS)) / max(1, n - len(_BASE_COLORS))
        r, g, b = colorsys.hsv_to_rgb(hue, 0.55, 0.82)
        entries.append((f"hue{i}", (round(r * 255), round(g * 255), round(b * 255))))
    return Palette(entries=tuple(entries))


def render_triangle(
    tri: TriangleColoring,
    fmt: str = "text",
    palette: Palette = None,
    scale: int = 1,
) -> bytes:
    """Render a staircase triangle; fmt is one of text, svg, ppm."""
    if fmt not in FORMATS:
        raise InputError(f"format must be one of {'/'.join(FORMATS)}, got {fmt!r}")
    if not _is_int(scale) or scale < 1:
        raise InputError(f"scale must be an int >= 1, got {scale!r}")
    if palette is None and fmt != "text":
        palette = default_palette(max(tri.seq) + 1)
    if fmt == "text":
        return _render_text(tri)
    if fmt == "svg":
        return _render_svg(tri, palette, scale)
    return _render_ppm(tri, palette, scale)


def _render_text(tri: TriangleColoring) -> bytes:
    lines = [" ".join(str(c) for c in row) for row in reversed(tri.rows())]
    return ("\n".join(lines) + "\n").encode("ascii")


def _render_svg(tri: TriangleColoring, palette: Palette, scale: int) -> bytes:
    # imported here: xml.sax.saxutils pulls in urllib.request, which costs
    # every importer of the package about 20 ms and 4 MB
    from xml.sax.saxutils import escape

    side = 10 * scale
    rows = tri.rows()
    width = len(rows[0]) * side
    height = len(rows) * side
    max_y = len(rows) - 1
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for y, row in enumerate(rows):
        for x, color in enumerate(row):
            r, g, b = palette.rgb(color)
            parts.append(
                f'<rect x="{x * side}" y="{(max_y - y) * side}" width="{side}" height="{side}" '
                f'fill="#{r:02x}{g:02x}{b:02x}"><title>{escape(palette.name(color))}</title></rect>'
            )
    parts.append("</svg>")
    # a name is text, so &, < and > are escaped, and any character past
    # ASCII is written as a character reference
    return ("\n".join(parts) + "\n").encode("ascii", "xmlcharrefreplace")


def _render_ppm(tri: TriangleColoring, palette: Palette, scale: int) -> bytes:
    rows = tri.rows()
    width = len(rows[0]) * scale
    height = len(rows) * scale
    background = "%d %d %d" % _BACKGROUND
    lines = ["P3", f"{width} {height}", "255"]
    for row in reversed(rows):
        pixels = ["%d %d %d" % palette.rgb(color) for color in row for _ in range(scale)]
        pixels += [background] * (width - len(pixels))
        lines += ["  ".join(pixels)] * scale
    return ("\n".join(lines) + "\n").encode("ascii")
