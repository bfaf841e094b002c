"""A bundled 13-color reference system with a hand-checked staircase coloring.

The system pairs two 6-color gadgets (colors 0-5 and 6-12 minus overlap)
whose H relation keeps each band internally consistent while V alternates
between the bands, so acceptable colorings are forced to stripe.  The
55-tile triangle below is accepted and extendable, which makes this a good
smoke-test subject: big enough to exercise every index formula, small
enough to re-check by hand.
"""

from __future__ import annotations

from .systems import ColoringSystem, TriangleColoring

COLOR_COUNT = 13
ORIGIN = 1

H_PAIRS: tuple = (
    (0, 1), (0, 4),
    (1, 2), (1, 5),
    (2, 0), (2, 3),
    (3, 2), (3, 5),
    (4, 0), (4, 3),
    (5, 1), (5, 4),
    (6, 6), (6, 9), (6, 10),
    (7, 7), (7, 8), (7, 11), (7, 12),
    (8, 6), (8, 9), (8, 10),
    (9, 7), (9, 8), (9, 11), (9, 12),
    (10, 6), (10, 9), (10, 10),
    (11, 7), (11, 8), (11, 11), (11, 12),
    (12, 6), (12, 9), (12, 10),
)

V_PAIRS: tuple = (
    (0, 2), (0, 4), (0, 5), (0, 8), (0, 9), (0, 12),
    (1, 2), (1, 4), (1, 5), (1, 8), (1, 9), (1, 12),
    (2, 2), (2, 4), (2, 5), (2, 8), (2, 9), (2, 12),
    (3, 10), (3, 11),
    (4, 10), (4, 11),
    (5, 10), (5, 11),
    (6, 0), (6, 1), (6, 3),
    (7, 0), (7, 1), (7, 3),
    (8, 0), (8, 1), (8, 3),
    (9, 2), (9, 4), (9, 5), (9, 8), (9, 9), (9, 12),
    (10, 2), (10, 4), (10, 5), (10, 8), (10, 9), (10, 12),
    (11, 2), (11, 4), (11, 5), (11, 8), (11, 9), (11, 12),
    (12, 6), (12, 7),
)

# bottom-up: TRIANGLE_ROWS[y] lists colors at (0, y), (1, y), ...
TRIANGLE_ROWS: tuple = (
    (1, 2, 0, 1, 2, 0, 1, 2, 0, 1),
    (8, 9, 8, 9, 8, 9, 8, 9, 8),
    (0, 4, 0, 4, 0, 4, 0, 4),
    (9, 11, 12, 10, 9, 11, 12),
    (8, 9, 7, 8, 9, 8),
    (0, 4, 0, 1, 2),
    (8, 10, 9, 8),
    (1, 5, 4),
    (9, 11),
    (8,),
)

TRIANGLE_DEPTH = sum(len(row) for row in TRIANGLE_ROWS) - 1


def example_system() -> ColoringSystem:
    return ColoringSystem.from_pairs(COLOR_COUNT, ORIGIN, H_PAIRS, V_PAIRS)


def example_triangle() -> TriangleColoring:
    return TriangleColoring.from_rows(TRIANGLE_DEPTH, [list(row) for row in TRIANGLE_ROWS])
