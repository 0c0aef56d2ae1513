"""Deterministic ASCII and SVG rendering of stitch grids.

Stitches are drawn as full unit segments.  The data model reads rows bottom
up, so ASCII output prints the top line first and SVG flips the y axis;
identical inputs always produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .grid import Point, StitchGrid
from .loops import LatticeCycle


@dataclass(frozen=True)
class RenderOptions:
    cell_size: int = 20
    stroke_width: float = 2.0
    show_grid: bool = False
    fill_two_coloring: bool = False
    palette: tuple[str, str, str] = ("#f5efe0", "#9db8d2", "#1b2a4a")

    def __post_init__(self):
        if self.cell_size < 1:
            raise ValueError("cell_size must be >= 1")
        if self.stroke_width <= 0:
            raise ValueError("stroke_width must be positive")


DEFAULT_OPTIONS = RenderOptions()


def render_ascii(grid: StitchGrid, options: RenderOptions = DEFAULT_OPTIONS) -> str:
    """Character-matrix picture, H+1 lines of up to 2W+1 columns.

    Horizontal stitches print as underscores at the foot of their text line,
    vertical stitches as pipes; the bottom lattice row prints last.  With
    show_grid, unoccupied lattice-line columns carry ``+`` marks.

    A text line depends only on the parity of y (the top line has no pipes)
    and on the parity of its row's phase bit, so each distinct line is built
    once.
    """
    W, H = grid.width, grid.height
    rows, cols = grid.row_bits, grid.col_bits
    blank = "+" if options.show_grid else " "
    built: dict[tuple[Optional[int], Optional[int]], str] = {}
    lines = []
    for y in range(H, -1, -1):
        key = (y & 1 if y < H and cols is not None else None,
               rows[y] & 1 if rows is not None else None)
        if key not in built:
            pipe, bit = key
            marks = ([blank] * (W + 1) if pipe is None else
                     ["|" if (pipe + c) & 1 else blank for c in cols])
            under = ([" "] * W if bit is None else
                     ["_" if (x + bit) & 1 else " " for x in range(W)])
            built[key] = "".join(
                m + u for m, u in zip(marks, under + [""])).rstrip()
        lines.append(built[key])
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}".rstrip("0").rstrip(".")


def render_svg(
    grid: StitchGrid,
    options: RenderOptions = DEFAULT_OPTIONS,
    coloring: Optional[Mapping[Point, int]] = None,
    highlight: Optional[LatticeCycle] = None,
) -> str:
    """SVG document with one line element per present segment.

    ``coloring`` (cell -> 0/1, as produced by two_color) paints unit squares
    beneath the strokes when fill_two_coloring is set; ``highlight`` draws
    one closed cycle on top with a heavier contrasting stroke.
    """
    s = options.cell_size
    W, H = grid.width, grid.height
    fill_a, fill_b, stroke = options.palette

    def X(x: float) -> str:
        return _fmt(x * s)

    def Y(y: float) -> str:
        return _fmt((H - y) * s)

    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W * s}" '
        f'height="{H * s}" viewBox="0 0 {W * s} {H * s}">'
    )

    if options.fill_two_coloring and coloring is not None:
        parts.append('  <g stroke="none">')
        for (cx, cy) in sorted(coloring):
            fill = fill_b if coloring[(cx, cy)] else fill_a
            parts.append(
                f'    <rect x="{X(cx)}" y="{Y(cy + 1)}" width="{s}" '
                f'height="{s}" fill="{fill}"/>'
            )
        parts.append("  </g>")

    if options.show_grid:
        parts.append(
            f'  <g stroke="{stroke}" stroke-opacity="0.15" stroke-width="1">'
        )
        for x in range(W + 1):
            parts.append(
                f'    <line x1="{X(x)}" y1="{Y(0)}" x2="{X(x)}" y2="{Y(H)}"/>'
            )
        for y in range(H + 1):
            parts.append(
                f'    <line x1="{X(0)}" y1="{Y(y)}" x2="{X(W)}" y2="{Y(y)}"/>'
            )
        parts.append("  </g>")

    parts.append(
        f'  <g stroke="{stroke}" stroke-width="{_fmt(options.stroke_width)}" '
        f'stroke-linecap="square">'
    )
    for (x1, y1), (x2, y2) in grid.segments():
        parts.append(
            f'    <line x1="{X(x1)}" y1="{Y(y1)}" x2="{X(x2)}" y2="{Y(y2)}"/>'
        )
    parts.append("  </g>")

    if highlight is not None:
        points = " ".join(f"{X(x)},{Y(y)}" for x, y in highlight.vertices)
        parts.append(
            f'  <polygon points="{points}" fill="none" stroke="{fill_b}" '
            f'stroke-width="{_fmt(options.stroke_width * 2)}"/>'
        )

    parts.append("</svg>")
    parts.append("")
    return "\n".join(parts)


def render_cycle_svg(
    cycle: LatticeCycle,
    options: RenderOptions = DEFAULT_OPTIONS,
) -> str:
    """Standalone SVG of one closed boundary, e.g. a traced snowflake."""
    s = options.cell_size
    xs = [x for x, _ in cycle.vertices]
    ys = [y for _, y in cycle.vertices]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    width = (max_x - min_x) * s
    height = (max_y - min_y) * s

    def X(x: int) -> str:
        return _fmt((x - min_x) * s)

    def Y(y: int) -> str:
        return _fmt((max_y - y) * s)

    points = " ".join(f"{X(x)},{Y(y)}" for x, y in cycle.vertices)
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'  <polygon points="{points}" fill="{options.palette[1]}" '
        f'fill-opacity="0.35" stroke="{options.palette[2]}" '
        f'stroke-width="{_fmt(options.stroke_width)}"/>',
        "</svg>",
        "",
    ])
