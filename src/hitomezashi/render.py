"""Deterministic ASCII and SVG rendering of stitch grids.

Stitches are drawn as full unit segments.  The data model reads rows bottom
up, so ASCII output prints the top line first and SVG flips the y axis;
identical inputs always produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Optional

from .grid import StitchGrid
from .loops import ColumnColoring, LatticeCycle
from .words import _count


@dataclass(frozen=True)
class RenderOptions:
    cell_size: int = 20
    stroke_width: float = 2.0
    show_grid: bool = False
    fill_two_coloring: bool = False

    def __post_init__(self):
        object.__setattr__(self, "cell_size",
                           _count("cell_size", self.cell_size))
        if not isinstance(self.stroke_width, Real):
            raise ValueError("stroke_width must be a number")
        if self.stroke_width <= 0:
            raise ValueError("stroke_width must be positive")
        if not math.isfinite(self.stroke_width):
            raise ValueError("stroke_width must be finite")
        if not math.isfinite(2 * self.stroke_width):  # the highlight's width
            raise ValueError("stroke_width is too large")


DEFAULT_OPTIONS = RenderOptions()
PALETTE = ("#f5efe0", "#9db8d2", "#1b2a4a")  # two fills, then the stroke
# one stitch of a row or column line; NUL stands for the line's own coordinate
_ROW_STITCH = '    <line x1="{}" y1="\0" x2="{}" y2="\0"/>\n'
_COL_STITCH = '    <line x1="\0" y1="{}" x2="\0" y2="{}"/>\n'


def render_ascii(grid: StitchGrid, options: RenderOptions = DEFAULT_OPTIONS) -> str:
    """Character-matrix picture, H+1 lines of up to 2W+1 columns.

    Horizontal stitches print as underscores at the foot of their text line,
    vertical stitches as pipes; the bottom lattice row prints last.  With
    show_grid, unoccupied lattice-line columns carry ``+`` marks.

    A text line depends only on the parity of y (the top line has no pipes)
    and on its row's phase bit, so each distinct line is built once.
    """
    W, H = grid.width, grid.height
    rows, cols = grid.row_bits, grid.col_bits
    blank = "+" if options.show_grid else " "
    built: dict[tuple[Optional[int], Optional[int]], str] = {}
    lines = []
    for y in range(H, -1, -1):
        key = (y & 1 if y < H and cols is not None else None,
               rows[y] if rows is not None else None)
        if key not in built:
            pipe, bit = key
            line = [blank] * (2 * W + 1)
            if pipe is not None:
                line[::2] = ["|" if (pipe + c) & 1 else blank for c in cols]
            line[1::2] = (" " * W if bit is None else
                          ("_ " if bit else " _") * (W // 2 + 1))[:W]
            built[key] = "".join(line).rstrip()
        lines.append(built[key])
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}".rstrip("0").rstrip(".")


def render_svg(
    grid: StitchGrid,
    options: RenderOptions = DEFAULT_OPTIONS,
    coloring: Optional[ColumnColoring] = None,
    highlight: Optional[LatticeCycle] = None,
) -> str:
    """SVG document with one line element per present segment.

    With fill_two_coloring set, ``coloring`` must be two_color's
    ColumnColoring of a window of this grid's size, or None for no fill;
    anything else raises ValueError.  It paints one rect per cell beneath
    the strokes, each distinct column's rects built once, as a template
    filled with the column's x; with the fill off it is unused.
    ``highlight`` draws one closed cycle on top with a heavier contrasting
    stroke.  Each coordinate of the window is formatted once.  Each stitch
    line is one string; the fill's rects are fragments of the final join,
    which keeps the peak allocation near 1.6 times the document.
    """
    s = options.cell_size
    W, H = grid.width, grid.height
    fill = options.fill_two_coloring and coloring is not None
    if fill and not (isinstance(coloring, ColumnColoring)
                     and (coloring.width, coloring.height) == (W, H)):
        raise ValueError("the fill needs two_color's coloring of a "
                         f"{W} x {H} window")
    fill_a, fill_b, stroke = PALETTE
    xs = [_fmt(x * s) for x in range(W + 1)]
    ys = [_fmt((H - y) * s) for y in range(H + 1)]

    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W * s}" '
        f'height="{H * s}" viewBox="0 0 {W * s} {H * s}">\n'
    )

    if fill:
        parts.append('  <g stroke="none">\n')
        tail_a, tail_b = (f'" width="{s}" height="{s}" fill="{color}"/>\n'
                          for color in (fill_a, fill_b))
        # Column x's rects differ from any other column's with the same
        # color list only in x: one template per distinct list, added to
        # parts as the pieces of x.join(template), not as one string.
        runs: dict[int, list[str]] = {}
        for x, column in zip(xs, coloring.columns):
            if id(column) not in runs:
                runs[id(column)] = "".join(
                    f'    <rect x="\0" y="{y}{tail_b if c else tail_a}'
                    for y, c in zip(ys[1:], column)).split("\0")
            run = [x] * (2 * len(runs[id(column)]) - 1)
            run[::2] = runs[id(column)]
            parts += run
        parts.append("  </g>\n")

    if options.show_grid:
        parts.append(
            f'  <g stroke="{stroke}" stroke-opacity="0.15" stroke-width="1">\n'
        )
        parts += [f'    <line x1="{x}" y1="{ys[0]}" x2="{x}" y2="{ys[H]}"/>\n'
                  for x in xs]
        parts += [f'    <line x1="{xs[0]}" y1="{y}" x2="{xs[W]}" y2="{y}"/>\n'
                  for y in ys]
        parts.append("  </g>\n")

    parts.append(
        f'  <g stroke="{stroke}" stroke-width="{_fmt(options.stroke_width)}" '
        f'stroke-linecap="square">\n'
    )
    # A line with phase bit b is stitched on the steps k -> k + 1 for k in
    # range(1 - b, n, 2): one template per parity serves every line.
    for bits, along, across, element in (
            (grid.row_bits, xs, ys, _ROW_STITCH),
            (grid.col_bits, ys, xs, _COL_STITCH)):
        if bits is not None:
            templates = ["".join(element.format(a, b) for a, b in
                                 zip(along[p::2], along[p + 1::2]))
                         .split("\0") for p in (1, 0)]
            parts += [coord.join(templates[b])
                      for coord, b in zip(across, bits)]
    parts.append("  </g>\n")

    if highlight is not None:
        points = " ".join(f"{_fmt(x * s)},{_fmt((H - y) * s)}"
                          for x, y in highlight.vertices)
        parts.append(
            f'  <polygon points="{points}" fill="none" stroke="{fill_b}" '
            f'stroke-width="{_fmt(options.stroke_width * 2)}"/>\n'
        )

    parts.append("</svg>\n")
    return "".join(parts)


def render_cycle_svg(
    cycle: LatticeCycle,
    options: RenderOptions = DEFAULT_OPTIONS,
) -> str:
    """Standalone SVG of one closed boundary, e.g. a traced snowflake."""
    s = options.cell_size
    min_x = min(x for x, _ in cycle.vertices)
    max_y = max(y for _, y in cycle.vertices)
    width, height = (d * s for d in cycle.cell_box())
    points = " ".join(f"{_fmt((x - min_x) * s)},{_fmt((max_y - y) * s)}"
                      for x, y in cycle.vertices)
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'  <polygon points="{points}" fill="{PALETTE[1]}" '
        f'fill-opacity="0.35" stroke="{PALETTE[2]}" '
        f'stroke-width="{_fmt(options.stroke_width)}"/>',
        "</svg>",
        "",
    ])
