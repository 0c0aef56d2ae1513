import hashlib
import tracemalloc

import pytest

from hitomezashi.grid import PatternSpec, WordProgram, build_grid
from hitomezashi.loops import largest_loop, two_color
from hitomezashi.render import (RenderOptions, render_ascii, render_cycle_svg,
                                render_svg)
from hitomezashi.tiles import snowflake_cycle


def grid_of(rows, cols, width, height):
    return build_grid(PatternSpec("t", WordProgram.parse(rows),
                                  WordProgram.parse(cols), width, height))

KUCHIZASHI_4X4 = """\
 _   _
 _   _
|_| |_| |
 _   _
|_| |_| |"""


def test_ascii_kuchizashi_window():
    art = render_ascii(grid_of("1", "1", 4, 4))
    assert art == KUCHIZASHI_4X4
    # four complete boxes: a box is a |_| with a _ in the line above
    assert art.count("|_|") == 4


def test_ascii_empty_grid():
    art = render_ascii(grid_of("", "", 3, 2))
    assert art == "\n\n"


def test_ascii_show_grid_marks_vertices():
    art = render_ascii(grid_of("", "", 2, 1),
                       RenderOptions(show_grid=True))
    assert art == "+ + +\n+ + +"


def test_ascii_phase_one_line():
    # a phase-1 line stitches segments x = 0 and x = 2 on a width-3 window
    art = render_ascii(grid_of("1", "", 3, 1))
    assert art.splitlines() == [" _   _", " _   _"]


def test_ascii_bottom_row_prints_last():
    art = render_ascii(grid_of("1:1,0", "", 3, 3))
    lines = art.splitlines()
    assert lines[-1] == " _   _"      # line y=0 has phase 1
    assert lines[-2] == "   _"        # line y=1 has phase 0


def test_svg_segment_count_matches_presence():
    grid = grid_of("1", "1", 4, 4)
    svg = render_svg(grid)
    assert svg.count("<line") == grid.segment_count() == 20


def test_svg_is_deterministic():
    grid = grid_of("0110", "011", 8, 8)
    assert render_svg(grid) == render_svg(grid)


def test_svg_two_coloring_fills_one_rect_per_cell():
    grid = grid_of("1", "1", 4, 4)
    svg = render_svg(grid, RenderOptions(fill_two_coloring=True),
                     coloring=two_color(grid))
    assert svg.count("<rect") == 16


def test_svg_dual_overlay_covers_every_lattice_segment():
    grid = grid_of("0110", "011", 6, 6)
    total = render_svg(grid).count("<line") + \
        render_svg(grid.dual()).count("<line")
    horizontal = (grid.height + 1) * grid.width
    vertical = (grid.width + 1) * grid.height
    assert total == horizontal + vertical


def test_svg_viewbox_and_flip():
    grid = grid_of("1", "1", 3, 2)
    svg = render_svg(grid, RenderOptions(cell_size=10))
    assert 'viewBox="0 0 30 20"' in svg
    # the bottom-left lattice point maps to the bottom of the image
    assert 'x1="0" y1="20"' in svg


def test_svg_highlight_cycle():
    grid = grid_of("11", "11", 8, 8)
    cycle = snowflake_cycle(1)
    svg = render_svg(grid, highlight=cycle)
    assert "<polygon" in svg


def test_cycle_svg():
    svg = render_cycle_svg(snowflake_cycle(2), RenderOptions(cell_size=10))
    assert svg.count("<polygon") == 1
    assert 'width="30"' in svg and 'height="30"' in svg


def test_options_validation():
    with pytest.raises(ValueError):
        RenderOptions(cell_size=0)
    with pytest.raises(ValueError):
        RenderOptions(stroke_width=0)
    for width in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="must be finite"):
            RenderOptions(stroke_width=width)
    # the highlight is drawn at twice the stroke width
    with pytest.raises(ValueError, match="stroke_width is too large"):
        RenderOptions(stroke_width=1e308)
    with pytest.raises(ValueError, match="stroke_width must be a number"):
        RenderOptions(stroke_width="2")


def test_highlight_of_a_stroke_width_near_the_limit():
    svg = render_svg(grid_of("1", "1", 4, 4),
                     RenderOptions(stroke_width=8e307),
                     highlight=snowflake_cycle(1))
    assert f'stroke-width="{int(2 * 8e307)}"' in svg


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of render_svg and render_ascii output, taken while every stitch
# line was still written as fragments of one list: a filled window; a
# piecewise window, filled, with show_grid, a cell size of 7 and a stroke
# width of 1.5; and a window with its largest loop highlighted
@pytest.mark.parametrize("rows,cols,width,height,options,highlight,"
                         "svg_digest,ascii_digest", [
    ("0110", "011", 37, 23, RenderOptions(fill_two_coloring=True), False,
     "15a98909be2b1d3dabb81ea6a5cfa072ea5d92b7f8370e17f4207da2283ce143",
     "0f3d1b2d9d20da2ea9de497c1565c37db339e0f493f15278cd57d7d5082ef60d"),
    ("01101:3,0010", "10111", 29, 31,
     RenderOptions(cell_size=7, stroke_width=1.5, show_grid=True,
                   fill_two_coloring=True), False,
     "5bcab51fa2e770d72b90d5923d1bfc254f9ac2defdce9cf708fedd93058c1cab",
     "79304517e9fc1cae737c10464c8e1307366754470132f502db468bd8fb81310f"),
    ("0010010", "10111110010110111001110", 22, 6, RenderOptions(cell_size=12),
     True,
     "1c8e35befcc6ec7a527de209e56d72bd40ed009d62f678e776d01e292c4d634d",
     "e5fdd54c19f0620f372b258e41ced2880d7ac7befae5e05e31da9d1bff090dd1"),
], ids=["fill", "fill-grid", "highlight"])
def test_render_bytes_are_unchanged(rows, cols, width, height, options,
                                    highlight, svg_digest, ascii_digest):
    grid = grid_of(rows, cols, width, height)
    cycle = largest_loop(grid)[0] if highlight else None
    svg = render_svg(grid, options, two_color(grid), cycle)
    assert sha256(svg) == svg_digest
    assert sha256(render_ascii(grid, options)) == ascii_digest


def test_filled_svg_peak_allocation_stays_near_the_document():
    # Stitch lines are one string each, the fill's rects stay fragments of
    # the document's one join: 1.60 x the document.  Fragments for the
    # lines too peaked at 1.45 x, one string per fill column too at 2.03 x.
    grid = grid_of("01101:3,0010", "10111", 297, 303)
    options = RenderOptions(fill_two_coloring=True)
    coloring = two_color(grid)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        svg = render_svg(grid, options, coloring=coloring)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * len(svg)
