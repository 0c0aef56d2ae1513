import pytest

from hitomezashi.grid import PatternSpec, WordProgram, build_grid
from hitomezashi.loops import two_color
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


def test_highlight_of_a_stroke_width_near_the_limit():
    svg = render_svg(grid_of("1", "1", 4, 4),
                     RenderOptions(stroke_width=8e307),
                     highlight=snowflake_cycle(1))
    assert f'stroke-width="{int(2 * 8e307)}"' in svg
