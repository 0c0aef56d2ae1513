"""The grid-native loop kernel and the closed-form two-coloring against the
slow oracles in oracles.py."""

import pytest
from hypothesis import example, given, settings, strategies as st

from hitomezashi.grid import PatternSpec, WordProgram, build_grid
from hitomezashi.loops import (analyze_grid, extract_components, largest_loop,
                               two_color)
from hitomezashi.tiles import persimmon_spec
from oracles import (bfs_two_color, brute_largest_loop,
                     components_from_segments, ranked_loops)

words = st.text(alphabet="01", min_size=1, max_size=8)
odd_words = st.text(alphabet="01", min_size=1, max_size=7).filter(
    lambda u: len(u) % 2 == 1)
sides = st.one_of(st.just(1), st.integers(1, 30))


@st.composite
def programs(draw):
    """Program text: a missing family, a fill word, a piecewise program
    ``w:k,...,v`` or a self-dual word u + complement(u) with |u| odd."""
    kind = draw(st.sampled_from(["missing", "fill", "piecewise", "self-dual"]))
    if kind == "missing":
        return ""
    if kind == "fill":
        return draw(words)
    if kind == "self-dual":
        u = draw(odd_words)
        return u + u.translate(str.maketrans("01", "10"))
    pieces = draw(st.lists(st.tuples(words, st.integers(1, 3)),
                           min_size=1, max_size=3))
    return ",".join(f"{w}:{k}" for w, k in pieces) + "," + draw(words)


@st.composite
def grids(draw):
    spec = PatternSpec("t", WordProgram.parse(draw(programs())),
                       WordProgram.parse(draw(programs())),
                       draw(sides), draw(sides))
    return build_grid(spec)


def grid_of(rows, cols, width, height):
    return build_grid(PatternSpec("t", WordProgram.parse(rows),
                                  WordProgram.parse(cols), width, height))


def assert_matches_oracle(grid):
    cycles, paths = extract_components(grid)
    expected_cycles, expected_paths = components_from_segments(grid.segments())
    assert [c.vertices for c in cycles] == [c.vertices for c in expected_cycles]
    assert paths == expected_paths


@settings(max_examples=300, deadline=None)
@given(grids())
@example(grid_of("", "", 5, 3))
@example(grid_of("10", "", 1, 9))
@example(grid_of("", "0110", 9, 1))
@example(grid_of("0110:1,1", "01:2,10", 1, 1))
def test_components_match_segment_oracle(grid):
    assert_matches_oracle(grid)


# two loops tie at the top on area and perimeter and the first is not the
# one of least canonical form
TIED_TOP = ("11110:2,001:1,10", "10:2,11011", 15, 21)


@settings(max_examples=200, deadline=None)
@given(grids())
@example(grid_of(*TIED_TOP))
def test_largest_loop_matches_brute_force_ranking(grid):
    best = largest_loop(grid)
    expected = brute_largest_loop(extract_components(grid)[0])
    if expected is None:
        assert best is None
        return
    cycle, poly, stats = best
    assert cycle.vertices == expected[0].vertices
    assert poly == expected[1]
    assert stats == expected[2]


@settings(max_examples=50, deadline=None)
@given(grids())
@example(grid_of(*TIED_TOP))
def test_analyze_grid_ranks_like_brute_force(grid):
    loops = analyze_grid(grid)["loops"]
    ranked = ranked_loops(extract_components(grid)[0])
    assert [(e["area"], e["perimeter"], e["canonical_hash"]) for e in loops] \
        == [(p.area, c.perimeter, p.canonical_hash()) for c, p in ranked]


def test_order_5_persimmon_matches_oracle():
    assert_matches_oracle(build_grid(persimmon_spec(5)))


def test_order_6_persimmon_cycle_count():
    cycles, _ = extract_components(build_grid(persimmon_spec(6)))
    assert len(cycles) == 8066


def test_high_degree_vertex_rejected():
    with pytest.raises(ValueError, match="not a simple pattern"):
        components_from_segments([
            ((0, 0), (1, 0)), ((0, 0), (0, 1)), ((-1, 0), (0, 0)),
        ])


@settings(max_examples=300, deadline=None)
@given(grids())
@example(grid_of("", "", 5, 3))
@example(grid_of("1", "", 1, 4))
@example(grid_of("", "1", 4, 1))
@example(grid_of("0110", "", 1, 7))
@example(grid_of("", "0110", 7, 1))
@example(grid_of("10", "", 2, 5))
@example(grid_of("0110:1,1", "01:2,10", 1, 1))
def test_two_color_matches_bfs_oracle(grid):
    coloring = two_color(grid)
    assert coloring == bfs_two_color(grid)
    assert len(coloring) == grid.width * grid.height


def test_one_wide_strip_alternates_at_every_stitch():
    # every row line of "1" is stitched across the single column
    coloring = two_color(grid_of("1", "", 1, 4))
    assert [coloring[(0, y)] for y in range(4)] == [0, 1, 0, 1]
    coloring = two_color(grid_of("", "1", 4, 1))
    assert [coloring[(x, 0)] for x in range(4)] == [0, 1, 0, 1]
