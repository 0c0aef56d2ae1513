"""The program decoder, the grid-native loop kernel, the phase-bit vertex
degree and its two-family rule, the packing test, the census walk's step
bits and the one-walk loop measure against each loop's vertex tuple, the
census walk of one column period against the walk of every column, the
full-torus census against the census of a two-period window, the
one-eighth torus census against the full torus, the turn-word congruence
test, the loop report's one fill, measure, hash and shared dict per step
sequence, the closed-form two-coloring, the per-axis self-duality search
and its rotation search, the line-by-line ASCII render and the
table-driven SVG render against the slow oracles in oracles.py; the
`analyze --json` writer and the CLI's output against json.dumps, and
that output's loops and open path count against the oracles."""

import copy
import io
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from unittest import mock

import pytest
from hypothesis import (assume, example, given, settings,
                        strategies as st)

from hitomezashi import tiles
from hitomezashi.cli import _report_json, main
from hitomezashi.grid import (PatternSpec, ProgramSegment, StitchGrid,
                            WordProgram, _dual_shifts, build_grid,
                            expand_program, is_self_dual)
from hitomezashi.loops import (LatticeCycle, Polyomino, _color_lines,
                               _degree, _eighth_census, _strip_width,
                               _torus_largest, _window_loops,
                               analyze_grid, congruent_words,
                               cycle_to_polyomino, extract_components,
                               largest_loop, loop_stats, two_color)
from hitomezashi.render import RenderOptions, render_ascii, render_svg
from hitomezashi.tiles import conjecture_report, persimmon_spec
from hitomezashi.words import BinaryWord
from oracles import (bfs_two_color, brute_dual_shifts, brute_expand_program,
                     brute_is_self_dual, brute_largest_loop,
                     components_from_segments, cycle_from_steps,
                     fill_all_analyze_grid,
                     full_torus_census, full_torus_largest,
                     full_window_loops, parity_vertex_degree,
                     presence_vertex_degree, segment_render_svg, turn_word,
                     vertex_cycle_stats, vertex_loop_is_fully_packed,
                     vertex_render_ascii, walk_loop)

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


def windows():
    """(row program, column program, width, height), as the CLI takes
    them."""
    return st.tuples(programs(), programs(), sides, sides)


def grids():
    return windows().map(lambda window: grid_of(*window))


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
@example(grid_of("01", "0110", 1, 9))   # path ends at the corners
@example(grid_of("0110", "10", 9, 1))
@example(grid_of("0", "0", 1, 2))       # a walk off the side must stop there
def test_components_match_segment_oracle(grid):
    assert_matches_oracle(grid)


@settings(max_examples=300, deadline=None)
@given(grids())
@example(grid_of("", "", 5, 3))
@example(grid_of("10", "", 1, 9))
@example(grid_of("", "0110", 9, 1))
@example(grid_of("0", "1", 1, 1))
@example(grid_of("0", "0", 3, 4))       # corners without a stitch
def test_vertex_degree_matches_presence_queries(grid):
    W, H = grid.width, grid.height
    both = grid.row_bits is not None and grid.col_bits is not None
    for x in range(W + 1):
        for y in range(H + 1):
            degree = presence_vertex_degree(grid, x, y)
            assert parity_vertex_degree(grid, x, y) == degree
            # the rule that finds the path ends and the bare corners
            assert not both or _degree(grid, x, y) == degree
    for x, y in ((-1, 0), (0, -1), (W + 1, H), (W, H + 1)):
        with pytest.raises(IndexError, match="out of bounds"):
            parity_vertex_degree(grid, x, y)
        with pytest.raises(IndexError, match="out of bounds"):
            presence_vertex_degree(grid, x, y)


@settings(max_examples=300, deadline=None)
@given(grids())
@example(grid_of("", "", 5, 3))
@example(grid_of("", "", 1, 3))
@example(grid_of("10", "", 2, 2))
@example(grid_of("", "0110", 9, 1))
@example(grid_of("", "0110", 9, 2))
def test_is_fully_packed_matches_vertex_loop(grid):
    # every interior vertex has degree 2 exactly when both families are
    # present or there is no interior vertex, which _window_loops, _trail
    # and two_color rely on
    assert vertex_loop_is_fully_packed(grid) == (
        (grid.row_bits is not None and grid.col_bits is not None)
        or min(grid.width, grid.height) < 2)


# two loops tie at the top on area and perimeter and the first is not the
# one of least canonical form
TIED_TOP = ("11110:2,001:1,10", "10:2,11011", 15, 21)


@settings(max_examples=200, deadline=None)
@given(grids())
@example(grid_of(*TIED_TOP))
def test_largest_loop_matches_brute_force_ranking(grid):
    assert_largest_loop_matches_brute_force(grid)


@st.composite
def column_periodic_grids(draw):
    """Columns from one fill word, whose phase bits repeat with even period
    P = |w| or 2|w| for odd |w|; any row program; a width below, at or past
    two periods, often not a multiple of P."""
    word = draw(words)
    period = len(word) * (1 + len(word) % 2)
    width = draw(st.one_of(st.integers(1, 2 * period - 1),
                           st.just(2 * period),
                           st.integers(2 * period + 1, 3 * period + 3)))
    return grid_of(draw(programs()), word, width, draw(sides))


@settings(max_examples=200, deadline=None)
@given(column_periodic_grids())
@example(build_grid(persimmon_spec(3)))
@example(grid_of("", "0110", 9, 5))                 # rows missing
@example(grid_of("011", "01:2,110:1,0", 14, 9))     # piecewise columns
def test_largest_loop_matches_brute_force_on_column_periodic_windows(grid):
    assert_largest_loop_matches_brute_force(grid)


def assert_largest_loop_matches_brute_force(grid):
    best = largest_loop(grid)
    expected = brute_largest_loop(extract_components(grid)[0])
    if expected is None:
        assert best is None
        return
    cycle, poly, stats = best
    assert cycle.vertices == expected[0].vertices
    assert poly == expected[1]
    assert stats == expected[2]


def census_of_components(grid):
    """The greatest (shoelace area, perimeter) over the grid's closed loops
    and the least vertex of every loop that has it, in extract_components
    order; None when there is no closed loop."""
    sized = [((c.shoelace_area(), c.perimeter), c.vertices[0])
             for c in extract_components(grid)[0]]
    if not sized:
        return None
    top = max(size for size, _ in sized)
    return top, [start for size, start in sized if size == top]


def same_traversal(word, other):
    """Is word a rotation of other, read in either direction?"""
    back = other[::-1].translate(str.maketrans("LR", "RL"))
    return len(word) == len(other) and (word in other + other
                                        or word in back + back)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=8),
       st.text(alphabet="01", min_size=1, max_size=8))
@example("1000110001", "1000110001")   # the order-3 persimmon
@example("0110", "01101001")
def test_torus_largest_loop_matches_the_two_period_window(row_text,
                                                           col_text):
    rows, cols = tuple(map(int, row_text)), tuple(map(int, col_text))
    grid = grid_of(row_text, col_text, 2 * len(cols), 2 * len(rows))
    # the window repeats the words, so walk_loop measures each of its loops
    # from one period of them, wrapping past the first
    for cycle in extract_components(grid)[0]:
        assert_loop_walk_matches(rows, cols, cycle)
    got = full_torus_largest(rows, cols)
    if len(rows) % 2 or len(cols) % 2:  # the plane repeats only every 2P
        assert got is None
        return
    window = census_of_components(grid)
    best, ties = full_torus_census(rows, cols)
    # every loop of the window is a loop of the torus
    assert window is None or best >= window[0]
    if got is None:
        return
    # one torus tie, which fits the window: the window ties are its
    # translates, each walked from its least vertex heading up
    assert len(ties) == 1
    assert window[0] == best
    tied = [c for c in extract_components(grid)[0]
            if c.vertices[0] in window[1]]
    assert len({(vertex_cycle_stats(c), turn_word(c)) for c in tied}) == 1
    cycle = largest_loop(grid)[0]
    stats, word = got
    assert stats == vertex_cycle_stats(cycle)
    assert (stats.area, stats.perimeter) == best
    assert same_traversal(word, turn_word(cycle))


def halves(min_size, max_size):
    return st.text(alphabet="01", min_size=min_size, max_size=max_size)


@settings(max_examples=400, deadline=None)
@given(st.one_of(halves(1, 8), halves(9, 40)).map(lambda u: u + u[::-1]))
@example("1000110001")      # the order-3 persimmon
@example("00")              # E is (0, 0), whose stitch runs down
@example("0000")            # four tied loops through E
@example("10011001")        # two tied loops through E
@example("1111")            # one loop through E, whose box is not fixed
@example("01100110")        # likewise
@example("000001100" "001100000")
def test_eighth_of_the_torus_matches_the_full_torus(text):
    bits = tuple(map(int, text))
    expected = full_torus_largest(bits, bits)
    got = _torus_largest(bits)
    with mock.patch.object(tiles, "persimmon_word",
                           lambda order: BinaryWord(text)):
        if expected is None:
            assert got is None
            with pytest.raises(ValueError, match="cannot vouch"):
                conjecture_report(1)
            return
        report = conjecture_report(1)
    assert got[0] == expected[0]
    assert same_traversal(got[1] * 4, expected[1])
    # the quarter word, four times over, is the whole walk's from the
    # winner's start
    (_, perimeter), (start,) = _eighth_census(bits)
    assert got[1] * 4 == walk_loop(bits, bits, start, perimeter)[1]
    assert report["largest_loop"] == expected[0]._asdict()


@settings(max_examples=200, deadline=None)
@given(words)
@example("010")             # odd period
@example("0100")            # not a palindrome, vouched for on the full torus
@example("10000110")
def test_eighth_of_the_torus_needs_one_even_palindrome(text):
    bits = tuple(map(int, text))
    if len(bits) % 2 == 0 and bits == bits[::-1]:
        return
    assert _torus_largest(bits) is None


# two non-congruent loop classes share (area, perimeter) = (17, 28)
SHARED_SIZE = ("0:2,011:2,11101101:2,0111", "1000110:1,11110101:2,1", 12, 24)
# two loops of area 13 differ in perimeter (20 and 28)
SHARED_AREA = ("011", "011:3,1:2,110", 24, 8)
# one congruence class holds loops with 5x3 and with 3x5 boxes
BOTH_ORIENTATIONS = ("10010000:2,0:3,10:1,1101", "1001111:2,0101", 17, 10)
# two non-congruent loop classes share every stat: perimeter 36, area 21,
# height 5, width 9
SHARED_STATS = ("0010010", "10111110010110111001110", 22, 6)
# two of its three step sequences are congruent loops with equal stats:
# equal JSON in two dicts
MIRRORED_TWINS = ("010110001011000110110", "010000111010", 11, 20)


@settings(max_examples=300, deadline=None)
@given(grids())
@example(grid_of("0110", "011", 12, 12))
@example(grid_of(*TIED_TOP))
@example(grid_of(*BOTH_ORIENTATIONS))
@example(grid_of("0", "0", 1, 2))       # a walk off the side must stop there
def test_loop_walk_matches_vertex_oracle(grid):
    # the census walk's step bits rebuild every loop, and walk_loop
    # measures it from its start and perimeter, building no LatticeCycle to
    # check
    cycles, _ = components_from_segments(grid.segments())
    if grid.row_bits is None or grid.col_bits is None:
        assert cycles == []
        return
    assert [cycle_from_steps(start, steps).vertices
            for start, steps in _window_loops(grid)] == \
        [cycle.vertices for cycle in cycles]
    for cycle in cycles:
        assert_loop_walk_matches(grid.row_bits, grid.col_bits, cycle)


def assert_loop_walk_matches(rows, cols, cycle):
    stats, word, corner = walk_loop(rows, cols, cycle.vertices[0],
                                    cycle.perimeter)
    assert stats == vertex_cycle_stats(cycle)
    assert corner == tuple(map(min, zip(*cycle.vertices)))
    turns = turn_word(cycle)
    assert word == turns[1:] + turns[:1]


@st.composite
def strip_grids(draw):
    """Windows up to 90 cells wide whose columns repeat a word of 1-9 bits,
    so often with an even period below the width, or follow any program;
    any row program."""
    cols = draw(st.one_of(st.text(alphabet="01", min_size=1, max_size=9),
                          programs()))
    return grid_of(draw(programs()), cols, draw(st.integers(1, 90)),
                   draw(sides))


@settings(max_examples=300, deadline=None)
@given(strip_grids())
@example(grid_of("01", "0000000001", 9, 9))     # no even period below W
@example(grid_of("0110", "01", 1, 9))            # W = 1
@example(grid_of("01", "011", 20, 7))            # odd least period: L = 6
@example(grid_of("0110", "1:3,01", 20, 9))       # aperiodic piecewise columns
@example(grid_of("", "0110", 9, 5))              # rows missing
@example(grid_of("0110", "", 9, 5))              # columns missing
@example(grid_of("0110", "011", 90, 12))         # wide periodic window
def test_strip_walk_matches_full_walk(grid):
    if grid.row_bits is None or grid.col_bits is None:
        assert extract_components(grid)[0] == []
        return
    assert list(_window_loops(grid)) == list(full_window_loops(grid))


APERIODIC_BITS = "".join(random.Random(7).choices("01", k=2001))


@pytest.mark.slow
@pytest.mark.parametrize("rows, cols, width, height, strip", [
    ("0110", "1001100110", 1000, 1000, 10),       # a strip of 10 columns
    ("011", APERIODIC_BITS, 2000, 40, 2000),      # the whole window
], ids=["periodic", "aperiodic"])
def test_strip_walk_matches_full_walk_on_large_windows(monkeypatch, rows, cols,
                                                      width, height, strip):
    grid = grid_of(rows, cols, width, height)
    assert _strip_width(grid.col_bits, width) == strip
    report = analyze_grid(grid)
    # the counted open paths against the walked ones
    assert report["open_path_count"] == len(extract_components(grid)[1])
    monkeypatch.setattr("hitomezashi.loops._window_loops", full_window_loops)
    assert analyze_grid(grid) == report


@settings(max_examples=300, deadline=None)
@given(grids())
@example(grid_of("", "", 5, 3))
@example(grid_of("10", "", 1, 9))
@example(grid_of("", "0110", 9, 1))
@example(grid_of("011100", "10110", 17, 13))
@example(grid_of(*TIED_TOP))
@example(grid_of(*SHARED_SIZE))
@example(grid_of(*SHARED_AREA))
@example(grid_of(*BOTH_ORIENTATIONS))
@example(grid_of(*SHARED_STATS))
def test_analyze_grid_matches_fill_all_oracle(grid):
    assert analyze_grid(grid) == fill_all_analyze_grid(grid)


@settings(max_examples=200, deadline=None)
@given(grids())
@example(grid_of(*TIED_TOP))
@example(grid_of(*SHARED_SIZE))
@example(grid_of(*SHARED_AREA))
@example(grid_of(*BOTH_ORIENTATIONS))
def test_analyze_grid_fills_one_loop_per_congruence_class(grid):
    filled, hashed = [], []
    digest = Polyomino.canonical_hash

    def fill(cycle):
        poly = cycle_to_polyomino(cycle)
        filled.append(poly.canonical_form)
        return poly

    def canonical_hash(poly):
        hashed.append(poly.canonical_form)
        return digest(poly)

    def turn_word_route(*args):
        raise AssertionError("window loops are classed by canonical form")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("hitomezashi.loops.cycle_to_polyomino", fill)
        patch.setattr("hitomezashi.loops.Polyomino.canonical_hash",
                      canonical_hash)
        patch.setattr("hitomezashi.loops.congruent_words", turn_word_route)
        report = analyze_grid(grid)
    classes = {entry["canonical_hash"] for entry in report["loops"]}
    # each fill, one per step sequence, is hashed once, and the fills of
    # one class give one hash
    assert hashed == filled
    assert len(set(hashed)) == len(classes)
    if grid == grid_of(*BOTH_ORIENTATIONS):
        # its 5x3 and 3x5 loops are two step sequences of one class
        assert len(filled) > len(classes)


@settings(max_examples=200, deadline=None)
@given(grids())
@example(grid_of("0110", "011", 12, 12))   # ten translates of one loop
@example(grid_of(*TIED_TOP))
@example(grid_of(*BOTH_ORIENTATIONS))
@example(grid_of(*SHARED_STATS))
def test_analyze_grid_measures_each_step_sequence_once(grid):
    walked, filled, measured = [], [], []

    def window_loops(grid):
        for start, steps in _window_loops(grid):
            walked.append(steps)
            yield start, steps

    def fill(cycle):
        filled.append(len(walked) - 1)
        return cycle_to_polyomino(cycle)

    def measure(poly, cycle):
        measured.append(len(walked) - 1)
        return loop_stats(poly, cycle)

    def turn_word_route(*args):
        raise AssertionError("window loops are measured from their fill")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("hitomezashi.loops._window_loops", window_loops)
        patch.setattr("hitomezashi.loops.cycle_to_polyomino", fill)
        patch.setattr("hitomezashi.loops.loop_stats", measure)
        patch.setattr("hitomezashi.loops._turn_word", turn_word_route)
        largest_loop(grid)
        walked.clear()
        filled.clear()
        measured.clear()
        report = analyze_grid(grid)
    loops = report["loops"]
    assert len(walked) == len(loops)
    first = {}
    for i, steps in enumerate(walked):
        first.setdefault(steps, i)
    # the first loop of each step sequence is filled and measured, and no
    # other
    assert filled == measured == sorted(first.values())


@settings(max_examples=200, deadline=None)
@given(grids())
@example(grid_of("0110", "011", 12, 12))   # ten translates of one loop
@example(grid_of(*BOTH_ORIENTATIONS))
@example(grid_of(*SHARED_STATS))
@example(grid_of(*MIRRORED_TWINS))
def test_analyze_grid_shares_one_dict_per_step_sequence(grid):
    loops = analyze_grid(grid)["loops"]
    steps = Counter(steps for _, steps in _window_loops(grid)) if loops else {}
    # two loops are one dict, theorems included, exactly when their step
    # bits are equal, so there are as many dicts as step sequences (the
    # congruent twins of MIRRORED_TWINS are two); one dict has one JSON text
    texts = [json.dumps(entry) for entry in loops]
    for ids in ([id(entry) for entry in loops],
                [id(entry["theorems"]) for entry in loops]):
        assert sorted(Counter(ids).values()) == sorted(steps.values())
        assert len(set(ids)) == len(set(zip(ids, texts)))


@settings(max_examples=300, deadline=None)
@given(grids())
@example(grid_of("", "", 5, 3))         # no closed loop: "loops": []
@example(grid_of("10", "", 1, 9))       # rows only
@example(grid_of("", "0110", 9, 1))     # columns only
@example(grid_of(*TIED_TOP))
@example(grid_of(*BOTH_ORIENTATIONS))
@example(grid_of(*SHARED_STATS))
def test_analyze_json_writer_matches_json_dumps(grid):
    report = analyze_grid(grid)
    # a deep copy shares nothing, so every item is its own identity key
    for report in (report, copy.deepcopy(report)):
        assert ("".join(_report_json(report))
                == json.dumps(report, indent=2) + "\n")


def analyze_json(rows, cols, width, height):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["analyze", "--rows", rows, "--cols", cols,
                     "--width", str(width), "--height", str(height),
                     "--json"])
    assert code == 0
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(windows())
@example(("", "", 5, 3))
@example(("10", "", 1, 9))
@example(("0110:1,1", "01:2,10", 1, 1))
@example(("01", "0110", 1, 9))                  # a 1xN window
@example(("0110:2,1", "10:1,011", 1, 12))       # piecewise, 1xN
@example(TIED_TOP)
@example(BOTH_ORIENTATIONS)
def test_analyze_json_output_is_json_dumps(window):
    expected = json.dumps(analyze_grid(grid_of(*window)), indent=2) + "\n"
    assert analyze_json(*window) == expected


@settings(max_examples=200, deadline=None)
@given(windows())
@example(("", "", 5, 3))
@example(("10", "", 1, 9))
@example(("", "0110", 9, 1))
@example(("01", "0110", 1, 9))                  # path ends at the corners
@example(("011100", "10110", 17, 13))
@example(TIED_TOP)
@example(BOTH_ORIENTATIONS)
@example(SHARED_STATS)
def test_analyze_json_census_matches_oracles(window):
    grid = grid_of(*window)
    report = json.loads(analyze_json(*window))
    assert report["loops"] == fill_all_analyze_grid(grid)["loops"]
    _, paths = components_from_segments(grid.segments())
    assert report["open_path_count"] == len(paths)


@settings(max_examples=100, deadline=None)
@given(grids(), grids())
@example(grid_of(*TIED_TOP), grid_of("", "", 1, 1))
def test_congruent_words_match_canonical_forms(grid_a, grid_b):
    cycles = (extract_components(grid_a)[0][:30]
              + extract_components(grid_b)[0][:30])
    loops = [(turn_word(c), cycle_to_polyomino(c).canonical_form)
             for c in cycles]
    for word_a, form_a in loops:
        for word_b, form_b in loops:
            assert congruent_words(word_a, word_b) == (form_a == form_b)


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
    expected = bfs_two_color(grid)
    W, H = grid.width, grid.height
    assert list(coloring) == sorted(expected)
    assert len(coloring) == W * H
    assert coloring == expected and expected == coloring
    assert dict(coloring) == expected
    assert all(cell in coloring and coloring[cell] == color
               for cell, color in expected.items())
    for cell in [(-1, 0), (0, -1), (-1, -1), (W, 0), (0, H), (W, H),
                 (-W, H - 1), (W - 1, -H)]:
        assert cell not in coloring
        with pytest.raises(KeyError):
            coloring[cell]
    assert not any(key in coloring for key in (None, "ab", (0,), (0, 0, 0)))
    with pytest.raises(TypeError):
        coloring[(0, 0)] = 1


@settings(max_examples=300, deadline=None)
@given(grids())
@example(grid_of("", "", 5, 3))
@example(grid_of("1", "", 1, 4))
@example(grid_of("", "1", 4, 1))
@example(grid_of("0110", "", 1, 7))     # columns missing, W = 1
@example(grid_of("", "0110", 7, 1))     # rows missing, H = 1
@example(grid_of("10", "", 2, 5))
@example(grid_of("0110:1,1", "01:2,10", 1, 1))
@example(grid_of("011", "0110", 1, 6))
@example(grid_of("011", "0110", 6, 1))
def test_color_lines_by_row_are_the_columns_transposed(grid):
    rows = _color_lines(grid, by_column=False)
    assert rows == [list(row)
                    for row in zip(*_color_lines(grid, by_column=True))]
    assert len(rows) == grid.height
    assert len({id(row) for row in rows}) <= 4


@settings(max_examples=100, deadline=None)
@given(grids())
@example(grid_of("0110", "011", 12, 12))
@example(grid_of("1", "", 1, 4))
def test_analyze_grid_coloring_rows_are_shared_within_one_report(grid):
    report, other = analyze_grid(grid), analyze_grid(grid)
    rows = report["two_coloring"]
    assert rows == _color_lines(grid, by_column=False)
    assert len({id(row) for row in rows}) <= 4
    # every call builds its own rows and loops
    before = copy.deepcopy(other)
    for row in rows:
        row.append(2)
    for loop in report["loops"]:
        loop["area"] = -1
        loop["theorems"]["area_1_mod_4"] = None
    assert other == before


def test_one_wide_strip_alternates_at_every_stitch():
    # every row line of "1" is stitched across the single column
    coloring = two_color(grid_of("1", "", 1, 4))
    assert [coloring[(0, y)] for y in range(4)] == [0, 1, 0, 1]
    coloring = two_color(grid_of("", "1", 4, 1))
    assert [coloring[(x, 0)] for x in range(4)] == [0, 1, 0, 1]


encoding_words = st.one_of(
    st.text(alphabet="01", max_size=8),
    odd_words.map(lambda u: u + u.translate(str.maketrans("01", "10"))),
    st.tuples(st.text(alphabet="01", min_size=1, max_size=4),
              st.integers(2, 4)).map(lambda t: t[0] * t[1]),
)


@settings(max_examples=500, deadline=None)
@given(encoding_words, encoding_words)
@example("", "")
@example("10", "")
@example("", "01")
@example("1", "1")
@example("0101", "01")
@example("", "011")     # dy = 1 admits dx = 0 and dx = 3
@example("0", "001")    # at dy = 1, dx = 0 does not fit and dx = 3 does
@example("0" * 2000, "0" * 2000)
@example("01" * 1000, "0" * 2001)
def test_is_self_dual_matches_double_loop(row_text, col_text):
    row, col = BinaryWord(row_text), BinaryWord(col_text)
    if not row_text and not col_text:
        for search in (is_self_dual, brute_is_self_dual):
            with pytest.raises(ValueError, match="empty encoding"):
                search(row, col)
        return
    assert is_self_dual(row, col) == brute_is_self_dual(row, col)


@settings(max_examples=300, deadline=None)
@given(encoding_words, st.integers(0, 1))
@example("0" * 2000, 1)           # every odd shift
@example("0" * 2001, 0)           # none
@example("01" * 1000, 0)          # every odd shift
@example("0011" * 600, 1)         # shifts 2 mod 4
@example("0" * 1999 + "1", 0)     # none, after long partial matches
def test_dual_shifts_match_every_rotation(text, parity):
    bits = tuple(map(int, text))
    assert _dual_shifts(bits, parity) == brute_dual_shifts(bits, parity)


@st.composite
def word_programs(draw):
    """Fixed segments, some with empty words, then maybe a fill segment,
    whose word may be empty; repeat counts stay small for the oracle."""
    fixed = draw(st.lists(st.tuples(st.text(alphabet="01", max_size=4),
                                    st.integers(1, 4)), max_size=4))
    segments = [ProgramSegment(BinaryWord(w), k) for w, k in fixed]
    fill = draw(st.none() | st.text(alphabet="01", max_size=3))
    if fill is not None:
        segments.append(ProgramSegment(BinaryWord(fill)))
    return WordProgram(tuple(segments))


@settings(max_examples=500, deadline=None)
@given(word_programs(), st.integers(0, 24))
@example(WordProgram.parse(":3,1"), 3)           # empty fixed word
@example(WordProgram.parse("0110:2,1"), 3)       # fixed overshoot
@example(WordProgram.parse("011:2,1"), 4)        # two repeats for 4 bits
@example(WordProgram.parse("01:1,1"), 4)         # one repeat, then the fill
@example(WordProgram.parse("01:5,10:2,1"), 4)    # segments after the count
@example(WordProgram.parse("01:1,:4"), 3)        # underflow
@example(WordProgram.parse("01:5,"), 3)          # empty fill after the count
@example(WordProgram.parse("01"), 0)
def test_expand_program_matches_repeat_by_repeat(program, count):
    try:
        expected = brute_expand_program(program, count)
    except ValueError as exc:
        with pytest.raises(ValueError) as excinfo:
            expand_program(program, count)
        assert str(excinfo.value) == str(exc)
    else:
        assert expand_program(program, count) == expected


@settings(max_examples=300, deadline=None)
@given(grids(), st.booleans())
@example(grid_of("", "", 5, 3), True)
@example(grid_of("1", "", 1, 4), True)
@example(grid_of("", "1", 4, 1), False)
@example(grid_of("0110", "", 1, 7), False)
@example(grid_of("", "0110", 7, 1), True)
@example(grid_of("0110:1,1", "01:2,10", 1, 1), True)
def test_render_ascii_matches_vertex_by_vertex_render(grid, show_grid):
    options = RenderOptions(show_grid=show_grid)
    assert render_ascii(grid, options) == vertex_render_ascii(grid, options)


def svg_coloring(grid, kind):
    """No coloring, the grid's two-coloring, all of it as a dict, a part of
    it, all of it plus cells off the window on every side (2 is a truthy
    color), or the two-coloring of the H x W window with the transposed
    phase bits."""
    if kind is None:
        return None
    W, H = grid.width, grid.height
    if kind == "other-window":
        return two_color(StitchGrid(H, W, grid.col_bits, grid.row_bits))
    coloring = two_color(grid)
    if kind == "dict":
        return dict(coloring)
    if kind == "partial":
        return {(x, y): c for (x, y), c in coloring.items()
                if (2 * x + y) % 3}
    if kind == "off-window":
        coloring = dict(coloring)
        coloring.update({(-1, 0): 1, (W, H - 1): 2, (0, H): 1, (W - 1, -1): 0,
                         (-W - 2, H + 3): 2, (W + 5, -2): 0})
    return coloring


def svg_highlight(grid, kind):
    """No highlight, the first traced loop, or a loop (a unit square when
    the grid has none) moved by (-W, H), so partly or wholly off the
    window."""
    if kind is None:
        return None
    cycles = extract_components(grid)[0]
    if kind == "loop":
        return cycles[0] if cycles else None
    cycle = cycles[0] if cycles else LatticeCycle([(0, 0), (1, 0), (1, 1),
                                                   (0, 1)])
    return LatticeCycle([(x - grid.width, y + grid.height)
                         for x, y in cycle.vertices])


@settings(max_examples=300, deadline=None)
@given(grids(), st.sampled_from([None, "full", "other-window"]),
       st.booleans(), st.booleans(),
       st.sampled_from([None, "loop", "shifted"]),
       st.sampled_from([1, 7, 20]), st.sampled_from([2.0, 1.25]))
@example(grid_of("", "", 5, 3), "full", True, True, "shifted", 7, 1.25)
@example(grid_of("", "", 1, 6), "full", True, False, None, 20, 2.0)
@example(grid_of("10", "0110", 1, 9), "full", True, True, "loop", 7, 2.0)
@example(grid_of("0110", "01", 9, 1), "full", True, False, None, 1, 1.25)
@example(grid_of("0110", "", 6, 5), "full", True, True, None, 7, 2.0)
@example(grid_of("", "0110:1,1", 5, 6), "full", True, False, None, 20, 1.25)
@example(grid_of("0110", "011", 12, 12), "full", True, True, "loop", 7, 2.0)
@example(grid_of("0110", "011", 12, 12), "other-window", True, False, "loop",
         20, 2.0)
@example(grid_of("1", "", 1, 1), "other-window", True, True, None, 7, 1.25)
@example(grid_of("", "1", 4, 1), "full", False, True, "shifted", 1, 1.25)
def test_render_svg_matches_segment_by_segment_render(
        grid, coloring_kind, fill, show_grid, highlight_kind, cell_size,
        stroke_width):
    # another window's two-coloring is filled only when it is W x H
    assume(coloring_kind != "other-window" or grid.width == grid.height)
    options = RenderOptions(cell_size=cell_size, stroke_width=stroke_width,
                            show_grid=show_grid, fill_two_coloring=fill)
    coloring = svg_coloring(grid, coloring_kind)
    highlight = svg_highlight(grid, highlight_kind)
    assert render_svg(grid, options, coloring, highlight) \
        == segment_render_svg(grid, options, coloring, highlight)


@settings(max_examples=200, deadline=None)
@given(grids(), st.sampled_from(["dict", "partial", "off-window",
                                 "other-window"]),
       st.booleans(), st.booleans(),
       st.sampled_from([None, "loop", "shifted"]),
       st.sampled_from([1, 7, 20]), st.sampled_from([2.0, 1.25]))
@example(grid_of("01:2,1", "0110", 7, 4), "other-window", True, False, None,
         20, 2.0)
@example(grid_of("1", "", 1, 4), "other-window", True, True, None, 7, 1.25)
@example(grid_of("10", "", 1, 9), "off-window", True, False, "shifted", 1, 2.0)
@example(grid_of("", "0110", 9, 1), "partial", True, True, None, 20, 1.25)
@example(grid_of("1", "", 1, 4), "off-window", True, True, "loop", 7, 2.0)
@example(grid_of("1", "1", 1, 7), "off-window", True, True, "shifted", 7, 2.0)
@example(grid_of("0", "1", 9, 1), "partial", True, False, "loop", 1, 1.25)
@example(grid_of(*TIED_TOP), "off-window", True, True, "loop", 7, 1.25)
@example(grid_of("0110", "011", 12, 12), "dict", True, False, None, 20, 2.0)
@example(grid_of("0110", "011", 12, 12), "dict", False, True, "loop", 7, 2.0)
def test_render_svg_fills_only_two_color_of_the_window(
        grid, coloring_kind, fill, show_grid, highlight_kind, cell_size,
        stroke_width):
    """Any coloring but two_color's of a W x H window is refused when the
    fill is on, and unused when it is off."""
    W, H = grid.width, grid.height
    assume(coloring_kind != "other-window" or W != H)
    options = RenderOptions(cell_size=cell_size, stroke_width=stroke_width,
                            show_grid=show_grid, fill_two_coloring=fill)
    coloring = svg_coloring(grid, coloring_kind)
    highlight = svg_highlight(grid, highlight_kind)
    if fill:
        with pytest.raises(ValueError, match=f"^the fill needs two_color's "
                           f"coloring of a {W} x {H} window$"):
            render_svg(grid, options, coloring, highlight)
    else:
        svg = render_svg(grid, options, coloring, highlight)
        assert "<rect" not in svg
        assert svg == render_svg(grid, options, None, highlight)
