import random

import networkx as nx
import pytest

from hitomezashi import loops
from hitomezashi.grid import PatternSpec, WordProgram, build_grid
from hitomezashi.loops import (LatticeCycle, LoopStats, Polyomino,
                               _strip_width, analyze_grid,
                               centred_square_check, check_loop_theorems,
                               congruent_words, cycle_to_polyomino,
                               extract_components, largest_loop, loop_stats,
                               two_color)
from hitomezashi.registry import lookup
from oracles import normalized, turn_word

UNIT_SQUARE = LatticeCycle([(0, 0), (1, 0), (1, 1), (0, 1)])


def grid_of(rows, cols, width, height):
    return build_grid(PatternSpec("t", WordProgram.parse(rows),
                                  WordProgram.parse(cols), width, height))


def random_grid(rng, max_side=40):
    rows = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
    cols = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
    return grid_of(rows, cols, rng.randint(4, max_side), rng.randint(4, max_side))


# --- cycle type ---

def test_cycle_validation():
    assert UNIT_SQUARE.perimeter == 4
    with pytest.raises(ValueError, match="self-intersecting"):
        LatticeCycle([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (-1, 0),
                      (-1, -1), (0, -1)])
    with pytest.raises(ValueError, match="unit"):
        LatticeCycle([(0, 0), (2, 0), (2, 2), (0, 2)])
    with pytest.raises(ValueError, match="even"):
        LatticeCycle([(0, 0), (1, 0), (1, 1)])


def test_cycle_normalization_gives_equality():
    rotated = LatticeCycle([(1, 1), (0, 1), (0, 0), (1, 0)])
    assert normalized(rotated).vertices == normalized(UNIT_SQUARE).vertices
    assert normalized(rotated).vertices[0] == (0, 0)
    assert rotated != UNIT_SQUARE  # == on cycles is identity


# --- component extraction ---

def test_kuchizashi_window_components():
    cycles, paths = extract_components(grid_of("1", "1", 4, 4))
    assert len(cycles) == 4
    assert len(paths) == 4
    for cycle in cycles:
        assert cycle.perimeter == 4


def test_single_direction_pattern_has_no_loops():
    cycles, paths = extract_components(grid_of("10", "", 8, 8))
    assert cycles == []
    assert len(paths) > 0


def test_empty_grid_has_no_components():
    cycles, paths = extract_components(grid_of("", "", 4, 4))
    assert (cycles, paths) == ([], [])


@pytest.mark.parametrize("seed", range(16))
def test_components_match_networkx_oracle(seed):
    grid = random_grid(random.Random(seed), max_side=40)
    segments = list(grid.segments())
    cycles, paths = extract_components(grid)

    graph = nx.Graph(segments)
    expected_cycles = 0
    expected_paths = 0
    for component in nx.connected_components(graph):
        degrees = [d for _, d in graph.subgraph(component).degree()]
        if all(d == 2 for d in degrees):
            expected_cycles += 1
        else:
            expected_paths += 1
    assert len(cycles) == expected_cycles
    assert len(paths) == expected_paths

    # partition: every present segment in exactly one component
    claimed = []
    for cycle in cycles:
        claimed.extend(cycle.edges())
    for path in paths:
        claimed.extend(zip(path, path[1:]))
    assert len(claimed) == len(segments)
    assert sorted(sorted(edge) for edge in claimed) == \
        sorted(sorted(seg) for seg in segments)


# --- polyominoes and fills ---

def test_polyomino_validation():
    with pytest.raises(ValueError, match="edge-connected"):
        Polyomino([(0, 0), (2, 0)])
    with pytest.raises(ValueError):
        Polyomino([])


def test_unit_square_fill():
    poly = cycle_to_polyomino(UNIT_SQUARE)
    assert poly.cells == frozenset({(0, 0)})
    assert loop_stats(poly, UNIT_SQUARE) == LoopStats(4, 1, 1, 1)


def test_cross_loop_fills_to_plus_pentomino():
    best = largest_loop(grid_of("0110", "011", 12, 12))
    assert best is not None
    cycle, poly, stats = best
    assert stats == LoopStats(12, 5, 3, 3)
    plus = Polyomino([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
    assert poly.canonical_form == plus.canonical_form


def test_well_kerb_loop_area():
    best = largest_loop(build_grid(lookup("igetazashi").spec()))
    assert best is not None
    assert best[2] == LoopStats(28, 17, 5, 5)


def test_persimmon_flower_stats():
    best = largest_loop(build_grid(lookup("kakinohanazashi").spec()))
    assert best[2] == LoopStats(20, 13, 5, 5)


def test_triple_persimmon_stats():
    best = largest_loop(build_grid(lookup("sanju_kakinohanazashi").spec()))
    assert best[2] == LoopStats(36, 41, 9, 9)


def test_largest_loop_absent():
    assert largest_loop(grid_of("10", "", 8, 8)) is None


# the order-3 persimmon word has period 10; its snowflake spans 9
PERSIMMON_3 = tuple(map(int, "1000110001"))


# twice the centre of the order-3 snowflake's box, [0, 9] x [0, 9]
CENTRE_3 = 9, 9


def quarter_turn(start, cx, cy, clockwise):
    """The start turned a quarter about the centre (cx / 2, cy / 2)."""
    dx, dy = 2 * start[0] - cx, 2 * start[1] - cy
    dx, dy = (dy, -dx) if clockwise else (-dy, dx)
    return (cx + dx) // 2, (cy + dy) // 2


def patch_quarter(monkeypatch, end=None, box=None):
    """Mutate the winner's quarter walk: ``end`` maps (start, end,
    clockwise) to the vertex the walk reports reaching, and ``box`` is the
    box it reports."""
    walk = loops._quarter_walk

    def mutant(bits, start, count):
        steps, reached, passed = walk(bits, start, count)
        if end is not None:
            reached = end(start, reached, steps[-1] == 1)
        return steps, reached, box or passed

    monkeypatch.setattr(loops, "_quarter_walk", mutant)


def test_order_3_quarter_walk_ends_a_quarter_turn_on():
    (_, perimeter), (start,) = loops._eighth_census(PERSIMMON_3)
    steps, end, box = loops._quarter_walk(PERSIMMON_3, start, perimeter // 4)
    assert end == quarter_turn(start, *CENTRE_3, steps[-1] == 1)
    # the quarter reaches 4.5 from the centre, on the left and at the top
    assert box == (0, 4, 5, 9)
    assert loops._torus_largest(PERSIMMON_3, PERSIMMON_3) == (
        LoopStats(52, 29, 9, 9), loops._turn_word(steps))


@pytest.mark.parametrize("width,height,vouched", [
    (9, 9, True), (11, 9, False), (9, 11, False)])
def test_torus_winner_must_span_at_most_a_period(monkeypatch, width, height,
                                                  vouched):
    # a quarter walk whose vertices reach 5.5 from the centre on either
    # axis spans more than the period 10
    min_x, min_y = (9 - width) // 2, (9 - height) // 2
    patch_quarter(monkeypatch,
                  box=(min_x, min_y, min_x + width, min_y + height))
    got = loops._torus_largest(PERSIMMON_3, PERSIMMON_3)
    assert (got is not None) == vouched
    if vouched:
        assert got[0] == LoopStats(52, 29, 9, 9)


@pytest.mark.parametrize("min_x,min_y,vouched", [
    (0, 0, True), (10, -20, True), (-5, -5, True),
    (1, 1, False), (0, 1, False), (1, 0, False), (5, 0, False)])
def test_torus_winner_box_must_be_fixed_by_the_symmetries(monkeypatch, min_x,
                                                           min_y, vouched):
    # the quarter walk ends at its start turned about the centre of the
    # 9 x 9 box at (min_x, min_y): a symmetry centre when it is (4.5, 4.5)
    # mod 10 on both axes.  (1, 0), (0, 1) and (1, 1) put it off by one on
    # either axis or both, and (5, 0) has c_x = c_y + 5.
    cx, cy = 2 * min_x + 9, 2 * min_y + 9
    patch_quarter(monkeypatch,
                  end=lambda start, end, clockwise: quarter_turn(
                      start, cx, cy, clockwise),
                  box=(min_x, min_y, min_x + 9, min_y + 9))
    assert (loops._torus_largest(PERSIMMON_3, PERSIMMON_3) is not None) \
        == vouched


@pytest.mark.parametrize("end", [
    lambda start, end, clockwise: start,
    # the half turn about the true centre is a symmetry of the pattern
    lambda start, end, clockwise: (CENTRE_3[0] - start[0],
                                   CENTRE_3[1] - start[1]),
    # the quarter turn the other way about the true centre
    lambda start, end, clockwise: quarter_turn(start, *CENTRE_3,
                                               not clockwise),
    lambda start, end, clockwise: (end[0] + 1, end[1]),
], ids=["start", "half-turn", "other-way", "one-off"])
def test_torus_winner_quarter_must_end_a_quarter_turn_on(monkeypatch, end):
    patch_quarter(monkeypatch, end=end)
    assert loops._torus_largest(PERSIMMON_3, PERSIMMON_3) is None


@pytest.mark.parametrize("bits, width, strip", [
    ((0, 1, 0, 1), 3, 2),
    ((0, 1, 1, 0, 1, 1, 0), 6, 6),          # 2p = 6 is not below W
    ((0, 1, 1, 0, 1, 1, 0, 1), 7, 6),       # odd least period 3: L = 6
    ((0, 0, 0, 1, 0, 0, 0), 6, 4),          # least period past half the bits
    ((0, 1), 1, 1),
    ((1, 1), 1, 1),
])
def test_strip_width_is_an_even_period_below_the_width(bits, width, strip):
    assert _strip_width(bits, width) == strip


def test_strip_width_finds_no_period_in_long_aperiodic_columns():
    # without a linear search these take minutes: every candidate period of
    # 0...01 matches until the last bit
    W = 10 ** 5
    assert _strip_width((0,) * W + (1,), W) == W
    bits = tuple(random.Random(3).choices((0, 1), k=W + 1))
    assert _strip_width(bits, W) == W


def test_strip_width_finds_the_period_of_a_long_repeated_word():
    W = 10 ** 5
    word = (0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1)
    assert _strip_width((word * (W // 12 + 1))[:W + 1], W) == 12
    assert _strip_width(((0, 1, 1) * (W // 3 + 1))[:W + 1], W) == 6


def test_canonical_form_invariant_under_all_symmetries():
    cells = [(0, 0), (1, 0), (2, 0), (2, 1), (0, 1)]  # U-shape, asymmetric enough
    base = Polyomino(cells).canonical_form

    def rot(pts):
        return [(-y, x) for x, y in pts]

    def flip(pts):
        return [(-x, y) for x, y in pts]

    images = []
    pts = cells
    for _ in range(4):
        pts = rot(pts)
        images.append(pts)
        images.append(flip(pts))
    for image in images:
        shifted = [(x + 7, y - 3) for x, y in image]
        assert Polyomino(shifted).canonical_form == base


@pytest.mark.parametrize("seed", range(8))
def test_fill_area_matches_shoelace(seed):
    grid = random_grid(random.Random(100 + seed), max_side=24)
    cycles, _ = extract_components(grid)
    for cycle in cycles:
        assert cycle_to_polyomino(cycle).area == cycle.shoelace_area()


@pytest.mark.parametrize("seed", range(8))
def test_loop_width_in_boundary_stitches(seed):
    # a loop spans one more boundary stitch column than it has cell columns
    grid = random_grid(random.Random(200 + seed), max_side=24)
    cycles, _ = extract_components(grid)
    for cycle in cycles:
        poly = cycle_to_polyomino(cycle)
        stitch_columns = {a[0] for a, b in cycle.edges() if a[0] == b[0]}
        assert len(stitch_columns) == poly.width + 1


# --- turn words ---

# counterclockwise boundaries of three tetrominoes of perimeter 10; each has
# two straight steps
S_TETROMINO = LatticeCycle([(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (3, 2),
                            (2, 2), (1, 2), (1, 1), (0, 1)])
Z_TETROMINO = LatticeCycle([(1, 0), (2, 0), (3, 0), (3, 1), (2, 1), (2, 2),
                            (1, 2), (0, 2), (0, 1), (1, 1)])
T_TETROMINO = LatticeCycle([(1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (2, 2),
                            (1, 2), (0, 2), (0, 1), (1, 1)])


def test_tetromino_boundaries_enclose_their_cells():
    assert cycle_to_polyomino(S_TETROMINO).cells == {(0, 0), (1, 0), (1, 1),
                                                     (2, 1)}
    assert cycle_to_polyomino(Z_TETROMINO).cells == {(1, 0), (2, 0), (0, 1),
                                                     (1, 1)}
    assert cycle_to_polyomino(T_TETROMINO).cells == {(1, 0), (0, 1), (1, 1),
                                                     (2, 1)}


def test_turn_word_letters():
    assert turn_word(UNIT_SQUARE) == "LLLL"
    assert turn_word(LatticeCycle(UNIT_SQUARE.vertices[::-1])) == "RRRR"
    assert turn_word(S_TETROMINO) == "LSLRLLSLRL"
    for cycle in (S_TETROMINO, Z_TETROMINO, T_TETROMINO):
        word = turn_word(cycle)
        assert len(word) == cycle.perimeter
        # a simple counterclockwise boundary turns left four times more
        # often than right
        assert word.count("L") - word.count("R") == 4


def test_reflected_tetromino_is_congruent():
    s, z = turn_word(S_TETROMINO), turn_word(Z_TETROMINO)
    assert s != z
    assert congruent_words(s, z)
    assert congruent_words(z, s)
    assert cycle_to_polyomino(S_TETROMINO).canonical_form == \
        cycle_to_polyomino(Z_TETROMINO).canonical_form


def test_same_perimeter_other_shape_is_not_congruent():
    s, t = turn_word(S_TETROMINO), turn_word(T_TETROMINO)
    assert len(s) == len(t)
    assert not congruent_words(s, t)
    assert not congruent_words(t, s)


def test_congruent_words_up_to_rotation_reversal_and_swap():
    word = turn_word(S_TETROMINO)
    swap = str.maketrans("LR", "RL")
    for variant in (word[3:] + word[:3], word[::-1].translate(swap),
                    word.translate(swap), word[::-1]):
        assert congruent_words(word, variant)
    assert not congruent_words(word, word + "LR")
    assert not congruent_words("LLLL", "LLL")


# --- congruence checks ---

def test_theorem_report_examples():
    assert check_loop_theorems(LoopStats(12, 5, 3, 3)).all_hold
    assert check_loop_theorems(LoopStats(4, 1, 1, 1)).all_hold
    report = check_loop_theorems(LoopStats(8, 2, 1, 2))
    assert not report.area_1_mod_4
    assert not report.perimeter_4_mod_8
    assert not report.box_dimensions_odd


@pytest.mark.parametrize("seed", range(10))
def test_loop_congruences_on_random_grids(seed):
    grid = random_grid(random.Random(300 + seed), max_side=30)
    cycles, _ = extract_components(grid)
    for cycle in cycles:
        stats = loop_stats(cycle_to_polyomino(cycle), cycle)
        assert check_loop_theorems(stats).all_hold


@pytest.mark.slow
def test_loop_congruences_on_large_random_windows():
    # every loop of four random windows of about 1000 x 1000 cells
    rng = random.Random(1000)
    loops_seen = 0
    for _ in range(4):
        rows = "".join(rng.choice("01") for _ in range(rng.randint(2, 8)))
        cols = "".join(rng.choice("01") for _ in range(rng.randint(2, 8)))
        report = analyze_grid(grid_of(rows, cols, rng.randint(950, 1050),
                                      rng.randint(950, 1050)))
        for entry in report["loops"]:
            assert entry["area"] % 4 == 1
            assert entry["perimeter"] % 8 == 4
            assert entry["width"] % 2 == 1 and entry["height"] % 2 == 1
        assert report["theorems_all_hold"]
        loops_seen += len(report["loops"])
    assert loops_seen > 10000


# --- two-coloring ---

def potential(grid, x, y):
    # parity of stitches crossed on any path from cell (0, 0); defined only
    # when both line families are stitched
    return (x * y + sum(grid.col_bits[1:x + 1]) +
            sum(grid.row_bits[1:y + 1])) % 2


def test_two_color_kuchizashi():
    grid = grid_of("1", "1", 4, 4)
    coloring = two_color(grid)
    squares = {(0, 0), (2, 0), (0, 2), (2, 2)}
    square_colors = {coloring[c] for c in squares}
    other_colors = {coloring[c] for c in coloring if c not in squares}
    assert len(square_colors) == 1
    assert len(other_colors) == 1
    assert square_colors != other_colors


def test_two_color_empty_grid_is_single_color():
    coloring = two_color(grid_of("", "", 3, 3))
    assert set(coloring.values()) == {0}


def test_two_color_diagonal_stripes():
    grid = grid_of("01", "10", 10, 10)
    coloring = two_color(grid)
    assert set(coloring.values()) == {0, 1}
    # steps of the same stripe share a color
    assert coloring[(0, 0)] == coloring[(1, 0)] == coloring[(1, 1)]
    # the neighbouring stripe differs
    assert coloring[(1, 0)] != coloring[(2, 0)]


@pytest.mark.parametrize("seed", range(10))
def test_two_color_proper_and_matches_potential(seed):
    grid = random_grid(random.Random(400 + seed), max_side=20)
    coloring = two_color(grid)
    for y in range(grid.height):
        for x in range(grid.width):
            if x + 1 < grid.width:
                same = coloring[(x, y)] == coloring[(x + 1, y)]
                expected = potential(grid, x, y) == potential(grid, x + 1, y)
                assert same == expected
                assert same != grid.vertical_present(x + 1, y)
            if y + 1 < grid.height:
                same = coloring[(x, y)] == coloring[(x, y + 1)]
                expected = potential(grid, x, y) == potential(grid, x, y + 1)
                assert same == expected
                assert same != grid.horizontal_present(x, y + 1)


def test_two_color_single_direction_pattern_is_trivial():
    coloring = two_color(grid_of("10", "", 6, 6))
    assert set(coloring.values()) == {0}


# --- misc ---

def test_centred_square_check():
    assert centred_square_check([1, 5, 13, 25, 41])
    assert centred_square_check([1])
    assert centred_square_check([])
    assert not centred_square_check([1, 5, 14])


def test_analyze_grid_report_shape():
    report = analyze_grid(grid_of("0110", "011", 12, 12))
    assert report["width"] == 12 and report["height"] == 12
    assert report["loops"][0]["area"] == 5
    assert report["loops"][0]["theorems"]["area_1_mod_4"] is True
    assert report["theorems_all_hold"] is True
    assert len(report["two_coloring"]) == 12
    assert len(report["two_coloring"][0]) == 12
    assert len(report["loops"][0]["canonical_hash"]) == 16
