import functools
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from hitomezashi import loops, tiles
from hitomezashi.grid import build_grid
from hitomezashi.loops import (LatticeCycle, Polyomino, _eighth_census,
                               check_loop_theorems, congruent_words,
                               cycle_to_polyomino, largest_loop, loop_stats)
from hitomezashi.tiles import (_snowflake_quarter, conjecture_report,
                               persimmon_spec, persimmon_word, snowflake,
                               snowflake_boundary, snowflake_cycle,
                               trace_turtle, verify_conjecture)
from hitomezashi.words import TurnWord, fib_turtle_word, pell
from oracles import (eighth_spectrum, eighth_words, fourfold_area,
                     full_torus_largest, turn_word, vertex_cycle_stats,
                     walk_loop)


def test_four_right_turns_trace_the_unit_square():
    cycle = trace_turtle(TurnWord("RRRR"))
    assert cycle.perimeter == 4
    assert set(cycle.vertices) == {(0, 0), (1, 0), (1, -1), (0, -1)}


def test_rll_repeated_four_times_is_a_twelve_edge_loop():
    cycle = trace_turtle(TurnWord("RLL").repeat(4))
    assert cycle.perimeter == 12
    assert cycle.shoelace_area() == 5


def test_open_trace_rejected():
    # LLLR and RRRL end at the origin heading -x, not the +x they began on
    for word in ("RRR", "LLLR", "RRRL"):
        with pytest.raises(ValueError, match="open boundary"):
            trace_turtle(TurnWord(word))


def test_self_crossing_trace_rejected():
    with pytest.raises(ValueError, match="self-intersecting boundary"):
        trace_turtle(TurnWord("LLLLRRRR"))


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        trace_turtle(TurnWord(""))


def test_boundary_word_construction():
    assert snowflake_boundary(1) == TurnWord("RRRR")
    assert snowflake_boundary(2) == TurnWord("RLL").repeat(4)
    with pytest.raises(ValueError):
        snowflake_boundary(0)


@pytest.mark.parametrize("order,area,perimeter", [
    (1, 1, 4),
    (2, 5, 12),
    (3, 29, 52),
    (4, 169, 220),
    (5, 985, 932),
])
def test_snowflake_area_and_perimeter(order, area, perimeter):
    poly = snowflake(order)
    cycle = snowflake_cycle(order)
    assert poly.area == area == pell(2 * order - 1)
    assert cycle.perimeter == perimeter
    assert cycle.perimeter == 4 * len(fib_turtle_word(3 * order - 2))


@pytest.mark.parametrize("order", range(1, 8))
def test_snowflake_shoelace_area_is_the_filled_area(order):
    assert snowflake_cycle(order).shoelace_area() == snowflake(order).area


@pytest.mark.parametrize("order", range(1, 10))
def test_quarter_trace_gives_the_snowflake_area(order):
    quarter = fib_turtle_word(3 * (order - 1) + 1)
    assert fourfold_area(quarter) == \
        trace_turtle(snowflake_boundary(order)).shoelace_area()


# a quarter that ends on its first heading, displaced
@pytest.mark.parametrize("quarter", ["LR", "RL", "LLRR", "RRLRLL"])
def test_quarter_that_does_not_close_in_four_copies_is_open(quarter):
    with pytest.raises(ValueError, match="open boundary"):
        trace_turtle(TurnWord(quarter).repeat(4))
    with pytest.raises(ValueError, match="open boundary"):
        fourfold_area(TurnWord(quarter))


@pytest.mark.parametrize("order", range(1, 6))
def test_snowflake_width_in_boundary_stitches(order):
    assert snowflake(order).width + 1 == 2 * pell(order)


@pytest.mark.parametrize("order", range(1, 6))
def test_snowflake_satisfies_loop_congruences(order):
    stats = loop_stats(snowflake(order), snowflake_cycle(order))
    assert check_loop_theorems(stats).all_hold


@pytest.mark.parametrize("order", range(1, 6))
def test_snowflake_four_fold_rotation_symmetry(order):
    cells = snowflake(order).cells

    def normalize(points):
        min_x = min(x for x, _ in points)
        min_y = min(y for _, y in points)
        return sorted((x - min_x, y - min_y) for x, y in points)

    rotated = [(-y, x) for x, y in cells]
    assert normalize(cells) == normalize(rotated)


def test_order_two_snowflake_is_the_plus_pentomino():
    plus = Polyomino([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
    assert snowflake(2).canonical_form == plus.canonical_form


def test_persimmon_word_values():
    assert str(persimmon_word(1)) == "11"
    assert str(persimmon_word(2)) == "0110"
    assert str(persimmon_word(3)) == "1000110001"
    with pytest.raises(ValueError):
        persimmon_word(0)


@pytest.mark.parametrize("order", range(1, 6))
def test_persimmon_word_length(order):
    assert len(persimmon_word(order)) == 2 * pell(order)


def test_persimmon_spec_window():
    spec = persimmon_spec(3, periods=2)
    assert spec.width == spec.height == 4 * pell(3)
    assert spec.row_program.to_text() == "1000110001"
    with pytest.raises(ValueError):
        persimmon_spec(1, periods=0)
    # the window cap admits order 10 (9512 x 9512 cells), not a third period
    assert persimmon_spec(10).width == 4 * pell(10) == 9512
    with pytest.raises(ValueError, match="exceeds"):
        persimmon_spec(10, periods=3)


@pytest.mark.parametrize("order", range(1, 5))
def test_largest_persimmon_loop_is_the_snowflake(order):
    assert verify_conjecture(order)


@pytest.mark.parametrize("order", [
    *range(1, 9), *(pytest.param(n, marks=pytest.mark.slow)
                    for n in range(9, 12))])
def test_persimmon_torus_loops_are_snowflakes_of_every_order(order):
    # every loop through one eighth of the torus has the size of the
    # order-k snowflake for some k <= n, T(1 + pell(0) + ... + pell(n-k-1))
    # of them, T(m) = m(m+1)/2, and no cycle through it is unbounded or
    # leaves [-P/2, P) on either axis
    bits = persimmon_word(order).bits
    sizes, unbounded, (low, high) = eighth_spectrum(bits)
    expected = {}
    for k in range(1, order + 1):
        m = 1 + sum(pell(i) for i in range(order - k))
        expected[pell(2 * k - 1), 4 * len(_snowflake_quarter(k))] = \
            m * (m + 1) // 2
    assert sizes == expected
    assert unbounded == 0
    assert -len(bits) // 2 <= low and high < len(bits)
    assert _eighth_census(bits) == (max(sizes), [mock.ANY])


@pytest.mark.parametrize("order", [
    *range(1, 9), *(pytest.param(n, marks=pytest.mark.slow)
                    for n in range(9, 12))])
def test_persimmon_torus_loops_are_congruent_to_snowflakes(order):
    # not only the largest: every loop through one eighth of the torus
    # bounds the order-k snowflake whose size it has
    words = eighth_words(persimmon_word(order).bits)
    boundaries = {(pell(2 * k - 1), 4 * len(_snowflake_quarter(k))):
                  str(snowflake_boundary(k)) for k in range(1, order + 1)}
    assert words.keys() == boundaries.keys()
    for size, found in words.items():
        for word in found:
            assert congruent_words(word, boundaries[size]), size


def test_conjecture_report_contents():
    report = conjecture_report(2)
    assert report["match"] is True
    assert report["window"] == [8, 8]
    assert report["largest_loop"]["area"] == report["snowflake"]["area"] == 5
    assert report["largest_loop"]["perimeter"] == 12


def test_conjecture_report_reports_the_order_as_an_int():
    order = conjecture_report(True)["order"]
    assert type(order) is int and order == 1


def test_boundary_that_does_not_match_is_checked_to_be_simple(monkeypatch):
    # four copies of LLL go round the unit square three times
    monkeypatch.setattr(tiles, "_snowflake_quarter",
                        lambda order: TurnWord("LLL"))
    with pytest.raises(ValueError, match="self-intersecting boundary"):
        conjecture_report(2)


@pytest.mark.parametrize("order", range(1, 8))
def test_conjecture_report_matches_the_filled_largest_loop(order):
    # the window's largest loop, found without the torus
    cycle, _, stats = largest_loop(build_grid(persimmon_spec(order)))
    report = conjecture_report(order)
    assert report["largest_loop"] == {
        "perimeter": stats.perimeter, "area": stats.area,
        "height": stats.height, "width": stats.width}
    assert report["match"] == (cycle_to_polyomino(cycle).canonical_form
                               == snowflake(order).canonical_form)


def test_conjecture_report_raises_when_the_torus_cannot_vouch(monkeypatch):
    monkeypatch.setattr(tiles, "_torus_largest", lambda word: None)
    with pytest.raises(ValueError, match="^order 3: the torus census "
                       "cannot vouch for the largest loop$"):
        conjecture_report(3)


def test_same_size_loop_that_is_not_the_snowflake_fails(monkeypatch):
    # the 3 x 3 square has the plus pentomino's perimeter 12 and box, and a
    # quarter turn fixes it too, but its quarter word is LSS, not RLL
    square = LatticeCycle([(x, 0) for x in range(3)]
                          + [(3, y) for y in range(3)]
                          + [(x, 3) for x in range(3, 0, -1)]
                          + [(0, y) for y in range(3, 0, -1)])
    quarter = turn_word(square)[:3]
    assert quarter * 4 == turn_word(square)
    monkeypatch.setattr(tiles, "_torus_largest", lambda word: (
        vertex_cycle_stats(square), quarter))
    report = conjecture_report(2)
    assert report["largest_loop"]["perimeter"] == \
        report["snowflake"]["perimeter"] == 12
    assert report["largest_loop"]["width"] == 3
    assert report["largest_loop"]["area"] == 9
    assert report["snowflake"]["area"] == 5  # traced, as the words differ
    assert report["match"] is False


@functools.cache
def recorded_report(order):
    """conjecture_report(order), with the torus census result and the
    torus answer that it used."""
    seen = []

    def recorded(function):
        def call(*args):
            seen.append(function(*args))
            return seen[-1]
        return call

    with mock.patch.object(loops, "_eighth_census",
                           recorded(loops._eighth_census)), \
            mock.patch.object(tiles, "_torus_largest",
                              recorded(tiles._torus_largest)):
        report = conjecture_report(order)
    return report, *seen


@pytest.mark.parametrize("order", [
    *range(1, 9), *(pytest.param(n, marks=pytest.mark.slow)
                    for n in range(9, 13))])
def test_quarter_walk_matches_the_whole_walk(order):
    bits = persimmon_word(order).bits
    report, ((_, perimeter), (start,)), (stats, quarter) = \
        recorded_report(order)
    whole, word, _ = walk_loop(bits, bits, start, perimeter)
    assert stats == whole
    assert quarter * 4 == word
    assert report["largest_loop"] == stats._asdict()
    if order <= 10:
        # the tile's area, taken from the loop on a match, is the traced
        # snowflake's
        assert report["match"]
        assert report["snowflake"]["area"] == \
            fourfold_area(_snowflake_quarter(order))
    if order <= 8:
        assert full_torus_largest(bits, bits)[0] == stats


@st.composite
def word_pairs(draw):
    """Two turn words over L, R and S: b is unrelated to a, of a's length
    or not, or a rotated, swapped or reversed."""
    a = draw(st.text(alphabet="LRS", max_size=12))
    kind = draw(st.sampled_from(["any", "same-length", "variant"]))
    if kind == "any":
        return a, draw(st.text(alphabet="LRS", max_size=12))
    if kind == "same-length":
        return a, draw(st.text(alphabet="LRS", min_size=len(a),
                               max_size=len(a)))
    shift = draw(st.integers(0, max(len(a) - 1, 0)))
    b = a[shift:] + a[:shift]
    if draw(st.booleans()):
        b = b.translate(str.maketrans("LR", "RL"))
    return a, b[::-1] if draw(st.booleans()) else b


@given(word_pairs())
@example(("RLL", "LRL"))
@example(("RLL", "LSS"))
def test_fourth_powers_are_congruent_exactly_when_their_roots_are(pair):
    # conjecture_report compares quarters, not the whole boundaries
    a, b = pair
    if len(a) == len(b):
        assert congruent_words(a * 4, b * 4) == congruent_words(a, b)
    else:
        assert not congruent_words(a * 4, b * 4)


# a TurnWord has no S; deleting it from both words keeps how they relate
@given(word_pairs().map(lambda pair: tuple(w.replace("S", "") for w in pair)))
@example(("RLL", "LLR"))
def test_congruent_words_reads_turn_words_as_their_letters(pair):
    a, b = pair
    expected = congruent_words(a, b)
    for x, y in ((TurnWord(a), b), (a, TurnWord(b)),
                 (TurnWord(a), TurnWord(b))):
        assert congruent_words(x, y) == expected


@pytest.mark.slow
def test_order_8_largest_persimmon_loop_is_the_snowflake():
    report = recorded_report(8)[0]
    assert report["match"] is True
    assert report["window"] == [1632, 1632]
    assert report["largest_loop"]["area"] == report["snowflake"]["area"] \
        == pell(15)
    assert report["largest_loop"]["perimeter"] == 4 * len(fib_turtle_word(22))


@pytest.mark.slow
def test_order_9_largest_persimmon_loop_is_the_snowflake():
    report = recorded_report(9)[0]
    assert report["match"] is True
    assert report["window"] == [3940, 3940]
    assert report["largest_loop"]["area"] == report["snowflake"]["area"] \
        == pell(17)
    assert report["largest_loop"]["perimeter"] == 4 * len(fib_turtle_word(25))


@pytest.mark.slow
def test_order_10_largest_persimmon_loop_is_the_snowflake():
    report = recorded_report(10)[0]
    assert report["match"] is True
    assert report["window"] == [9512, 9512]
    assert report["largest_loop"]["area"] == report["snowflake"]["area"] \
        == pell(19)
    assert report["largest_loop"]["perimeter"] == 4 * len(fib_turtle_word(28))


@pytest.mark.slow
def test_order_11_largest_persimmon_loop_is_the_snowflake():
    # the window (22964 cells a side) exceeds MAX_CELLS: only the torus
    # census can check this order
    report = recorded_report(11)[0]
    assert report["match"] is True
    assert report["window"] == [22964, 22964]
    assert report["largest_loop"]["area"] == report["snowflake"]["area"] \
        == pell(21) == 38_613_965
    assert report["largest_loop"]["perimeter"] == 4 * len(fib_turtle_word(31))


@pytest.mark.slow
def test_order_12_largest_persimmon_loop_is_the_snowflake():
    # the census walks only the loops through one eighth of the 27720 x
    # 27720 torus
    report = recorded_report(12)[0]
    assert report["match"] is True
    assert report["window"] == [55440, 55440]
    assert report["largest_loop"]["area"] == report["snowflake"]["area"] \
        == pell(23)
    assert report["largest_loop"]["perimeter"] == 4 * len(fib_turtle_word(34))
