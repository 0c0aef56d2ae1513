import pytest

from hitomezashi import tiles
from hitomezashi.loops import (LatticeCycle, Polyomino, check_loop_theorems,
                               cycle_to_polyomino, loop_stats)
from hitomezashi.tiles import (conjecture_report, persimmon_spec,
                               persimmon_word, snowflake, snowflake_boundary,
                               snowflake_cycle, snowflake_width_check,
                               trace_turtle, verify_conjecture)
from hitomezashi.words import TurnWord, fib_turtle_word, pell


def test_four_right_turns_trace_the_unit_square():
    cycle = trace_turtle(TurnWord("RRRR"))
    assert cycle.perimeter == 4
    assert set(cycle.vertices) == {(0, 0), (1, 0), (1, -1), (0, -1)}


def test_rll_repeated_four_times_is_a_twelve_edge_loop():
    cycle = trace_turtle(TurnWord("RLL").repeat(4))
    assert cycle.perimeter == 12
    assert cycle.shoelace_area() == 5


def test_open_trace_rejected():
    with pytest.raises(ValueError, match="open boundary"):
        trace_turtle(TurnWord("RRR"))


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


@pytest.mark.parametrize("order", range(1, 6))
def test_snowflake_width_in_boundary_stitches(order):
    assert snowflake_width_check(order)
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


@pytest.mark.parametrize("order", range(1, 5))
def test_largest_persimmon_loop_is_the_snowflake(order):
    assert verify_conjecture(order)


def test_conjecture_report_contents():
    report = conjecture_report(2)
    assert report["match"] is True
    assert report["window"] == [8, 8]
    assert report["largest_loop"]["area"] == report["snowflake"]["area"] == 5
    assert report["largest_loop"]["perimeter"] == 12


def test_conjecture_requires_a_closed_loop(monkeypatch):
    monkeypatch.setattr(tiles, "largest_loop", lambda grid: None)
    with pytest.raises(ValueError, match="window too small"):
        verify_conjecture(1)


def test_same_size_loop_that_is_not_the_snowflake_fails(monkeypatch):
    # the I-pentomino has the plus pentomino's area 5 and perimeter 12
    bar = LatticeCycle([(0, 0), (1, 0)] + [(1, y) for y in range(1, 6)]
                       + [(0, y) for y in range(5, 0, -1)])
    poly = cycle_to_polyomino(bar)
    monkeypatch.setattr(tiles, "largest_loop",
                        lambda grid: (bar, poly, loop_stats(poly, bar)))
    report = conjecture_report(2)
    assert report["largest_loop"]["perimeter"] == \
        report["snowflake"]["perimeter"] == 12
    assert report["largest_loop"]["area"] == report["snowflake"]["area"] == 5
    assert report["match"] is False


@pytest.mark.slow
def test_order_8_largest_persimmon_loop_is_the_snowflake():
    report = conjecture_report(8)
    assert report["match"] is True
    assert report["window"] == [1632, 1632]
    assert report["largest_loop"]["area"] == report["snowflake"]["area"] \
        == pell(15)
    assert report["largest_loop"]["perimeter"] == 4 * len(fib_turtle_word(22))
