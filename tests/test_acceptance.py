"""End-to-end acceptance checks.

Each test exercises one exit criterion at its stated tolerance and prints a
single verdict line (run with ``pytest tests/test_acceptance.py -v -s`` to
see them).  Expected values are exact; time budgets are asserted too.
"""

import random
import time
from contextlib import contextmanager

from hitomezashi.grid import (PatternSpec, WordProgram, build_grid,
                              is_self_dual)
from hitomezashi.loops import (cycle_to_polyomino, extract_components,
                               two_color)
from hitomezashi.registry import list_all, table1
from hitomezashi.tiles import (persimmon_word, snowflake, snowflake_cycle,
                               verify_conjecture)
from hitomezashi.words import BinaryWord, fibonacci, pell, pell_word
from oracles import centred_square_check, fill_stats


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s): {description}")
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")


def word_grid(rows, cols, width, height):
    return build_grid(PatternSpec("acc", WordProgram.fill(rows),
                                  WordProgram.fill(cols), width, height))


def test_criterion_1_table1_reproduction():
    with criterion(1, "largest-loop table matches all six published rows", 1.0):
        assert [(name, tuple(stats)) for name, stats in table1()] == [
            ("kuchizashi", (4, 1, 1, 1)),
            ("jūjizashi", (12, 5, 3, 3)),
            ("kakinohanazashi", (20, 13, 5, 5)),
            ("dual sanjū kakinohanazashi", (28, 25, 7, 7)),
            ("sanjū kakinohanazashi", (36, 41, 9, 9)),
            ("igetazashi", (28, 17, 5, 5)),
        ]


def test_criterion_2_pell_word_goldens():
    with criterion(2, "pell words 1..4 exact and |word(n)| = pell(n) for n <= 12",
                   1.0):
        assert [str(pell_word(n)) for n in range(1, 5)] == \
            ["1", "01", "10001", "011100110001"]
        for n in range(13):
            assert len(pell_word(n)) == pell(n)


def test_criterion_3_integer_sequences():
    with criterion(3, "Pell and Fibonacci sequences with their congruences",
                   1.0):
        assert [pell(n) for n in range(7)] == [0, 1, 2, 5, 12, 29, 70]
        assert fibonacci(0) == 1 and fibonacci(1) == 1
        for n in range(1, 11):
            assert fibonacci(3 * n + 1) % 2 == 1
        for k in range(1, 11):
            assert pell(2 * k + 1) % 4 == 1


def test_criterion_4_loop_congruences_at_scale():
    with criterion(4, "every loop of 200 random patterns satisfies the three "
                      "congruences", 30.0):
        rng = random.Random(0xA11CE)
        loops_seen = 0
        for _ in range(200):
            rows = "".join(rng.choice("01")
                           for _ in range(rng.randint(1, 8)))
            cols = "".join(rng.choice("01")
                           for _ in range(rng.randint(1, 8)))
            grid = word_grid(rows, cols,
                             rng.randint(8, 40), rng.randint(8, 40))
            cycles, _ = extract_components(grid)
            for cycle in cycles:
                loops_seen += 1
                stats = fill_stats(cycle, cycle_to_polyomino(cycle))
                assert stats.area % 4 == 1
                assert stats.perimeter % 8 == 4
                assert stats.width % 2 == 1 and stats.height % 2 == 1
        assert loops_seen > 200  # the sample actually exercised loops


def test_criterion_5_snowflake_construction():
    with criterion(5, "snowflakes 1..5: closed simple boundary, 4-fold "
                      "symmetry, Pell areas and stitch widths", 5.0):
        expected_areas = [1, 5, 29, 169, 985]
        for order in range(1, 6):
            cycle = snowflake_cycle(order)  # tracing validates closure
            poly = snowflake(order)
            assert poly.area == expected_areas[order - 1] == pell(2 * order - 1)
            assert poly.width + 1 == 2 * pell(order)

            def norm(points):
                mx = min(x for x, _ in points)
                my = min(y for _, y in points)
                return sorted((x - mx, y - my) for x, y in points)

            assert norm(poly.cells) == norm([(-y, x) for x, y in poly.cells])
            assert len(set(cycle.vertices)) == cycle.perimeter  # simple


def test_criterion_6_conjecture_desk_scale():
    with criterion(6, "persimmon largest loop is the snowflake for orders "
                      "1..5", 60.0):
        for order in range(1, 6):
            assert verify_conjecture(order)


def test_criterion_7_duality_suite():
    with criterion(7, "dual involution, presence complementarity, and "
                      "self-duality flags", 10.0):
        rng = random.Random(0xD0A1)
        for _ in range(100):
            rows = "".join(rng.choice("01")
                           for _ in range(rng.randint(1, 6)))
            cols = "".join(rng.choice("01")
                           for _ in range(rng.randint(1, 6)))
            grid = word_grid(rows, cols,
                             rng.randint(4, 20), rng.randint(4, 20))
            dual = grid.dual()
            assert dual.dual() == grid
            ours, theirs = set(grid.segments()), set(dual.segments())
            assert not (ours & theirs)
            horizontal = (grid.height + 1) * grid.width
            vertical = (grid.width + 1) * grid.height
            assert len(ours) + len(theirs) == horizontal + vertical

        for entry in list_all():
            if entry.key == "yamagata":
                continue  # piecewise program; covered by the registry tests
            shift = is_self_dual(BinaryWord(entry.row_text),
                                 BinaryWord(entry.col_text))
            assert entry.self_dual == (shift is not None), entry.key

        for order in range(1, 6):
            word = persimmon_word(order)
            assert is_self_dual(word, word) is not None


def test_criterion_8_centred_square_areas():
    with criterion(8, "motif areas 1, 5, 13, 25, 41 are centred squares", 1.0):
        assert centred_square_check([1, 5, 13, 25, 41])
        for k, area in enumerate([1, 5, 13, 25, 41]):
            assert area == 2 * k * (k + 1) + 1


def test_criterion_9_two_coloring_registry():
    from oracles import _regions, horizontal_present, vertical_present
    with criterion(9, "every registry pattern two-colors properly", 5.0):
        for entry in list_all():
            grid = build_grid(entry.spec())
            coloring = two_color(grid)
            region_of, _ = _regions(grid)
            for y in range(grid.height):
                for x in range(grid.width):
                    if x + 1 < grid.width and \
                            vertical_present(grid, x + 1, y) and \
                            region_of[(x, y)] != region_of[(x + 1, y)]:
                        assert coloring[(x, y)] != coloring[(x + 1, y)]
                    if y + 1 < grid.height and \
                            horizontal_present(grid, x, y + 1) and \
                            region_of[(x, y)] != region_of[(x, y + 1)]:
                        assert coloring[(x, y)] != coloring[(x, y + 1)]
