import pytest
from hypothesis import given, settings, strategies as st

from hitomezashi.grid import (MAX_CELLS, PatternSpec, ProgramSegment,
                              StitchGrid, WordProgram, build_grid,
                              expand_program, is_self_dual)
from hitomezashi.registry import list_all
from hitomezashi.tiles import persimmon_word
from hitomezashi.words import BinaryWord, pell
from oracles import (parity_vertex_degree, spec_from_dict,
                     vertex_loop_is_fully_packed)


def prog(text):
    return WordProgram.parse(text)


def spec(rows, cols, width, height, name="t"):
    return PatternSpec(name, prog(rows), prog(cols), width, height)


words_nonempty = st.text(alphabet="01", min_size=1, max_size=6)


@st.composite
def word_grids(draw, max_side=20):
    row_word = draw(words_nonempty)
    col_word = draw(words_nonempty)
    width = draw(st.integers(2, max_side))
    height = draw(st.integers(2, max_side))
    return build_grid(spec(row_word, col_word, width, height))


# --- programs ---

def test_expand_pure_repetition():
    assert expand_program(prog("01"), 6) == (0, 1, 0, 1, 0, 1)


def test_expand_word_switch():
    assert expand_program(prog("01:2,10"), 7) == (0, 1, 0, 1, 1, 0, 1)


def test_expand_exact_fixed_segment():
    assert expand_program(prog("1001100110:1"), 10) == \
        (1, 0, 0, 1, 1, 0, 0, 1, 1, 0)


def test_expand_truncates_fixed_overshoot():
    assert expand_program(prog("1001100110:1"), 4) == (1, 0, 0, 1)


def test_expand_huge_repeat_counts_return_at_once():
    assert expand_program(prog(":1000000000,1"), 3) == (1, 1, 1)
    assert expand_program(prog("01:1000000000"), 5) == (0, 1, 0, 1, 0)


def test_expand_underflow():
    with pytest.raises(ValueError, match="program underflow"):
        expand_program(prog("01:2"), 7)
    with pytest.raises(ValueError, match="program underflow"):
        expand_program(WordProgram(), 3)


def test_expand_needs_a_positive_count():
    with pytest.raises(ValueError, match="count must be >= 1"):
        expand_program(prog("01"), 0)


def test_expand_empty_fill_word():
    program = WordProgram((ProgramSegment(BinaryWord("")),))
    with pytest.raises(ValueError, match="empty fill word"):
        expand_program(program, 3)


def test_program_shape_validation():
    with pytest.raises(ValueError, match="fill"):
        WordProgram((ProgramSegment(BinaryWord("0")),
                     ProgramSegment(BinaryWord("1"))))
    with pytest.raises(ValueError, match="fill"):
        WordProgram((ProgramSegment(BinaryWord("0")),
                     ProgramSegment(BinaryWord("1"), 2)))
    with pytest.raises(ValueError):
        ProgramSegment(BinaryWord("0"), 0)


def test_program_parse_round_trip():
    for text in ("", "01", "01:3,10", "1001100110:1"):
        assert prog(text).to_text() == text
    with pytest.raises(ValueError):
        prog("01:x")
    with pytest.raises(ValueError):
        prog("02")


def test_pattern_spec_serialization_round_trip():
    original = spec("01:2,10", "1", 6, 9, name="demo")
    assert spec_from_dict(original.to_dict()) == original
    assert original.to_dict()["rows"][0] == {"word": "01", "repeats": 2}
    assert original.to_dict()["rows"][1] == {"word": "10", "repeats": "fill"}


@pytest.mark.parametrize("field, value, message", [
    ("width", 12.7, "width must be an integer"),
    ("height", "9", "height must be an integer"),
    ("width", True, "width must be an integer"),
    ("rows", "01:2,10", "rows must be a list of objects"),
    ("cols", {"word": "1", "repeats": "fill"}, "cols must be a list"),
    ("cols", ["1"], "cols must be a list of objects"),
    ("height", None, "height must be an integer"),
    ("rows", [{"word": 101, "repeats": 2}], "word must be a string"),
    ("rows", [{"word": "01", "repeats": True}], "repeats must be an integer"),
    ("rows", [{"word": "01", "repeats": 2.0}], "repeats must be an integer"),
])
def test_pattern_spec_from_dict_rejects_wrong_types(field, value, message):
    data = spec("01:2,10", "1", 6, 9).to_dict()
    data[field] = value
    with pytest.raises(ValueError, match=message):
        spec_from_dict(data)


def test_spec_window_validation():
    with pytest.raises(ValueError):
        spec("1", "1", 0, 4)
    assert spec("1", "1", MAX_CELLS // 4, 4).width == MAX_CELLS // 4
    with pytest.raises(ValueError, match=f"exceeds {MAX_CELLS} cells"):
        spec("1", "1", MAX_CELLS // 4 + 1, 4)
    with pytest.raises(ValueError, match="window of 1x100000001 cells"):
        spec("1", "1", 1, MAX_CELLS + 1)


# --- grids ---

def test_kuchizashi_grid_bits_and_presence():
    grid = build_grid(spec("1", "1", 4, 4))
    assert grid.row_bits == (1, 1, 1, 1, 1)
    assert grid.col_bits == (1, 1, 1, 1, 1)
    assert grid.horizontal_present(0, 0)
    assert not grid.horizontal_present(1, 0)


def test_grid_shape_validation():
    with pytest.raises(ValueError, match="at least 1x1"):
        StitchGrid(0, 1)
    with pytest.raises(ValueError, match="row_bits must hold height\\+1"):
        StitchGrid(2, 3, row_bits=(0, 1, 0))
    with pytest.raises(ValueError, match="col_bits must hold width\\+1"):
        StitchGrid(2, 3, col_bits=(0, 1, 0, 1))


def test_missing_line_family_has_no_stitches():
    grid = build_grid(spec("", "10", 6, 6))
    assert grid.row_bits is None
    assert not any(a[1] == b[1] for a, b in grid.segments())
    assert grid.segment_count() > 0


@given(rows=st.one_of(st.just(""), words_nonempty),
       cols=st.one_of(st.just(""), words_nonempty),
       width=st.integers(1, 20), height=st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_segment_count_matches_enumeration(rows, cols, width, height):
    grid = build_grid(spec(rows, cols, width, height))
    assert grid.segment_count() == len(list(grid.segments()))


def test_zero_phase_line_parity():
    grid = build_grid(spec("0", "0", 4, 4))
    assert not grid.horizontal_present(0, 2)
    assert grid.horizontal_present(1, 2)


def test_presence_bounds_checks():
    grid = build_grid(spec("1", "1", 4, 4))
    with pytest.raises(IndexError, match="out of bounds"):
        grid.horizontal_present(4, 0)
    with pytest.raises(IndexError, match="out of bounds"):
        grid.vertical_present(0, 4)


def test_dual_flips_row_bits():
    grid = build_grid(spec("1001100110:1", "1", 4, 9))
    assert grid.dual().row_bits == (0, 1, 1, 0, 0, 1, 1, 0, 0, 1)


def test_kuchizashi_dual_is_translate_by_one_one():
    grid = build_grid(spec("1", "1", 6, 6))
    dual = grid.dual()
    for y in range(grid.height):
        for x in range(grid.width - 1):
            assert dual.horizontal_present(x, y) == \
                grid.horizontal_present(x + 1, y + 1)
    for x in range(grid.width):
        for y in range(grid.height - 1):
            assert dual.vertical_present(x, y) == \
                grid.vertical_present(x + 1, y + 1)


def test_vertex_degree_and_packing():
    grid = build_grid(spec("1", "1", 4, 4))
    assert parity_vertex_degree(grid, 1, 1) == 2
    assert vertex_loop_is_fully_packed(grid)
    corner_empty = build_grid(spec("1", "1", 4, 4))
    assert parity_vertex_degree(corner_empty, 4, 4) == 0
    with pytest.raises(IndexError, match="out of bounds"):
        parity_vertex_degree(grid, 5, 0)
    yokogushi = build_grid(spec("10", "", 8, 8))
    assert not vertex_loop_is_fully_packed(yokogushi)


@given(word_grids())
@settings(max_examples=60, deadline=None)
def test_dual_is_involution(grid):
    assert grid.dual().dual() == grid


@given(word_grids(max_side=12))
@settings(max_examples=60, deadline=None)
def test_dual_presence_complementarity(grid):
    ours = set(grid.segments())
    dual = set(grid.dual().segments())
    assert not (ours & dual)
    all_segments = {((x, y), (x + 1, y))
                    for y in range(grid.height + 1) for x in range(grid.width)}
    all_segments |= {((x, y), (x, y + 1))
                     for x in range(grid.width + 1) for y in range(grid.height)}
    assert (ours | dual) == all_segments


@given(word_grids(max_side=12))
@settings(max_examples=60, deadline=None)
def test_presence_alternates_along_every_line(grid):
    for y in range(grid.height + 1):
        for x in range(grid.width - 1):
            assert grid.horizontal_present(x, y) != \
                grid.horizontal_present(x + 1, y)
    for x in range(grid.width + 1):
        for y in range(grid.height - 1):
            assert grid.vertical_present(x, y) != \
                grid.vertical_present(x, y + 1)


@given(row_word=words_nonempty, col_word=words_nonempty)
@settings(max_examples=40, deadline=None)
def test_presence_is_periodic_in_two_word_periods(row_word, col_word):
    px, py = 2 * len(col_word), 2 * len(row_word)
    grid = build_grid(spec(row_word, col_word, 2 * px + 2, 2 * py + 2))
    for y in range(py + 1):
        for x in range(px + 1):
            assert grid.horizontal_present(x, y) == \
                grid.horizontal_present(x + px, y + py)
            assert grid.vertical_present(x, y) == \
                grid.vertical_present(x + px, y + py)


# --- self-duality ---

def oracle_self_dual_shift(row_word, col_word, dx, dy):
    """Check one shift on finite grids built through the normal pipeline."""
    span_x = 2 * len(col_word) if len(col_word) else 2
    span_y = 2 * len(row_word) if len(row_word) else 2
    width = span_x + dx + 2
    height = span_y + dy + 2
    pattern = PatternSpec(
        "oracle",
        WordProgram.fill(row_word) if len(row_word) else WordProgram(),
        WordProgram.fill(col_word) if len(col_word) else WordProgram(),
        width, height,
    )
    grid = build_grid(pattern)
    dual = grid.dual()
    for y in range(span_y + 1):
        for x in range(span_x):
            if dual.horizontal_present(x, y) != \
                    grid.horizontal_present(x + dx, y + dy):
                return False
    for x in range(span_x + 1):
        for y in range(span_y):
            if dual.vertical_present(x, y) != \
                    grid.vertical_present(x + dx, y + dy):
                return False
    return True


def oracle_self_dual(row_word, col_word):
    for dy in range(2 * len(row_word) if len(row_word) else 2):
        for dx in range(2 * len(col_word) if len(col_word) else 2):
            if oracle_self_dual_shift(row_word, col_word, dx, dy):
                return (dx, dy)
    return None


def test_self_dual_examples():
    assert is_self_dual(BinaryWord("1"), BinaryWord("1")) == (1, 1)
    assert is_self_dual(BinaryWord("0110"), BinaryWord("011")) is None
    assert is_self_dual(BinaryWord("01"), BinaryWord("10")) is not None
    assert is_self_dual(BinaryWord("10"), BinaryWord("")) == (1, 0)


def test_self_dual_empty_encoding():
    with pytest.raises(ValueError, match="empty encoding"):
        is_self_dual(BinaryWord(""), BinaryWord(""))


def test_self_dual_agrees_with_grid_translation_oracle_on_registry():
    for entry in list_all():
        if entry.key == "yamagata":
            continue  # piecewise program, checked in the registry tests
        row_word = BinaryWord(entry.row_text)
        col_word = BinaryWord(entry.col_text)
        shift = is_self_dual(row_word, col_word)
        assert (shift is not None) == (oracle_self_dual(row_word, col_word)
                                       is not None)
        if shift is not None:
            assert oracle_self_dual_shift(row_word, col_word, *shift)


@pytest.mark.parametrize("order", range(1, 4))
def test_self_dual_agrees_with_oracle_on_persimmon_words(order):
    word = persimmon_word(order)
    shift = is_self_dual(word, word)
    assert shift is not None
    assert oracle_self_dual_shift(word, word, *shift)


@pytest.mark.parametrize("order", (1, 3, 5))
def test_odd_order_persimmon_admits_pell_magnitude_shift(order):
    word = persimmon_word(order)
    magnitude = pell(order)
    assert is_self_dual(word, word) == (magnitude, magnitude)
    assert oracle_self_dual_shift(word, word, magnitude, magnitude)


@given(row_word=st.text(alphabet="01", min_size=1, max_size=3),
       col_word=st.text(alphabet="01", min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_self_dual_matches_oracle_on_short_words(row_word, col_word):
    rw, cw = BinaryWord(row_word), BinaryWord(col_word)
    assert (is_self_dual(rw, cw) is None) == (oracle_self_dual(rw, cw) is None)
