import json

import pytest

from hitomezashi import registry
from hitomezashi.grid import (PatternSpec, WordProgram, build_grid,
                            is_self_dual)
from hitomezashi.loops import LoopStats, largest_loop
from hitomezashi.registry import export_catalog, list_all, lookup, table1
from hitomezashi.words import BinaryWord
from oracles import horizontal_present, vertical_present

MANDATORY_KEYS = [
    "yokogushi", "tategushi", "dan_tsunagi_ne", "dan_tsunagi_nw",
    "kuchizashi", "jujizashi", "hirayama_michi", "kawari_hirayama",
    "yamagata", "niju_yamagata", "kakinohanazashi",
    "sanju_kakinohanazashi", "igetazashi",
]


def test_all_mandatory_entries_present():
    keys = [entry.key for entry in list_all()]
    assert keys == MANDATORY_KEYS  # stable order


def test_lookup_golden_entries():
    kuchi = lookup("kuchizashi")
    assert (kuchi.row_text, kuchi.col_text) == ("1", "1")
    assert kuchi.self_dual

    juji = lookup("jujizashi")
    assert (juji.row_text, juji.col_text) == ("0110", "011")
    assert not juji.self_dual

    igeta = lookup("igetazashi")
    assert igeta.row_text == igeta.col_text == "011110"

    yoko = lookup("yokogushi")
    assert (yoko.row_text, yoko.col_text) == ("10", "")

    tate = lookup("tategushi")
    assert (tate.row_text, tate.col_text) == ("", "10")
    assert build_grid(tate.spec()).row_bits is None

    assert lookup("dan_tsunagi_ne").row_text == "01"
    assert lookup("dan_tsunagi_nw").row_text == "10"
    assert lookup("hirayama_michi").col_text == "1"
    assert lookup("kawari_hirayama").row_text == "0110"
    assert lookup("niju_yamagata").col_text == "10101"
    assert lookup("kakinohanazashi").row_text == "10100101"
    assert lookup("sanju_kakinohanazashi").row_text == "101010010101"


def test_lookup_unknown_key():
    with pytest.raises(KeyError, match="pattern not found"):
        lookup("nope")


def test_self_dual_flags_match_word_search():
    for entry in list_all():
        if entry.key == "yamagata":
            continue
        shift = is_self_dual(BinaryWord(entry.row_text),
                             BinaryWord(entry.col_text))
        assert entry.self_dual == (shift is not None), entry.key


def test_yamagata_spec_and_dict_are_its_parsed_programs():
    # the column program peaks on the midline of the default 12 x 8 window
    entry = lookup("yamagata")
    assert entry.spec() == PatternSpec("yamagata", WordProgram.parse("01"),
                                       WordProgram.parse("01:3,10"), 12, 8)
    assert entry.to_dict() == {
        "key": "yamagata", "display_name": "yamagata",
        "meaning": "mountain form, after the kanji for mountain",
        "rows": "01", "cols": "01:3,10", "default_window": [12, 8],
        "self_dual": True, "expected_stats": None, "dual_key": "yamagata"}


def test_entry_texts_are_canonical_program_texts():
    # to_dict prints row_text and col_text as they are, which is the text
    # of their parsed programs
    for entry in list_all():
        for text in (entry.row_text, entry.col_text):
            assert WordProgram.parse(text).to_text() == text, entry.key


def test_yamagata_is_self_dual_on_its_window():
    # the peaked column program is not a single repeated word, so compare
    # the dual grid against the original shifted one row up
    entry = lookup("yamagata")
    assert entry.self_dual
    grid = build_grid(entry.spec())
    dual = grid.dual()
    for y in range(grid.height):
        for x in range(grid.width):
            assert horizontal_present(dual, x, y) == \
                horizontal_present(grid, x, y + 1)
    for x in range(grid.width + 1):
        for y in range(grid.height - 1):
            assert vertical_present(dual, x, y) == \
                vertical_present(grid, x, y + 1)


def test_expected_stats_match_computed_largest_loops():
    for entry in list_all():
        if entry.expected_stats is None:
            continue
        best = largest_loop(build_grid(entry.spec()))
        assert best is not None, entry.key
        assert best[2] == entry.expected_stats, entry.key


def test_loopless_entries_have_no_expected_stats():
    for key in ("yokogushi", "tategushi", "dan_tsunagi_ne", "yamagata"):
        assert lookup(key).expected_stats is None


PAPER_TABLE1 = [
    ("kuchizashi", (4, 1, 1, 1)),
    ("jūjizashi", (12, 5, 3, 3)),
    ("kakinohanazashi", (20, 13, 5, 5)),
    ("dual sanjū kakinohanazashi", (28, 25, 7, 7)),
    ("sanjū kakinohanazashi", (36, 41, 9, 9)),
    ("igetazashi", (28, 17, 5, 5)),
]


@pytest.fixture
def uncached_table1():
    """Table 1 is computed once per process; drop the cached rows before
    and after the test so that none computed under a patch outlive it."""
    registry._table1_rows.cache_clear()
    yield
    registry._table1_rows.cache_clear()


def test_table1_rows():
    assert [(name, tuple(stats)) for name, stats in table1()] == PAPER_TABLE1


def test_table1_stats_are_loop_stats():
    for _, stats in table1():
        assert isinstance(stats, LoopStats)


def test_catalog_is_json_serializable():
    catalog = export_catalog()
    parsed = json.loads(json.dumps(catalog))
    assert len(parsed) == len(MANDATORY_KEYS)
    by_key = {item["key"]: item for item in parsed}
    assert by_key["kuchizashi"]["expected_stats"] == [4, 1, 1, 1]
    assert by_key["yokogushi"]["cols"] == ""
    for item in parsed:
        assert item["dual_key"] == (item["key"] if item["self_dual"] else None)


def test_table1_requires_a_closed_loop(uncached_table1, monkeypatch):
    monkeypatch.setattr(registry, "largest_loop", lambda grid: None)
    with pytest.raises(ValueError, match="no closed loop in kuchizashi"):
        table1()


def test_table1_returns_a_new_list_on_each_call(uncached_table1, monkeypatch):
    with monkeypatch.context() as patch:  # a failed computation caches nothing
        patch.setattr(registry, "largest_loop", lambda grid: None)
        with pytest.raises(ValueError, match="no closed loop"):
            table1()
    first, second = table1(), table1()
    assert first is not second
    first.clear()
    assert [(name, tuple(stats)) for name, stats in second] == PAPER_TABLE1
    assert table1() == second
