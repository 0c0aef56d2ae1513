"""Catalog of traditional stitch patterns with encodings and loop data.

Each entry carries the two encoding word programs, a default analysis window
of four word periods per axis (large enough for every motif to appear fully
inside), the self-duality flag, and the expected largest-loop statistics
where the pattern outlines closed loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .grid import PatternSpec, WordProgram, build_grid
from .loops import LoopStats, largest_loop


@dataclass(frozen=True)
class PatternEntry:
    key: str
    display_name: str
    meaning: str
    row_text: str
    col_text: str
    default_window: tuple[int, int]  # (width, height) in cells
    self_dual: bool
    expected_stats: Optional[LoopStats] = None

    def spec(self) -> PatternSpec:
        """The pattern on its default window."""
        return PatternSpec(self.key, WordProgram.parse(self.row_text),
                           WordProgram.parse(self.col_text),
                           *self.default_window)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "display_name": self.display_name,
            "meaning": self.meaning,
            "rows": self.row_text,
            "cols": self.col_text,
            "default_window": list(self.default_window),
            "self_dual": self.self_dual,
            "expected_stats": (list(self.expected_stats)
                               if self.expected_stats else None),
            "dual_key": self.key if self.self_dual else None,
        }


_ENTRIES: tuple[PatternEntry, ...] = (
    PatternEntry(
        key="yokogushi", display_name="yokogushi",
        meaning="offset horizontal rows",
        row_text="10", col_text="", default_window=(8, 8),
        self_dual=True,
    ),
    PatternEntry(
        key="tategushi", display_name="tategushi",
        meaning="offset vertical rows",
        row_text="", col_text="10", default_window=(8, 8),
        self_dual=True,
    ),
    PatternEntry(
        key="dan_tsunagi_ne", display_name="dan tsunagi (rising NE)",
        meaning="linked steps",
        row_text="01", col_text="10", default_window=(8, 8),
        self_dual=True,
    ),
    PatternEntry(
        key="dan_tsunagi_nw", display_name="dan tsunagi (rising NW)",
        meaning="linked steps",
        row_text="10", col_text="10", default_window=(8, 8),
        self_dual=True,
    ),
    PatternEntry(
        key="kuchizashi", display_name="kuchizashi",
        meaning="mouth stitch, after the kanji for mouth",
        row_text="1", col_text="1", default_window=(4, 4),
        self_dual=True,
        expected_stats=LoopStats(4, 1, 1, 1),
    ),
    PatternEntry(
        key="jujizashi", display_name="jūjizashi",
        meaning="ten-cross stitch, after the kanji for ten",
        row_text="0110", col_text="011", default_window=(12, 16),
        self_dual=False,
        expected_stats=LoopStats(12, 5, 3, 3),
    ),
    PatternEntry(
        key="hirayama_michi", display_name="hirayama michi",
        meaning="mountain pass road",
        row_text="10", col_text="1", default_window=(4, 8),
        self_dual=True,
    ),
    PatternEntry(
        key="kawari_hirayama", display_name="kawari hirayama michi",
        meaning="variant passes, paired so the features face apart",
        row_text="0110", col_text="1", default_window=(4, 16),
        self_dual=False,
    ),
    PatternEntry(
        key="yamagata", display_name="yamagata",
        meaning="mountain form, after the kanji for mountain",
        row_text="01", col_text="01:3,10", default_window=(12, 8),
        self_dual=True,
    ),
    PatternEntry(
        key="niju_yamagata", display_name="nijū yamagata",
        meaning="double mountain form",
        row_text="10", col_text="10101", default_window=(20, 8),
        self_dual=True,
    ),
    PatternEntry(
        key="kakinohanazashi", display_name="kakinohanazashi",
        meaning="persimmon flower stitch",
        row_text="10100101", col_text="010", default_window=(12, 32),
        self_dual=False,
        expected_stats=LoopStats(20, 13, 5, 5),
    ),
    PatternEntry(
        key="sanju_kakinohanazashi",
        display_name="sanjū kakinohanazashi",
        meaning="triple persimmon flower stitch",
        row_text="101010010101", col_text="01010", default_window=(20, 48),
        self_dual=False,
        expected_stats=LoopStats(36, 41, 9, 9),
    ),
    # The well-kerb motif appears under the phase 011110; the complementary
    # phase 100001 stitches the same piece read from the other side.
    PatternEntry(
        key="igetazashi", display_name="igetazashi",
        meaning="well-kerb stitch, after the kanji for water well",
        row_text="011110", col_text="011110", default_window=(24, 24),
        self_dual=False,
        expected_stats=LoopStats(28, 17, 5, 5),
    ),
)

_BY_KEY = {entry.key: entry for entry in _ENTRIES}


def lookup(key: str) -> PatternEntry:
    try:
        return _BY_KEY[key]
    except KeyError:
        raise KeyError(f"pattern not found: {key}") from None


def list_all() -> list[PatternEntry]:
    return list(_ENTRIES)


_TABLE1_ROWS = (
    ("kuchizashi", False),
    ("jujizashi", False),
    ("kakinohanazashi", False),
    ("sanju_kakinohanazashi", True),   # the dual fabric's largest motif
    ("sanju_kakinohanazashi", False),
    ("igetazashi", False),
)


def table1() -> list[tuple[str, LoopStats]]:
    """Largest-loop statistics of the classic looped patterns, computed from
    their grids (and from the dual grid for the dual triple-persimmon row)
    once per process; each call returns a new list."""
    return list(_table1_rows())


@cache
def _table1_rows() -> tuple[tuple[str, LoopStats], ...]:
    rows = []
    for key, use_dual in _TABLE1_ROWS:
        entry = lookup(key)
        grid = build_grid(entry.spec())
        if use_dual:
            grid = grid.dual()
        best = largest_loop(grid)
        if best is None:
            raise ValueError(f"no closed loop in {key} window")
        name = entry.display_name
        if use_dual:
            name = f"dual {name}"
        rows.append((name, best[2]))
    return tuple(rows)


def export_catalog() -> list[dict]:
    """The registry as plain data, for external tools."""
    return [entry.to_dict() for entry in _ENTRIES]
