"""Stitch grids: word programs, presence queries, duality, self-duality.

A grid of W x H cells carries up to H+1 horizontal stitch lines (phase bits
read bottom-up) and up to W+1 vertical lines (read left-to-right).  One phase
bit per line fixes the whole running stitch: the segment from (x, y) to
(x+1, y) is present exactly when x plus the line's bit is odd, and likewise
for vertical segments.  The origin sits at the bottom-left corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .words import BinaryWord

Point = tuple[int, int]
Segment = tuple[Point, Point]


@dataclass(frozen=True)
class ProgramSegment:
    """One piece of a word program: a word stitched a fixed number of times,
    or repeated as needed to fill the remaining lines (``repeats=None``)."""

    word: BinaryWord
    repeats: Optional[int] = None

    def __post_init__(self):
        if self.repeats is not None and self.repeats < 1:
            raise ValueError("segment repeat count must be >= 1")

    @property
    def is_fill(self) -> bool:
        return self.repeats is None


@dataclass(frozen=True)
class WordProgram:
    """An ordered recipe producing one phase bit per stitch line.

    A program with no segments stands for a missing family of lines (the
    empty-word side of patterns that stitch only one direction).  At most one
    fill segment is allowed and it must come last.
    """

    segments: tuple[ProgramSegment, ...] = ()

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        fills = [i for i, s in enumerate(segs) if s.is_fill]
        if len(fills) > 1:
            raise ValueError("at most one fill segment is allowed")
        if fills and fills[0] != len(segs) - 1:
            raise ValueError("the fill segment must come last")

    @classmethod
    def fill(cls, word: BinaryWord | str) -> "WordProgram":
        """A program that repeats one word for as many lines as needed."""
        if isinstance(word, str):
            word = BinaryWord(word)
        return cls((ProgramSegment(word),))

    @classmethod
    def parse(cls, text: str) -> "WordProgram":
        """Parse ``word[:count]`` segments separated by commas.

        A bare word is a fill segment; the empty string is the empty program.
        Examples: ``"01"``, ``"1001100110:1"``, ``"01:3,10"``.
        """
        if text == "":
            return cls()
        segments = []
        for token in text.split(","):
            word_text, sep, count = token.partition(":")
            word = BinaryWord(word_text)
            if sep:
                try:
                    repeats = int(count)
                except ValueError:
                    raise ValueError(f"bad repeat count {count!r}") from None
                segments.append(ProgramSegment(word, repeats))
            else:
                segments.append(ProgramSegment(word))
        return cls(tuple(segments))

    def to_text(self) -> str:
        return ",".join(
            str(s.word) if s.is_fill else f"{s.word}:{s.repeats}"
            for s in self.segments
        )

    @property
    def is_empty(self) -> bool:
        return not self.segments


@dataclass(frozen=True)
class PatternSpec:
    """A named pattern: two word programs plus a window size in cells."""

    name: str
    row_program: WordProgram
    col_program: WordProgram
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("window must be at least 1x1 cells")

    def to_dict(self) -> dict:
        def prog(p: WordProgram) -> list[dict]:
            return [
                {"word": str(s.word),
                 "repeats": "fill" if s.is_fill else s.repeats}
                for s in p.segments
            ]

        return {
            "name": self.name,
            "rows": prog(self.row_program),
            "cols": prog(self.col_program),
            "width": self.width,
            "height": self.height,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PatternSpec":
        """Inverse of to_dict; ValueError for a wrongly typed field."""
        def count(value, field: str) -> int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{field} must be an integer")
            return value

        def prog(entries: list[dict], field: str) -> WordProgram:
            if not (isinstance(entries, list)
                    and all(isinstance(e, dict) for e in entries)):
                raise ValueError(f"{field} must be a list of objects")
            segs = []
            for e in entries:
                if not isinstance(e["word"], str):
                    raise ValueError("word must be a string")
                reps = e["repeats"]
                reps = None if reps == "fill" else count(reps, "repeats")
                segs.append(ProgramSegment(BinaryWord(e["word"]), reps))
            return WordProgram(tuple(segs))

        return cls(
            name=data["name"],
            row_program=prog(data["rows"], "rows"),
            col_program=prog(data["cols"], "cols"),
            width=count(data["width"], "width"),
            height=count(data["height"], "height"),
        )


def expand_program(program: WordProgram, count: int) -> tuple[int, ...]:
    """Emit exactly ``count`` phase bits from a program.

    Fixed segments are consumed in order (a final overshoot is truncated);
    the fill segment repeats its word, truncated, to reach ``count``.
    Raises ValueError("program underflow") when the program runs out early
    and ValueError("empty fill word") for a zero-length fill word.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    for seg in program.segments:
        if seg.is_fill and len(seg.word) == 0:
            raise ValueError("empty fill word")
    out: list[int] = []
    for seg in program.segments:
        if len(out) >= count:
            break
        if seg.is_fill:
            while len(out) < count:
                out.extend(seg.word.bits)
        else:
            for _ in range(seg.repeats):
                out.extend(seg.word.bits)
                if len(out) >= count:
                    break
    if len(out) < count:
        raise ValueError("program underflow")
    return tuple(out[:count])


@dataclass(frozen=True)
class StitchGrid:
    """An immutable W x H stitch grid with per-line phase bits.

    ``row_bits`` holds H+1 bits for the horizontal lines y = 0..H read
    bottom-up; ``col_bits`` holds W+1 bits for the vertical lines x = 0..W
    read left-to-right.  ``None`` on either side means that family of lines
    is not stitched at all.
    """

    width: int
    height: int
    row_bits: Optional[tuple[int, ...]] = None
    col_bits: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must be at least 1x1 cells")
        if self.row_bits is not None:
            object.__setattr__(self, "row_bits", tuple(self.row_bits))
            if len(self.row_bits) != self.height + 1:
                raise ValueError("row_bits must hold height+1 bits")
        if self.col_bits is not None:
            object.__setattr__(self, "col_bits", tuple(self.col_bits))
            if len(self.col_bits) != self.width + 1:
                raise ValueError("col_bits must hold width+1 bits")

    def horizontal_present(self, x: int, y: int) -> bool:
        """Is the segment from (x, y) to (x+1, y) stitched?"""
        if not (0 <= x < self.width and 0 <= y <= self.height):
            raise IndexError("out of bounds")
        return self.row_bits is not None and (x + self.row_bits[y]) % 2 == 1

    def vertical_present(self, x: int, y: int) -> bool:
        """Is the segment from (x, y) to (x, y+1) stitched?"""
        if not (0 <= x <= self.width and 0 <= y < self.height):
            raise IndexError("out of bounds")
        return self.col_bits is not None and (y + self.col_bits[x]) % 2 == 1

    def segments(self) -> Iterator[Segment]:
        """All present segments, horizontals first, in reading order."""
        if self.row_bits is not None:
            for y in range(self.height + 1):
                for x in range(self.width):
                    if (x + self.row_bits[y]) % 2 == 1:
                        yield ((x, y), (x + 1, y))
        if self.col_bits is not None:
            for x in range(self.width + 1):
                for y in range(self.height):
                    if (y + self.col_bits[x]) % 2 == 1:
                        yield ((x, y), (x, y + 1))

    def segment_count(self) -> int:
        """Present segments: a line of n unit steps and phase bit b has
        (n + b % 2) // 2 of them."""
        return (sum((self.width + b % 2) // 2 for b in self.row_bits or ())
                + sum((self.height + b % 2) // 2 for b in self.col_bits or ()))

    def dual(self) -> "StitchGrid":
        """The pattern on the reverse of the fabric: all phase bits flipped."""
        def flip(bits):
            return None if bits is None else tuple(1 - b for b in bits)

        return StitchGrid(self.width, self.height,
                          flip(self.row_bits), flip(self.col_bits))

    def vertex_degree(self, x: int, y: int) -> int:
        """Number of present segments meeting the lattice point (x, y)."""
        if not (0 <= x <= self.width and 0 <= y <= self.height):
            raise IndexError("out of bounds")
        degree = 0
        if x > 0 and self.horizontal_present(x - 1, y):
            degree += 1
        if x < self.width and self.horizontal_present(x, y):
            degree += 1
        if y > 0 and self.vertical_present(x, y - 1):
            degree += 1
        if y < self.height and self.vertical_present(x, y):
            degree += 1
        return degree

    def is_fully_packed(self) -> bool:
        """True when every strictly interior vertex has degree exactly 2."""
        return all(
            self.vertex_degree(x, y) == 2
            for x in range(1, self.width)
            for y in range(1, self.height)
        )


def build_grid(spec: PatternSpec) -> StitchGrid:
    """Expand a pattern spec into a stitch grid.

    An empty program on either side yields no stitch lines on that side.
    """
    row_bits = (None if spec.row_program.is_empty
                else expand_program(spec.row_program, spec.height + 1))
    col_bits = (None if spec.col_program.is_empty
                else expand_program(spec.col_program, spec.width + 1))
    return StitchGrid(spec.width, spec.height, row_bits, col_bits)


def is_self_dual(row_word: BinaryWord,
                 col_word: BinaryWord) -> Optional[tuple[int, int]]:
    """Find a translation mapping the bi-infinite pattern onto its dual.

    Both words are extended periodically.  Returns the first shift
    (dx, dy) with 0 <= dx < 2|col_word| and 0 <= dy < 2|row_word| such that
    flipping all phase bits equals translating the pattern by (dx, dy), or
    None when no such shift exists.  A one-cell translation flips the
    effective phase parity, which is why two word periods are searched.

    One of the words may be empty (a single family of lines); its side of
    the condition is vacuous.  Both empty is an error.
    """
    row = row_word.bits
    col = col_word.bits
    if not row and not col:
        raise ValueError("empty encoding")

    # The row condition depends only on dy and the parity of dx, the column
    # condition only on dx and the parity of dy, so each axis is solved
    # once per parity.
    dys = [set(_dual_shifts(row, p)) for p in (0, 1)]  # by dx % 2
    dxs = [_dual_shifts(col, q) for q in (0, 1)]  # by dy % 2
    least_dx = [[min((dx for dx in dxs[q] if dx % 2 == p), default=None)
                 for p in (0, 1)] for q in (0, 1)]
    for dy in range(2 * len(row)) if row else range(2):
        fits = [dx for p, dx in enumerate(least_dx[dy % 2])
                if dx is not None and dy in dys[p]]
        if fits:
            return (min(fits), dy)
    return None


def _dual_shifts(bits: tuple[int, ...], parity: int) -> list[int]:
    """Shifts d in 0..2|bits|-1, ascending, with bits[(i + d) % |bits|] ==
    (1 - bits[i]) ^ parity for every i; both of 0, 1 for no bits."""
    n = len(bits)
    if not n:
        return [0, 1]
    target = tuple((1 - b) ^ parity for b in bits)
    found = [d for d in range(n) if bits[d:] + bits[:d] == target]
    return found + [d + n for d in found]
