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

from .words import BinaryWord, _count

Point = tuple[int, int]
Segment = tuple[Point, Point]


def _sizes(box, what: str) -> None:
    """Store box's width and height as ints of at least 1x1 cells."""
    for s in ("width", "height"):
        object.__setattr__(box, s, _count(f"{what} {s}", getattr(box, s), None))
    if min(box.width, box.height) < 1:
        raise ValueError(f"{what} must be at least 1x1 cells")


@dataclass(frozen=True)
class ProgramSegment:
    """One piece of a word program: a word stitched a fixed number of times,
    or repeated as needed to fill the remaining lines (``repeats=None``)."""

    word: BinaryWord
    repeats: Optional[int] = None

    def __post_init__(self):
        if self.repeats is not None:
            object.__setattr__(self, "repeats", _count("segment repeat count",
                                                       self.repeats))

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
        if fills and len(segs[-1].word) == 0:
            raise ValueError("empty fill word")

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
                # ASCII decimal digits only, as int() would also take
                # "3_0", " 3", "+3" and non-ASCII digits; a leading "-"
                # reaches ProgramSegment's ">= 1" check
                digits = count.removeprefix("-")
                try:
                    if not (digits.isascii() and digits.isdigit()):
                        raise ValueError
                    repeats = int(count)  # too many digits: ValueError
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


# Largest window a spec may ask for.  It admits windows that some commands
# cannot serve in memory: at 2000**2 cells a child process peaked at 766 MiB
# for `render --svg --fill` (measured 2026-10, for a 474 MiB document),
# linear in the cells (ROADMAP, "Bounded memory"), and at 27 MiB for
# `analyze --json` on two short words.  The conjecture check builds no window.
MAX_CELLS = 10 ** 8


@dataclass(frozen=True)
class PatternSpec:
    """A named pattern: two word programs plus a window of at most
    MAX_CELLS cells."""

    name: str
    row_program: WordProgram
    col_program: WordProgram
    width: int
    height: int

    def __post_init__(self):
        _sizes(self, "window")
        if self.width * self.height > MAX_CELLS:
            raise ValueError(f"window of {self.width}x{self.height} cells "
                             f"exceeds {MAX_CELLS} cells")

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


def expand_program(program: WordProgram, count: int) -> tuple[int, ...]:
    """Emit exactly ``count`` phase bits from a program.

    Fixed segments are consumed in order (a final overshoot is truncated);
    the fill segment repeats its word, truncated, to reach ``count``.
    Raises ValueError("program underflow") when the program runs out early.
    """
    count = _count("count", count)
    out: list[int] = []
    for seg in program.segments:
        if seg.word.bits and len(out) < count:
            need = -(-(count - len(out)) // len(seg.word))  # ceiling division
            out += seg.word.bits * (need if seg.is_fill
                                    else min(seg.repeats, need))
    if len(out) < count:
        raise ValueError("program underflow")
    return tuple(out[:count])


@dataclass(frozen=True)
class StitchGrid:
    """An immutable W x H stitch grid with per-line phase bits.

    ``row_bits`` holds H+1 bits for the horizontal lines y = 0..H read
    bottom-up; ``col_bits`` holds W+1 bits for the vertical lines x = 0..W
    read left-to-right.  ``None`` on either side means that family of lines
    is not stitched at all.  A phase bit is the integer 0 or 1 (else
    ValueError; True and False serve), stored as an int.
    """

    width: int
    height: int
    row_bits: Optional[tuple[int, ...]] = None
    col_bits: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        _sizes(self, "grid")
        for name, side in (("row_bits", "height"), ("col_bits", "width")):
            bits = getattr(self, name)
            if bits is not None:
                try:
                    bits = bytes(tuple(bits))
                except (TypeError, ValueError):  # not integers in 0..255
                    bits = b"\2"  # which the check below refuses
                if bits.translate(None, b"\0\1"):
                    raise ValueError("phase bits must be 0 or 1")
                if len(bits) != getattr(self, side) + 1:
                    raise ValueError(f"{name} must hold {side}+1 bits")
                object.__setattr__(self, name, tuple(bits))

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
        (n + b) // 2 of them."""
        return (sum((self.width + b) // 2 for b in self.row_bits or ())
                + sum((self.height + b) // 2 for b in self.col_bits or ()))

    def dual(self) -> "StitchGrid":
        """The pattern on the reverse of the fabric: all phase bits flipped."""
        def flip(bits):
            return None if bits is None else tuple(1 - b for b in bits)

        return StitchGrid(self.width, self.height,
                          flip(self.row_bits), flip(self.col_bits))


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
    # once per parity.  Shifts that fit differ by periods of the word, so the
    # first two in dxs[q] are the least dx of each parity in it.
    dys = [set(_dual_shifts(row, p)) for p in (0, 1)]  # by dx % 2
    dxs = [_dual_shifts(col, q) for q in (0, 1)]  # by dy % 2
    for dy in range(2 * len(row)) if row else range(2):
        for dx in dxs[dy % 2][:2]:
            if dy in dys[dx % 2]:
                return (dx, dy)
    return None


def _dual_shifts(bits: tuple[int, ...], parity: int) -> list[int]:
    """Shifts d in 0..2|bits|-1, ascending, with bits[(i + d) % |bits|] ==
    (1 - bits[i]) ^ parity for every i; both of 0, 1 for no bits.

    The rotation by d is the target exactly when the target occurs at d in
    bits + bits.  Two rotations equal the target exactly when they differ
    by a multiple of the word's least rotation period, the first d > 0 at
    which the word occurs in itself doubled; so the fits run from the
    first by that period.
    """
    n = len(bits)
    if not n:
        return [0, 1]
    word = bytes(bits)
    target = bytes((1 - b) ^ parity for b in bits)
    first = (word + word[:-1]).find(target)
    if first < 0:
        return []
    found = range(first, n, (word + word).find(word, 1))
    return [*found, *(d + n for d in found)]
