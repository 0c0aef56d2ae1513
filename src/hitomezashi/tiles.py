"""Snowflake tiles traced from turn words, and the persimmon patterns that
contain them.

The order-n snowflake polyomino is enclosed by four copies of the turn word
of index 3(n-1)+1 (order 1 is the unit square).  The order-n persimmon
pattern stitches both directions with the word pell_word(n) followed by its
reversal; its largest closed loop is conjectured to be the order-n snowflake,
which verify_conjecture checks by comparing the loop's cyclic turn word with
the snowflake's boundary word up to rotation, reversal and complement.

The loop is that of a window of two word periods per axis, but it is found
from one eighth of the P x P torus, P = 2*pell(n), without building the
window: the persimmon word is an even palindrome used on both axes, so the
pattern's symmetries carry every torus loop through that eighth (see
loops).  When the torus cannot vouch for the window's largest loop,
conjecture_report raises ValueError instead of searching the window.

The loop and the tile are compared a quarter at a time.  The torus vouches
for a loop that a quarter turn fixes, so its turn word is four copies of
a quarter word Q, as the tile's is of S; and congruent_words(Q * 4, S * 4)
equals congruent_words(Q, S) for equal lengths, because a rotation of a
word's fourth power is the fourth power of a rotation.  On a match the
tile's area is the loop's, since congruent turn words trace congruent
loops; otherwise the tile's whole boundary is traced, which checks that it
is simple, and its area read off the trace.
"""

from __future__ import annotations

from .grid import PatternSpec, WordProgram
from .loops import (LatticeCycle, Polyomino, _torus_largest, congruent_words,
                    cycle_to_polyomino,
                    largest_loop)  # largest_loop is re-exported
from .words import TurnWord, _count, fib_turtle_word, pell_word


def trace_turtle(word: TurnWord) -> LatticeCycle:
    """Trace a turn word from the origin heading +x: each letter draws one
    unit segment, then turns the heading (dx, dy) a quarter counterclockwise
    to (-dy, dx) for L, or clockwise to (dy, -dx) for R.

    The path must close at the origin heading +x (ValueError "open
    boundary"), revisiting no vertex (ValueError "self-intersecting boundary").
    """
    if len(word) == 0:
        raise ValueError("empty boundary word")
    x = y = 0
    dx, dy = 1, 0
    points = [(0, 0)]
    for letter in str(word):
        x += dx
        y += dy
        points.append((x, y))
        dx, dy = (-dy, dx) if letter == "L" else (dy, -dx)
    if points.pop() != (0, 0) or (dx, dy) != (1, 0):
        raise ValueError("open boundary")
    return LatticeCycle(points)


def _snowflake_quarter(order: int) -> TurnWord:
    """The turn word of index 3(n-1)+1: a quarter of the order-n snowflake's
    boundary."""
    return fib_turtle_word(3 * (_count("order", order) - 1) + 1)


def snowflake_boundary(order: int) -> TurnWord:
    """Boundary word of the order-n snowflake: four copies of the turn word
    of index 3(n-1)+1."""
    return _snowflake_quarter(order).repeat(4)


def snowflake_cycle(order: int) -> LatticeCycle:
    return trace_turtle(snowflake_boundary(order))


def snowflake(order: int) -> Polyomino:
    """The order-n snowflake tile.  Its area is pell(2n-1) and its traced
    perimeter is four times the boundary turn-word quarter length."""
    return cycle_to_polyomino(snowflake_cycle(order))


def persimmon_word(order: int):
    """Line encoding of the order-n persimmon pattern: pell_word(n) followed
    by its reversal; length 2*pell(n)."""
    word = pell_word(_count("order", order))
    return word + word.reverse()


def persimmon_spec(order: int, periods: int = 2) -> PatternSpec:
    """Pattern spec for the order-n persimmon on a square window of
    ``periods`` word periods per axis."""
    periods, order = _count("periods", periods), _count("order", order)
    word = persimmon_word(order)
    size = periods * len(word)
    program = WordProgram.fill(word)
    return PatternSpec(
        name=f"pell-persimmon-{order}",
        row_program=program,
        col_program=program,
        width=size,
        height=size,
    )


def verify_conjecture(order: int) -> bool:
    """Check that the largest closed loop of the order-n persimmon pattern
    (two periods per axis, so the loop sits strictly inside the window) is
    the order-n snowflake, up to translation, rotation and reflection."""
    return conjecture_report(order)["match"]


def conjecture_report(order: int) -> dict:
    """Structured comparison of the order-n persimmon's largest loop, in a
    window of two word periods per axis, with the order-n snowflake tile.

    The loop is measured, not filled, and found from the loops through one
    eighth of the P x P torus, P the word's length, and a quarter of the
    winner's walk (see loops and loops._torus_largest).  They vouch for the
    window's largest loop when one of them is the single largest torus
    loop, which a quarter turn about a symmetry centre of the pattern
    shows, and spans at most P vertices per axis.  Every condition is
    checked on every call; when one fails, the report raises ValueError
    rather than search the window.  The loop's quarter turn word is
    compared with a quarter of the tile's boundary (see the module
    docstring).  On a match the tile's area is the loop's; otherwise the
    whole boundary is traced as a cycle, which checks that it is simple,
    and its shoelace area taken.
    """
    word = persimmon_word(order)
    bits = word.bits
    largest = _torus_largest(bits)
    if largest is None:
        raise ValueError(f"order {order}: the torus census cannot vouch for "
                         "the largest loop")
    stats, turns = largest
    quarter = _snowflake_quarter(order)
    match = congruent_words(turns, str(quarter))
    return {
        "order": _count("order", order),
        "window": [2 * len(word)] * 2,
        "largest_loop": stats._asdict(),
        "snowflake": {
            "perimeter": 4 * len(quarter),
            "area": (stats.area if match
                     else trace_turtle(quarter.repeat(4)).shoelace_area()),
        },
        "match": match,
    }
