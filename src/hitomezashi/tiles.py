"""Snowflake tiles traced from turn words, and the persimmon patterns that
contain them.

The order-n snowflake polyomino is enclosed by four copies of the turn word
of index 3(n-1)+1 (order 1 is the unit square).  The order-n persimmon
pattern stitches both directions with the word pell_word(n) followed by its
reversal; its largest closed loop is conjectured to be the order-n snowflake,
which verify_conjecture checks by comparing the loop's cyclic turn word with
the snowflake's boundary word up to rotation, reversal and complement.
"""

from __future__ import annotations

from .grid import PatternSpec, WordProgram, build_grid
from .loops import (LatticeCycle, Polyomino, congruent_words,
                    cycle_to_polyomino, largest_loop)
from .words import TurnWord, fib_turtle_word, pell, pell_word

# heading turns: L is a counterclockwise quarter turn, R clockwise
_LEFT = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}
_RIGHT = {v: k for k, v in _LEFT.items()}


def trace_turtle(word: TurnWord) -> LatticeCycle:
    """Trace a turn word from the origin heading +x: each letter draws one
    unit segment, then turns.

    The path must return to the origin (ValueError "open boundary") without
    revisiting any vertex (ValueError "self-intersecting boundary").
    """
    if len(word) == 0:
        raise ValueError("empty boundary word")
    x = y = 0
    heading = (1, 0)
    points = [(0, 0)]
    for letter in word:
        x += heading[0]
        y += heading[1]
        points.append((x, y))
        heading = _LEFT[heading] if letter == "L" else _RIGHT[heading]
    if points[-1] != (0, 0):
        raise ValueError("open boundary")
    points.pop()
    if len(set(points)) != len(points):
        raise ValueError("self-intersecting boundary")
    return LatticeCycle(points)


def snowflake_boundary(order: int) -> TurnWord:
    """Boundary word of the order-n snowflake: four copies of the turn word
    of index 3(n-1)+1."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return fib_turtle_word(3 * (order - 1) + 1).repeat(4)


def snowflake_cycle(order: int) -> LatticeCycle:
    return trace_turtle(snowflake_boundary(order))


def snowflake(order: int) -> Polyomino:
    """The order-n snowflake tile.  Its area is pell(2n-1) and its traced
    perimeter is four times the boundary turn-word quarter length."""
    return cycle_to_polyomino(snowflake_cycle(order))


def snowflake_width_check(order: int) -> bool:
    """Does the snowflake's width in boundary stitches (cell width plus one)
    equal twice pell(order)?"""
    return snowflake(order).width + 1 == 2 * pell(order)


def persimmon_word(order: int):
    """Line encoding of the order-n persimmon pattern: pell_word(n) followed
    by its reversal; length 2*pell(n)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    word = pell_word(order)
    return word + word.reverse()


def persimmon_spec(order: int, periods: int = 2) -> PatternSpec:
    """Pattern spec for the order-n persimmon on a square window of
    ``periods`` word periods per axis."""
    if periods < 1:
        raise ValueError("periods must be >= 1")
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
    """Structured comparison of the order-n persimmon's largest loop with
    the order-n snowflake tile."""
    spec = persimmon_spec(order, periods=2)
    best = largest_loop(build_grid(spec))
    if best is None:
        raise ValueError("window too small")
    cycle, _, stats = best
    tile = snowflake_cycle(order)
    return {
        "order": order,
        "window": [spec.width, spec.height],
        "largest_loop": {
            "perimeter": stats.perimeter,
            "area": stats.area,
            "height": stats.height,
            "width": stats.width,
        },
        "snowflake": {
            "perimeter": tile.perimeter,
            "area": tile.shoelace_area(),
        },
        "match": congruent_words(cycle.turn_word(),
                                 str(snowflake_boundary(order))),
    }
