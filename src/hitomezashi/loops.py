"""Loop extraction and analysis on stitch grids.

Present segments form a graph of maximum degree two, so every connected
component is either a simple closed loop or an open path.  Closed loops mark
out polyominoes; this module measures them, classes them up to congruence,
checks the known loop congruences (area 1 mod 4, perimeter 4 mod 8, odd
bounding box) and two-colors the regions a grid cuts the window into.  The
census walk of a window reads each loop's up/right step bits off the phase
bits; loops with equal step bits are translates, so a window measures and
classes each distinct step sequence once, from its step bits alone: the
perimeter, shoelace area and box by prefix sums, the class by the least
rotation of its turn word (_entry).  A loop's turn word fixes it up to
rotation, reflection and translation, so it fixes the congruence class of
its fill.  Only the head of the ranking is built as a LatticeCycle and
filled (largest_loop); analyze_grid fills no loop.

One census rule finds the loops of a window (_window_loops) and of the
torus (_eighth_census).  Every line's stitching is fixed by its phase bit
and every vertex meets one horizontal and one vertical stitch, so a walk
alternates between the two families, reads each step off a parity, and
has to mark only its vertical stitches.  Each unmarked vertical stitch is
walked from its lower end, heading up, in (x, y) order, marking vertical
stitches until the next one is marked.  A loop's stitches stay unmarked
until its first walk, which goes all the way round: a walk that stops
back on its start has traced a closed loop, and any other walk is a piece
of a path that is not closed, and is skipped.  In a window the stitches
past the ends of the column lines and the columns just outside it are
marked, so a walk stops where its path leaves the window, and a loop is
first met at its least vertex.  On the torus every cycle through E (below)
is a closed loop, so a walk stops only back on its start, and marks are
kept only for the stitches a walk can start from (_eighth_census).

A window whose column bits have an even period L < W is walked only from
its starts in columns 0..L-1 (the strip rule).  A shift by L maps vertical
stitches onto vertical stitches, as the column bits repeat, and, L being
even, horizontal onto horizontal, whatever the rows are.  Columns 0..L-1
are a prefix of the census scan order, so their walks find exactly the
loops with least vertex in them.  A loop with least vertex in column
x >= L shifts left by whole periods, staying inside, onto one in column
x mod L; a loop of width w in column x mod L shifts right onto one in
column x exactly when x + w <= W.  So column x holds the loops of column
x mod L that fit, in the same y order and with the same step bits.

The largest loop of a pattern whose rows and columns repeat one even
palindrome w of length P (the persimmon patterns) is found on the P x P
torus, without a window, from one eighth of it (_torus_largest).  A shift
by P maps every stitch onto a stitch, so the stitches form cycles on the
torus.  Since w[x] = w[P-1-x], P is even and the rows are the columns,
x -> P-1-x, y -> P-1-y and (x, y) -> (y, x) map the stitches onto
themselves and loops onto loops of the same area and perimeter; every
vertex has an image in E = {x <= y < P/2}, so every torus cycle has an
image through E.  The torus has a single largest loop exactly when the
cycles through E hold one of the greatest (area, perimeter) and its vertex
box, taken mod P, is fixed by the three maps.  A single largest loop is
fixed by them.  Any other largest loop would be an image of the one
through E, with the same box; but two distinct loops never share a box: a
loop nested inside another cannot reach the other's box, and two loops
with disjoint insides that both touch all four sides of one box would
cross.

A quarter of the winner's walk shows the same.  Let its perimeter N be 4
mod 8, as every loop's is, and let N/4 steps from its start s end at
rho(s), rho a quarter turn about a centre c with 2c = -1 (mod P) on each
axis and c_x = c_y (mod P).  Then rho is the product, in one order or the
other, of the reflection in the diagonal through c, (x, y) -> (y, x)
shifted by (c_x - c_y)(1, -1), and x -> 2c_x - x: each is one of the
three maps after a shift by whole periods, so rho maps the stitches onto
themselves.  The winner's image under rho is a loop through rho(s), and
every vertex meets exactly two stitches, so it is the winner.  A turn
keeps the direction of travel, so rho takes every vertex N/4 steps on:
the turn word is four copies of the quarter's, and the box is the square
about c whose half side is the quarter's greatest distance from c on
either axis, fixed by the three maps up to whole periods.  rho takes the
first step, up, to the step after the quarter, which runs left when rho
is counterclockwise and right when it is clockwise; so that step picks
rho, and s and rho(s) fix c.  Conversely a single largest loop is fixed by
the three maps, so by the quarter turns about the centre c of its box,
whose corners give both congruences; one of the two turns takes s N/4
steps on, as the half turn about c fixes no vertex.  So the quarter rule
vouches exactly when the box rule does.

Two lemmas let the torus walks read unwrapped coordinates straight from
tables two periods long.  Call the lines x = -1/2 (mod P/2) mirrors: x ->
P-1-x shifted by whole periods reflects the plane in each of them, mapping
the stitches onto themselves.  A mirror crossed by a component maps it
onto itself, as it maps the crossing stitch onto itself; so do the lines
y = -1/2 (mod P/2).
- No cycle is unbounded.  Suppose a cycle moves by (aP, bP) with a != 0.
  It then crosses every mirror x = -1/2 (mod P/2), and two mirrors P/2
  apart make it invariant under (P, 0).  A path cannot be invariant under
  two independent translations, each of which shifts it along itself, so
  b = 0 and the path has bounded height.  Its diagonal swap is then a
  vertical path of the pattern that must cross it, but distinct components
  share no vertex.  The case a = 0 is the same with the axes swapped.
- A loop through E lies in x, y in [-P/2, P).  A bounded loop cannot cross
  two parallel mirrors, because it would then be invariant under a
  translation; a vertex of E has 0 <= x, y < P/2, so the loop crosses at
  most one of the mirrors at -1/2 and P/2 - 1/2 on each axis, and neither
  of the ones beyond them.
So a bounded loop holds no two stitches a whole number of periods apart,
as its shift would share a stitch with it and be it: the walk from a
stitch of E comes back to that stitch, and only there, mod P.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from functools import cached_property
from itertools import accumulate, chain, product, repeat
from operator import index, itemgetter, mul, xor
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .grid import Point, Segment, StitchGrid


def _lattice_points(points: Iterable[Point]) -> Iterator[Point]:
    """The points, refused unless every coordinate is an int or a bool."""
    for x, y in points:
        try:
            yield index(x), index(y)
        except TypeError:
            raise ValueError("coordinates must be integers") from None


class LatticeCycle:
    """A simple closed cycle of unit segments on the integer lattice.

    Vertices are stored in traversal order; the edge back from the last
    vertex to the first is implied.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[Point]):
        verts = tuple(_lattice_points(vertices))
        if len(verts) < 4 or len(verts) % 2 != 0:
            raise ValueError("a lattice cycle needs an even number of edges, at least 4")
        if len(set(verts)) != len(verts):
            raise ValueError("self-intersecting boundary")
        for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
            if abs(x1 - x2) + abs(y1 - y2) != 1:
                raise ValueError("cycle edges must be unit lattice steps")
        self.vertices = verts

    @property
    def perimeter(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[Segment]:
        verts = self.vertices
        return list(zip(verts, verts[1:] + verts[:1]))

    def shoelace_area(self) -> int:
        total = sum(x1 * y2 - x2 * y1
                    for (x1, y1), (x2, y2) in self.edges())
        return abs(total) // 2

    def cell_box(self) -> tuple[int, int]:
        """Width and height in cells of the region inside: the vertex span."""
        xs, ys = zip(*self.vertices)
        return max(xs) - min(xs), max(ys) - min(ys)

    def __repr__(self) -> str:
        return f"LatticeCycle({list(self.vertices)!r})"


_SWAP_TURNS = str.maketrans("LR", "RL")


def congruent_words(a: str, b: str) -> bool:
    """Do two cyclic turn words bound congruent cycles?

    A rotated or translated cycle keeps its word up to a cyclic shift, a
    reflected one swaps L and R, and the reverse traversal reverses the word
    and swaps L and R; so b must occur in a + a as itself, swapped, reversed
    or both.  The words are read as str(a) and str(b), so TurnWords serve.
    """
    a, b = str(a), str(b)
    if len(a) != len(b):
        return False
    doubled = a + a
    swapped = b.translate(_SWAP_TURNS)
    return any(word in doubled for word in (b, swapped, b[::-1], swapped[::-1]))


class Polyomino:
    """An edge-connected set of unit cells; a cell is named by its
    bottom-left corner."""

    def __init__(self, cells: Iterable[Point]):
        cells = frozenset(_lattice_points(cells))
        if not cells:
            raise ValueError("a polyomino needs at least one cell")
        seen = {min(cells)}
        frontier = list(seen)
        while frontier:
            x, y = frontier.pop()
            for nbr in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nbr in cells and nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        if seen != cells:
            raise ValueError("cells must be edge-connected")
        self.cells = cells

    @property
    def area(self) -> int:
        return len(self.cells)

    @property
    def width(self) -> int:
        xs = [x for x, _ in self.cells]
        return max(xs) - min(xs) + 1

    @property
    def height(self) -> int:
        ys = [y for _, y in self.cells]
        return max(ys) - min(ys) + 1

    @cached_property
    def canonical_form(self) -> tuple[Point, ...]:
        """Least translation-normalized image over the 8 lattice symmetries.

        Two polyominoes have equal canonical forms exactly when one can be
        moved onto the other by translation, rotation and reflection.  The
        images come from a generator, so at most two are alive at once.
        """
        def images() -> Iterator[tuple[Point, ...]]:
            for flip in (False, True):
                pts = [(-x, y) if flip else (x, y) for x, y in self.cells]
                for _ in range(4):
                    pts = [(-y, x) for x, y in pts]
                    min_x = min(x for x, _ in pts)
                    min_y = min(y for _, y in pts)
                    yield tuple(sorted((x - min_x, y - min_y)
                                       for x, y in pts))
        return min(images())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polyomino) and other.cells == self.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"Polyomino({sorted(self.cells)!r})"


class LoopStats(NamedTuple):
    perimeter: int
    area: int
    height: int
    width: int


# a loop's sort key, (-area, -perimeter, class word), and its report dict
_Entry = tuple[tuple[int, int, str], dict]


def _window_loops(grid: StitchGrid) -> Iterator[tuple[Point, bytes, _Entry]]:
    """The least vertex, step bits and ranking entry (_entry) of each
    closed loop of a grid, in order of that vertex, by the census rule (see
    the module docstring); none when a family is missing.  A loop leaves
    its least vertex, on its leftmost column, heading up, and its steps
    alternate vertical and horizontal, one byte each: 1 for a step up or
    right, 0 for one down or left.  Loops with equal step bits are
    translates and share one entry, built as the first of them closes.
    Only columns 0..L-1 are walked, L from _strip_width; a column x >= L
    yields the loops of column x mod L whose width fits (the strip rule)."""
    if grid.row_bits is None or grid.col_bits is None:
        return
    W, H = grid.width, grid.height
    rows = grid.row_bits
    # Stitch (x, y)-(x, y+1) is marks[x * VS + y + 1].  The stitches past
    # the ends of every column line are marked, and so is the extra last
    # column, which x = W + 1 and, through negative indices, x = -1 both
    # read: a walk that leaves the window stops there.
    cols = (*grid.col_bits, 0)
    VS = H + 2
    marks = bytearray(VS * (W + 2))
    marks[::VS] = marks[H + 1::VS] = b"\1" * (W + 2)
    marks[-VS:] = b"\1" * VS
    strip = _strip_width(grid.col_bits, W)
    # (y0, steps, entry) by column, kept only for the translates
    found = [[] for _ in range(strip)] if strip < W else None
    shapes: dict[bytes, _Entry] = {}
    for x0 in range(strip):
        for y0 in range(1 - cols[x0], H, 2):
            if marks[x0 * VS + y0 + 1]:
                continue
            x, y, steps = x0, y0, bytearray()
            while True:
                up = (y + cols[x]) & 1
                i = x * VS + y + up
                if marks[i]:
                    break
                marks[i] = 1
                y += up + up - 1
                right = (x + rows[y]) & 1
                x += right + right - 1
                steps.append(up)
                steps.append(right)
            if x == x0 and y == y0:
                steps = bytes(steps)
                entry = shapes.get(steps)
                if entry is None:
                    entry = shapes[steps] = _entry(steps)
                if found is not None:
                    found[x0].append((y0, steps, entry))
                yield (x0, y0), steps, entry
    for x in range(strip, W):
        for y0, steps, entry in found[x % strip]:
            if x + entry[1]["width"] <= W:
                yield (x, y0), steps, entry


def _strip_width(cols: Sequence[int], width: int) -> int:
    """An even period L < width of the column bits, cols[x + L] == cols[x]
    wherever both exist, or width when none is found: the least period p,
    or 2p for odd p, when p is at most about half the n bits (a longer one
    would spare less than half the walk).  The first n // 2 bits then first
    recur at p: a recurrence at q <= p gives the first q + n // 2 bits the
    periods q and p, so gcd(p, q) by Fine and Wilf, a period of all the
    bits, and q = p.  bytes.find takes time linear in n."""
    bits = bytes(cols)
    p = bits.find(bits[:len(bits) // 2], 1)
    even = p << (p & 1)
    return even if 0 < even < width and bits[p:] == bits[:-p] else width


def _trail(grid: StitchGrid, start: Point) -> list[Point]:
    """The vertices of the walk along the stitches of a grid with both
    families that leaves ``start`` to the window edge or back to the start,
    which it does not repeat: every window loop, from its least vertex
    heading up, and every open path, from its lesser end along its one
    stitch.  The walk steps vertically first when the start's vertical
    stitch stays inside the window."""
    W, H = grid.width, grid.height
    rows, cols = grid.row_bits, grid.col_bits
    x, y = start
    vertical = 0 <= y + ((y + cols[x]) & 1) * 2 - 1 <= H
    trail = [start]
    while True:
        if vertical:
            y += ((y + cols[x]) & 1) * 2 - 1
        else:
            x += ((x + rows[y]) & 1) * 2 - 1
        if not (0 <= x <= W and 0 <= y <= H) or (x, y) == start:
            return trail
        trail.append((x, y))
        vertical = not vertical


def _degree(grid: StitchGrid, x: int, y: int) -> int:
    """The stitches at vertex (x, y) of a grid with both families: one of
    each family, unless it leads out of the window."""
    return ((0 < x + ((x + grid.row_bits[y]) & 1) <= grid.width)
            + (0 < y + ((y + grid.col_bits[x]) & 1) <= grid.height))


def extract_components(
    grid: StitchGrid,
) -> tuple[list[LatticeCycle], list[tuple[Point, ...]]]:
    """Closed loops and open paths of a grid; every present segment lands in
    exactly one component.

    Cycles come out in order of their least vertex, each least vertex
    first, heading up, walked by _trail from the starts _window_loops
    yields.  Paths run from their lesser end, in order of that end: with
    both families only a window edge vertex can have one stitch, and each
    path is walked once by _trail from the first of its two such ends in
    (x, y) order.  A grid with one family missing has no loops, and each
    of its stitches is an open path.
    """
    if grid.row_bits is None or grid.col_bits is None:
        return [], sorted(grid.segments())
    W, H = grid.width, grid.height
    cycles = [LatticeCycle(_trail(grid, start))
              for start, _, _ in _window_loops(grid)]
    paths, far_ends = [], set()
    for x in range(W + 1):
        for y in range(H + 1) if x in (0, W) else (0, H):
            if (x, y) not in far_ends and _degree(grid, x, y) == 1:
                trail = _trail(grid, (x, y))
                far_ends.add(trail[-1])
                paths.append(tuple(trail))
    return cycles, paths


def cycle_to_polyomino(cycle: LatticeCycle) -> Polyomino:
    """Cells enclosed by a simple cycle (even-odd rule scanline fill): its
    vertical edges, sorted as (row, x) pairs, pair off consecutively, as
    each row of a simple cycle crosses an even number of them."""
    edges = sorted((min(y1, y2), x1)
                   for (x1, y1), (x2, y2) in cycle.edges() if x1 == x2)
    return Polyomino((x, y) for (y, left), (_, right)
                     in zip(edges[::2], edges[1::2])
                     for x in range(left, right))


def check_loop_theorems(stats: LoopStats) -> dict[str, bool]:
    """Instance checks of the three loop congruences, by name."""
    return {"area_1_mod_4": stats.area % 4 == 1,
            "perimeter_4_mod_8": stats.perimeter % 8 == 4,
            "box_dimensions_odd": stats.width % 2 == 1
                                  and stats.height % 2 == 1}


def _entry(steps: bytes) -> _Entry:
    """The sort key and report dict (stats, class hash and theorem checks)
    of a closed loop, measured (_step_stats) and classed (_class_word) from
    its step bits alone.  analyze_grid ranks by the key, least first: by
    greatest area, then greatest perimeter, then least class word;
    largest_loop takes the first loop with the least key."""
    stats = _step_stats(steps)
    word = _class_word(steps)
    return (-stats.area, -stats.perimeter, word), {
        **stats._asdict(),
        "canonical_hash": hashlib.sha256(word.encode()).hexdigest()[:16],
        "theorems": check_loop_theorems(stats)}


def _step_stats(steps: bytes) -> LoopStats:
    """The stats of a closed loop from its step bits (see _window_loops):
    the perimeter, the shoelace area, the sum of x dy over the vertical
    steps as _eighth_census takes it, and the box, the vertex span on each
    axis, which is the fill's cell span.  Coordinates are taken from the
    start, so translates get the same stats."""
    dys = [up + up - 1 for up in steps[0::2]]
    # xs[i]: the x of vertical step i, after the horizontal steps before it
    xs = list(accumulate((right + right - 1 for right in steps[1::2]),
                         initial=0))
    ys = list(accumulate(dys, initial=0))
    return LoopStats(len(steps), abs(sum(map(mul, xs, dys))),
                     max(ys) - min(ys), max(xs) - min(xs))


def _class_word(steps: bytes) -> str:
    """The congruence class of a closed loop from its step bits: the least
    of the least rotations of its turn word (_turn_word, one letter per
    vertex), of that word with L and R swapped, of its reverse, and of
    both.  Two loops are congruent exactly when their turn words are equal
    up to those changes (see congruent_words), so exactly when their class
    words are equal."""
    word = _turn_word(steps + steps[:1])
    swapped = word.translate(_SWAP_TURNS)
    return min(map(_least_rotation,
                   (word, swapped, word[::-1], swapped[::-1])))


def _least_rotation(word: str) -> str:
    """The least rotation of a word in linear time, as Booth's algorithm
    (K. S. Booth, Inf. Process. Lett. 1980) finds it, here by reading two
    candidate starts i and j side by side from offset k.  Where they first
    differ, at k, each start from the greater candidate up to k past it
    reads a greater rotation than the start the same distance past the
    other, so the greater candidate moves past them all."""
    n = len(word)
    doubled = word + word
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    i = min(i, j)
    return doubled[i:i + n]


def largest_loop(grid: StitchGrid,
                 ) -> Optional[tuple[LatticeCycle, Polyomino, LoopStats]]:
    """The closed loop at the head of analyze_grid's ranking (greatest
    area, then greatest perimeter, then least class word, the first in
    extract_components order on a tie) with its fill and stats, or None
    when the grid has no closed loop.  Every loop is walked once, by the
    census walk, and measured and classed from its step bits (_entry);
    only the head is walked again into a LatticeCycle and filled.  Its
    stats are those analyze_grid reports for it (_step_stats)."""
    head = min(_window_loops(grid), key=lambda loop: loop[2][0], default=None)
    if head is None:
        return None
    cycle = LatticeCycle(_trail(grid, head[0]))
    return cycle, cycle_to_polyomino(cycle), _step_stats(head[1])


def _torus_largest(word: Sequence[int]) -> Optional[tuple[LoopStats, str]]:
    """The stats and the quarter turn word of the largest loop of a window
    two periods wide and two high over the pattern whose phase bits repeat
    ``word`` on both axes, found from one eighth of the torus and a quarter
    of the winner's walk; None when the torus cannot vouch for it.

    The answer is largest_loop's on that window whenever the word is an
    even palindrome, the torus has a single loop of the greatest (area,
    perimeter), and that loop spans at most one period of vertices on each
    axis.  Every loop of the window is a bounded loop of the plane pattern
    and so appears on the torus: the torus best is at least the window's.
    A loop spanning at most a period has a translate by whole periods
    inside the window: the window best is at least the torus's.  With a
    single torus tie every window tie is a translate of it, with its box
    and, up to rotation and direction, its turn word.
    The torus tie is single exactly when the walks from E find one and the
    first quarter of its walk ends at its start turned a quarter about a
    symmetry centre (see the module docstring).  Its turn word is then
    four copies of the quarter's, the letters from the end of its first
    step on, and its box the square about that centre.
    """
    bits = tuple(word)
    p = len(bits)
    if p % 2 or bits != bits[::-1]:
        return None
    (area, perimeter), ties = _eighth_census(bits)
    if len(ties) != 1 or perimeter % 8 != 4:
        return None
    (x0, y0), = ties
    steps, (x, y), (min_x, min_y, max_x, max_y) = _quarter_walk(
        bits, (x0, y0), perimeter // 4)
    # twice the centre of the quarter turn that takes the start to the end,
    # clockwise (turn 1) when the next step runs right
    turn = steps[-1] * 2 - 1
    cx, cy = x + x0 + turn * (y - y0), y + y0 - turn * (x - x0)
    side = max(2 * max_x - cx, cx - 2 * min_x, 2 * max_y - cy, cy - 2 * min_y)
    # 2c_x = -1 (mod P) follows from 2c_y = -1 and c_x = c_y
    if (cy + 1) % p or (cx - cy) % (2 * p) or side > p:
        return None
    return LoopStats(perimeter, area, side, side), _turn_word(steps)


_FLIP_BITS = bytes.maketrans(b"\0\1", b"\1\0")


def _eighth_census(bits: Sequence[int],
                   ) -> tuple[tuple[int, int], list[Point]]:
    """The greatest (shoelace area, perimeter) over the loops through E =
    {x <= y < P/2} of the pattern whose phase bits repeat the even
    palindrome ``bits`` on both axes, P = len(bits), and the start of each
    such torus loop that has it; ((0, 0), []) when no loop passes through E.

    The loops through E are found by the census rule (see the module
    docstring), in unwrapped coordinates, from the vertical stitches that
    touch E only.  A vertex of E meets the stitch above or below it, so in
    column x0 < P/2 the starts are the lower ends x0 - 1 <= y < P/2 of the
    column's parity: one run of marks per column.  By the two lemmas of the
    module docstring every such walk is a loop whose vertices lie in [-P/2,
    P) on both axes, and it reaches its start's stitch again, mod P, only
    on closing.  So every table is two periods long, indexed by the raw
    coordinate (negative indices read the residue), a walk stops on its
    start's mark index, and only marks.find reads the marks.
    """
    p = len(bits)
    half = p // 2
    band = (half + 2) // 2  # the row slots that hold a start
    stride = band + 1       # and one sink slot per column
    # Column x of the torus holds P / 2 vertical stitches, whose lower
    # ends y all have the parity q = 1 - bits[x]; stitch (x, y)-(x, y+1) is
    # mark cols[x] + slots[y + q], which either end of it gives.  Columns
    # x >= P/2 (mod P) share one sink column, and the slots past the band
    # one sink slot per column.
    rows = [*bits] * 2
    qs = [*bytes(rows).translate(_FLIP_BITS)]
    cols = [*range(0, half * stride, stride),
            *repeat(half * stride, p - half)] * 2
    slots = [*chain.from_iterable(zip(range(band), range(band))),
             *repeat(band, p - 2 * band)] * 2
    marks = bytearray((half + 1) * stride)
    best, ties = (0, 0), []
    for x0 in range(half):
        q = qs[x0]
        base = x0 * stride
        stop = base + (half + q + 1) // 2
        start = marks.find(0, base + (x0 + q) // 2, stop)
        while start >= 0:
            y0 = 2 * (start - base) - q
            # the first step is up the start's stitch
            x, y, area, steps = x0, y0 + 1, x0, 2
            while True:
                if (x + rows[y]) & 1:
                    x += 1
                else:
                    x -= 1
                t = y + qs[x]
                i = cols[x] + slots[t]
                if i == start:
                    break
                marks[i] = 1
                if t & 1:
                    y -= 1
                    area -= x
                else:
                    y += 1
                    area += x
                steps += 2
            size = (abs(area), steps)
            if size > best:
                best, ties = size, [(x0, y0)]
            elif size == best:
                ties.append((x0, y0))
            start = marks.find(0, start + 1, stop)
    return best, ties


def _quarter_walk(bits: Sequence[int], start: Point, count: int,
                  ) -> tuple[bytearray, Point, tuple[int, int, int, int]]:
    """The step bits (see _window_loops) of the walk of ``count`` + 1
    steps, ``count`` odd, that leaves ``start`` heading up on the pattern
    whose phase bits repeat the even palindrome ``bits`` on both axes, the
    vertex reached after ``count`` steps, and the box (min x, min y, max x,
    max y) of the vertices the walk passes.  The start is a vertex of a
    loop through E = {x <= y < P/2}, whose vertices lie in [-P/2, P) on
    both axes (see the module docstring), so the bits are read from a table
    two periods long by the raw coordinate."""
    bits = [*bits] * 2
    x, y = start
    min_x = max_x = x
    min_y = max_y = y
    steps = bytearray()
    for _ in range((count + 1) // 2):
        up = (y + bits[x]) & 1
        if up:
            y += 1
            if y > max_y:
                max_y = y
        else:
            y -= 1
            if y < min_y:
                min_y = y
        right = (x + bits[y]) & 1
        if right:
            x += 1
            if x > max_x:
                max_x = x
        else:
            x -= 1
            if x < min_x:
                min_x = x
        steps.append(up)
        steps.append(right)
    return steps, (x - right - right + 1, y), (min_x, min_y, max_x, max_y)


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")
_TURN_LETTERS = str.maketrans("01", "RL")


def _turn_word(steps: bytes) -> str:
    """The turn word of a walk in alternating vertical and horizontal unit
    steps, vertical first: one letter per vertex between two steps, so one
    fewer than the steps; steps[i] is 1 for a step up or right, 0 for one
    down or left.  A closed loop's word, one letter per vertex from the end
    of its first step on, is that of its steps and its first step again.

    Up then right is a right (clockwise) turn: a vertical step v followed by
    a horizontal step h turns R when v == h, and a horizontal step h
    followed by a vertical step v turns L when h == v.  So the letter after
    step i is L exactly when steps[i] ^ steps[i + 1] ^ (i odd) is 1, and the
    word is that XOR of three bit strings (the steps but the last, the
    steps but the first, and 0101...), taken as integers.
    """
    digits = steps.translate(_BIT_DIGITS)
    n = len(steps) - 1
    turns = (int(digits[:-1], 2) ^ int(digits[1:], 2)
             ^ int((b"01" * (n // 2 + 1))[:n], 2))
    return format(turns, f"0{n}b").translate(_TURN_LETTERS)


class ColumnColoring(Mapping):
    """two_color's cell -> color Mapping over one color list per column.

    ``columns[x][y]`` is the color of cell (x, y) for 0 <= x < width and
    0 <= y < height; the columns are at most four distinct lists, shared by
    identity (render_svg, which fills no other coloring, builds one run of
    rects per distinct list).  Any other key is missing, as it would be
    from the equal dict.
    """

    __slots__ = ("columns", "width", "height")

    def __init__(self, columns: Sequence[Sequence[int]], width: int,
                 height: int):
        self.columns, self.width, self.height = columns, width, height

    def __getitem__(self, cell: Point) -> int:
        try:
            x, y = cell
            if 0 <= x < self.width and 0 <= y < self.height:
                return self.columns[x][y]
        except (TypeError, ValueError):
            pass
        raise KeyError(cell)

    def __iter__(self) -> Iterator[Point]:
        return product(range(self.width), range(self.height))

    def __len__(self) -> int:
        return self.width * self.height


def two_color(grid: StitchGrid) -> ColumnColoring:
    """Assign 0/1 to every window cell so that distinct regions separated by
    a present stitch get different colors; cell (0, 0) gets 0.  The result
    is a read-only Mapping from cell to color whose keys iterate in sorted
    (x, y) order: column by column, bottom up.  Call dict() on it for a
    mutable copy.

    With both families every interior vertex has degree 2, so a cell's color
    is the parity of the stitches crossed on a path from (0, 0), which is
    ry[y] ^ cx[x] ^ (x & y & 1) for the prefix parities ry, cx of the phase
    bits.  With one family the window is one region unless it is one cell
    wide across the lines, where each stitch cuts the strip.  It is the
    only coloring render_svg fills.  The rule is symmetric in the axes, so
    the columns of the transposed grid are the rows.
    """
    W, H = grid.width, grid.height
    rows, cols = grid.row_bits, grid.col_bits
    both = rows is not None and cols is not None
    ry = (list(accumulate(rows[1:H], xor, initial=0))
          if rows and (both or W == 1) else [0] * H)
    cx = (list(accumulate(cols[1:W], xor, initial=0))
          if cols and (both or H == 1) else [0] * W)
    odd = [c ^ (y & 1) for y, c in enumerate(ry)]
    columns = (ry, [c ^ 1 for c in ry], odd, [c ^ 1 for c in odd])
    return ColumnColoring([columns[c | (x & both) << 1]
                           for x, c in enumerate(cx)], W, H)


def analyze_grid(grid: StitchGrid) -> dict:
    """Structured loop report: per-loop stats with theorem checks, the open
    path count, and the two-coloring as a bottom-up cell matrix.

    Loops rank by their sort key from _entry, equal keys in
    extract_components order; largest_loop returns the head of this
    ranking.  Each loop's stats and class come from its step bits, so no
    loop is filled.  Its canonical_hash is the first 16 hex digits of the
    sha256 of its class word (_class_word), the least rotation of its turn
    word up to L/R swap and reversal: equal exactly for congruent loops.
    No open path is walked: they are counted from the window's vertices,
    stitches and bare corners.

    The report is read-only: loops with equal step bits, translates of
    one another, are one shared dict, theorems included, built once by
    _window_loops, and the two-coloring's rows are at most four shared
    lists, two_color's columns of the transposed grid.  Sharing stays
    within one report, as every call builds new objects; copy.deepcopy
    gives a mutable copy.
    """
    loops_report = [loop for _, loop in sorted(
        map(itemgetter(2), _window_loops(grid)), key=itemgetter(0))]
    W, H = grid.width, grid.height
    segments = grid.segment_count()
    if grid.row_bits is None or grid.col_bits is None:
        open_paths = segments
    else:
        # A vertex meets at most one stitch of each family, so every
        # component is a loop, with as many vertices as stitches, an open
        # path, with one more, or a bare vertex, which only a corner can be.
        bare = sum(_degree(grid, x, y) == 0 for x in (0, W) for y in (0, H))
        open_paths = (W + 1) * (H + 1) - bare - segments
    return {
        "width": W,
        "height": H,
        "segment_count": segments,
        "loops": loops_report,
        "open_path_count": open_paths,
        "theorems_all_hold": all(
            all(loop["theorems"].values())
            for loop in {id(loop): loop for loop in loops_report}.values()),
        "two_coloring": two_color(
            StitchGrid(H, W, grid.col_bits, grid.row_bits)).columns,
    }
