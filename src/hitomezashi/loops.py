"""Loop extraction and analysis on stitch grids.

Present segments form a graph of maximum degree two, so every connected
component is either a simple closed loop or an open path.  Closed loops mark
out polyominoes; this module fills them, measures them, compares them by
their cyclic turn words, checks the known loop congruences (area 1 mod 4,
perimeter 4 mod 8, odd bounding box) and two-colors the regions a grid cuts
the window into.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence

from .grid import Point, Segment, StitchGrid


class LatticeCycle:
    """A simple closed cycle of unit segments on the integer lattice.

    Vertices are stored in traversal order; the edge back from the last
    vertex to the first is implied.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[Point]):
        verts = tuple((int(x), int(y)) for x, y in vertices)
        if len(verts) < 4 or len(verts) % 2 != 0:
            raise ValueError("a lattice cycle needs an even number of edges, at least 4")
        if len(set(verts)) != len(verts):
            raise ValueError("self-intersecting")
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

    def turn_word(self) -> str:
        """One letter per vertex, in traversal order: L for a left
        (counterclockwise) quarter turn, R for a right one, S for a straight
        step.  Traced hitomezashi loops turn at every vertex."""
        verts = self.vertices
        letters = []
        for (x0, y0), (x1, y1), (x2, y2) in zip(verts[-1:] + verts[:-1],
                                                verts, verts[1:] + verts[:1]):
            cross = (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1)
            letters.append("L" if cross > 0 else "R" if cross < 0 else "S")
        return "".join(letters)

    def normalized(self) -> "LatticeCycle":
        """Rotate/orient so the smallest vertex comes first, then its
        smaller neighbour; gives a deterministic representative."""
        verts = list(self.vertices)
        i = verts.index(min(verts))
        verts = verts[i:] + verts[:i]
        if verts[-1] < verts[1]:
            verts = [verts[0]] + verts[:0:-1]
        return LatticeCycle(verts)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LatticeCycle)
                and self.normalized().vertices == other.normalized().vertices)

    def __hash__(self) -> int:
        return hash(self.normalized().vertices)

    def __repr__(self) -> str:
        return f"LatticeCycle({list(self.vertices)!r})"


_SWAP_TURNS = str.maketrans("LR", "RL")


def congruent_words(a: str, b: str) -> bool:
    """Do two cyclic turn words bound congruent cycles?

    A rotated or translated cycle keeps its word up to a cyclic shift, a
    reflected one swaps L and R, and the reverse traversal reverses the word
    and swaps L and R; so b must occur in a + a as itself, swapped, reversed
    or both.
    """
    if len(a) != len(b):
        return False
    doubled = a + a
    swapped = b.translate(_SWAP_TURNS)
    return any(word in doubled for word in (b, swapped, b[::-1], swapped[::-1]))


class Polyomino:
    """An edge-connected set of unit cells; a cell is named by its
    bottom-left corner."""

    def __init__(self, cells: Iterable[Point]):
        cells = frozenset((int(x), int(y)) for x, y in cells)
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
        moved onto the other by translation, rotation and reflection.
        """
        images = []
        for flip in (False, True):
            pts = [(-x, y) if flip else (x, y) for x, y in self.cells]
            for _ in range(4):
                pts = [(-y, x) for x, y in pts]
                min_x = min(x for x, _ in pts)
                min_y = min(y for _, y in pts)
                images.append(tuple(sorted((x - min_x, y - min_y)
                                           for x, y in pts)))
        return min(images)

    def canonical_hash(self) -> str:
        digest = hashlib.sha256(repr(self.canonical_form).encode())
        return digest.hexdigest()[:16]

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


class TheoremReport(NamedTuple):
    """Instance checks of the three loop congruences."""

    area_1_mod_4: bool
    perimeter_4_mod_8: bool
    box_dimensions_odd: bool

    @property
    def all_hold(self) -> bool:
        return self.area_1_mod_4 and self.perimeter_4_mod_8 and self.box_dimensions_odd


def extract_components(
    grid: StitchGrid,
) -> tuple[list[LatticeCycle], list[tuple[Point, ...]]]:
    """Closed loops and open paths of a grid; every present segment lands in
    exactly one component.

    A vertex meets at most one horizontal and one vertical stitch, and the
    phase bit of each line says on which side, so a trace alternates between
    the two families and reads each step off a parity.  Paths run from their
    lesser end, in order of that end; cycles start at their least vertex
    heading up (the normalized() order) and come out sorted.
    """
    W, H = grid.width, grid.height
    rows, cols = grid.row_bits, grid.col_bits
    h_seen = bytearray(W * (H + 1))  # stitch (x, y)-(x+1, y) at y*W + x
    v_seen = bytearray((W + 1) * H)  # stitch (x, y)-(x, y+1) at x*H + y

    def walk(x: int, y: int, vertical: bool) -> list[Point]:
        """Follow unseen stitches from (x, y), marking them seen."""
        trail = [(x, y)]
        while True:
            if vertical:
                if cols is None:
                    return trail
                y2 = y + 1 if (y + cols[x]) & 1 else y - 1
                i = x * H + (y if y2 > y else y2)
                if not 0 <= y2 <= H or v_seen[i]:
                    return trail
                v_seen[i], y = 1, y2
            else:
                if rows is None:
                    return trail
                x2 = x + 1 if (x + rows[y]) & 1 else x - 1
                i = y * W + (x if x2 > x else x2)
                if not 0 <= x2 <= W or h_seen[i]:
                    return trail
                h_seen[i], x = 1, x2
            trail.append((x, y))
            vertical = not vertical

    # With both families every interior vertex has degree 2, so paths end
    # on the window edge; with one family each stitch is a path of its own.
    both = rows is not None and cols is not None
    ends = [(x, y) for x in range(W + 1)
            for y in (range(H + 1) if x in (0, W) or not both else (0, H))
            if not both or grid.vertex_degree(x, y) == 1]
    paths = []
    for x, y in ends:
        trail = walk(x, y, True)
        if len(trail) == 1:
            trail = walk(x, y, False)
        if len(trail) > 1:
            paths.append(tuple(trail))

    # Every stitch left unseen lies on a closed loop, whose first vertical
    # stitch in (x, y) order starts at the loop's least vertex.
    cycles = []
    for x in range(W + 1) if both else ():
        for y in range((cols[x] + 1) & 1, H, 2):
            if not v_seen[x * H + y]:
                cycles.append(LatticeCycle(walk(x, y, True)[:-1]))
    return cycles, paths


def cycle_to_polyomino(cycle: LatticeCycle) -> Polyomino:
    """Cells enclosed by a simple cycle (even-odd rule scanline fill)."""
    vertical_edges: dict[int, list[int]] = defaultdict(list)  # row -> x's
    for (x1, y1), (x2, y2) in cycle.edges():
        if x1 == x2:
            vertical_edges[min(y1, y2)].append(x1)
    cells = set()
    for y, xs in vertical_edges.items():
        xs.sort()
        for i in range(0, len(xs), 2):
            for x in range(xs[i], xs[i + 1]):
                cells.add((x, y))
    return Polyomino(cells)


def loop_stats(polyomino: Polyomino, cycle: LatticeCycle) -> LoopStats:
    return LoopStats(
        perimeter=cycle.perimeter,
        area=polyomino.area,
        height=polyomino.height,
        width=polyomino.width,
    )


def check_loop_theorems(stats: LoopStats) -> TheoremReport:
    return TheoremReport(
        area_1_mod_4=stats.area % 4 == 1,
        perimeter_4_mod_8=stats.perimeter % 8 == 4,
        box_dimensions_odd=stats.width % 2 == 1 and stats.height % 2 == 1,
    )


def _ranked(cycles: list[LatticeCycle],
            ) -> list[tuple[LatticeCycle, Polyomino]]:
    """Every cycle with its fill, by greatest area, then greatest perimeter,
    then least canonical form; equal keys keep the cycles' order."""
    filled = [(c, cycle_to_polyomino(c)) for c in cycles]
    return sorted(filled, key=lambda item: (-item[1].area, -item[0].perimeter,
                                            item[1].canonical_form))


def largest_loop(
    grid: StitchGrid,
) -> Optional[tuple[LatticeCycle, Polyomino, LoopStats]]:
    """The closed loop of greatest area (ties: greatest perimeter, then
    least canonical form), or None when the grid has no closed loop.

    Area and perimeter come from the vertices.  When every loop tied at the
    top on both is congruent to the first by its turn word, they share one
    canonical form and the first wins; only the winner is filled.
    """
    cycles = extract_components(grid)[0]
    if not cycles:
        return None
    sized = [((c.shoelace_area(), c.perimeter), c) for c in cycles]
    top = max(size for size, _ in sized)
    ties = [c for size, c in sized if size == top]
    word = ties[0].turn_word()
    if all(congruent_words(word, c.turn_word()) for c in ties[1:]):
        cycle, poly = ties[0], cycle_to_polyomino(ties[0])
    else:
        cycle, poly = _ranked(ties)[0]
    return cycle, poly, loop_stats(poly, cycle)


def two_color(grid: StitchGrid) -> dict[Point, int]:
    """Assign 0/1 to every window cell so that distinct regions separated by
    a present stitch get different colors; cell (0, 0) gets 0.

    With both families every interior vertex has degree 2, so a cell's color
    is the parity of the stitches crossed on a path from (0, 0), which is
    ry[y] ^ cx[x] ^ (x & y & 1) for the prefix parities ry, cx of the phase
    bits.  With one family the window is one region unless it is one cell
    wide across the lines, where each stitch cuts the strip.
    """
    W, H = grid.width, grid.height
    rows, cols = grid.row_bits, grid.col_bits
    both = rows is not None and cols is not None
    ry = _prefix_parity(rows, H) if rows and (both or W == 1) else [0] * H
    cx = _prefix_parity(cols, W) if cols and (both or H == 1) else [0] * W
    return {(x, y): ry[y] ^ cx[x] ^ (x & y & both)
            for y in range(H) for x in range(W)}


def _prefix_parity(bits: Sequence[int], n: int) -> list[int]:
    """Parity of bits[1..i] for i = 0..n-1."""
    return list(accumulate(bits[1:n], lambda p, b: (p ^ b) & 1, initial=0))


def centred_square_check(areas: Sequence[int]) -> bool:
    """True when areas[k] = 2k(k+1)+1 for consecutive k starting at 0."""
    return all(area == 2 * k * (k + 1) + 1 for k, area in enumerate(areas))


def analyze_grid(grid: StitchGrid) -> dict:
    """Structured loop report: per-loop stats with theorem checks, the open
    path count, and the two-coloring as a bottom-up cell matrix."""
    cycles, paths = extract_components(grid)
    loops_report = []
    for cycle, poly in _ranked(cycles):
        stats = loop_stats(poly, cycle)
        report = check_loop_theorems(stats)
        loops_report.append({
            "perimeter": stats.perimeter,
            "area": stats.area,
            "height": stats.height,
            "width": stats.width,
            "canonical_hash": poly.canonical_hash(),
            "theorems": {
                "area_1_mod_4": report.area_1_mod_4,
                "perimeter_4_mod_8": report.perimeter_4_mod_8,
                "box_dimensions_odd": report.box_dimensions_odd,
            },
        })

    coloring = two_color(grid)
    matrix = [[coloring[(x, y)] for x in range(grid.width)]
              for y in range(grid.height)]

    return {
        "width": grid.width,
        "height": grid.height,
        "segment_count": grid.segment_count(),
        "loops": loops_report,
        "open_path_count": len(paths),
        "theorems_all_hold": all(
            entry["theorems"][key]
            for entry in loops_report
            for key in entry["theorems"]
        ),
        "two_coloring": matrix,
    }
