"""Slow, independent reference implementations the library is checked
against."""

from collections import defaultdict

from hitomezashi.grid import PatternSpec, ProgramSegment, WordProgram
from hitomezashi.loops import (LatticeCycle, LoopStats, _turn_word,
                               check_loop_theorems, cycle_to_polyomino,
                               extract_components)
from hitomezashi.render import DEFAULT_OPTIONS, _fmt
from hitomezashi.words import BinaryWord


def components_from_segments(segments):
    """Partition unit segments into simple cycles and open paths, through a
    vertex adjacency dict and a set of visited edges.

    Raises ValueError("not a simple pattern") if any vertex has more than
    two incident segments.
    """
    adjacency = defaultdict(list)
    for a, b in segments:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for vertex, nbrs in adjacency.items():
        if len(nbrs) > 2:
            raise ValueError("not a simple pattern")
        nbrs.sort()

    visited = set()

    def walk(start):
        trail = [start]
        current = start
        while True:
            step = None
            for nbr in adjacency[current]:
                if frozenset((current, nbr)) not in visited:
                    step = nbr
                    break
            if step is None:
                return trail
            visited.add(frozenset((current, step)))
            trail.append(step)
            current = step

    paths = []
    for vertex in sorted(adjacency):
        if len(adjacency[vertex]) == 1 and not any(
            frozenset((vertex, n)) in visited for n in adjacency[vertex]
        ):
            paths.append(tuple(walk(vertex)))

    cycles = []
    for vertex in sorted(adjacency):
        for nbr in adjacency[vertex]:
            if frozenset((vertex, nbr)) not in visited:
                trail = walk(vertex)
                assert trail[-1] == vertex
                cycles.append(normalized(LatticeCycle(trail[:-1])))
                break

    cycles.sort(key=lambda c: c.vertices)
    paths.sort()
    return cycles, paths


def normalized(cycle):
    """The cycle rotated and oriented to start at its least vertex, then
    its lesser neighbour: a traced loop's least vertex first, heading up.
    Two cycles trace the same loop exactly when their normalized vertices
    are equal."""
    verts = list(cycle.vertices)
    i = verts.index(min(verts))
    verts = verts[i:] + verts[:i]
    if verts[-1] < verts[1]:
        verts = [verts[0]] + verts[:0:-1]
    return LatticeCycle(verts)


def turn_word(cycle):
    """One letter per vertex of a cycle, in traversal order: L for a left
    (counterclockwise) quarter turn, R for a right one, S for a straight
    step, from the cross product of the edges into and out of the vertex.
    Traced hitomezashi loops turn at every vertex."""
    verts = cycle.vertices
    letters = []
    for (x0, y0), (x1, y1), (x2, y2) in zip(verts[-1:] + verts[:-1],
                                            verts, verts[1:] + verts[:1]):
        cross = (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1)
        letters.append("L" if cross > 0 else "R" if cross < 0 else "S")
    return "".join(letters)


def full_window_loops(grid):
    """loops._window_loops from a walk of every column: the least vertex
    and step bits of each closed loop of a grid with both families, in
    order of that vertex, by the census rule (see the loops module
    docstring), walking every unmarked vertical stitch of the window."""
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
    for x0 in range(W + 1):
        for y0 in range((cols[x0] + 1) & 1, H, 2):
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
                yield (x0, y0), bytes(steps)


def presence_vertex_degree(grid, x, y):
    """Present segments meeting (x, y), from four bounds-checked presence
    queries."""
    if not (0 <= x <= grid.width and 0 <= y <= grid.height):
        raise IndexError("out of bounds")
    degree = 0
    if x > 0 and grid.horizontal_present(x - 1, y):
        degree += 1
    if x < grid.width and grid.horizontal_present(x, y):
        degree += 1
    if y > 0 and grid.vertical_present(x, y - 1):
        degree += 1
    if y < grid.height and grid.vertical_present(x, y):
        degree += 1
    return degree


def parity_vertex_degree(grid, x, y):
    """Present segments meeting (x, y), read off the phase bits: one per
    family present, leading right (up) when x + row_bits[y]
    (y + col_bits[x]) is odd and left (down) otherwise, unless that side
    is off the window."""
    W, H = grid.width, grid.height
    if not (0 <= x <= W and 0 <= y <= H):
        raise IndexError("out of bounds")
    rows, cols = grid.row_bits, grid.col_bits
    return ((rows is not None and 0 < x + (x + rows[y]) % 2 <= W)
            + (cols is not None and 0 < y + (y + cols[x]) % 2 <= H))


def vertex_loop_is_fully_packed(grid):
    """True when every strictly interior vertex has degree exactly 2, by
    visiting each one."""
    return all(
        presence_vertex_degree(grid, x, y) == 2
        for x in range(1, grid.width)
        for y in range(1, grid.height)
    )


def vertex_cycle_stats(cycle):
    """A loop's stats read off its vertex tuple: the shoelace area and the
    vertex box, without the fill."""
    width, height = cycle.cell_box()
    return LoopStats(cycle.perimeter, cycle.shoelace_area(), height, width)


def full_torus_largest(rows, cols):
    """loops._torus_largest for any two words, from every cycle of the
    torus: the stats and turn word of the largest loop of a window two
    periods wide and two high over the pattern whose phase bits repeat
    ``rows`` and ``cols``; None unless both periods are even, the torus has
    a single loop of the greatest (area, perimeter), and that loop spans at
    most one period of vertices on each axis."""
    if len(rows) % 2 or len(cols) % 2:
        return None
    (_, perimeter), ties = full_torus_census(rows, cols)
    if len(ties) != 1:
        return None
    stats, word, _ = walk_loop(rows, cols, ties[0], perimeter)
    if stats.width > len(cols) or stats.height > len(rows):
        return None
    return stats, word


def walk_loop(rows, cols, start, perimeter):
    """The stats (shoelace area as the sum of x·dy, vertex box), turn word
    and least corner (min x, min y) of the vertex box of the bounded loop
    of ``perimeter`` steps that leaves ``start`` heading up, from a walk of
    all of it.  Line x has phase bit cols[x % len(cols)], line y
    rows[y % len(rows)], wrapping on the torus; the word has one letter per
    vertex from the end of the first step on."""
    px, py = len(cols), len(rows)
    x, y = start
    min_x = max_x = x
    min_y = max_y = y
    area = 0
    steps = bytearray()
    for _ in range(perimeter // 2):
        up = (y + cols[x % px]) & 1
        y += up + up - 1
        area += x if up else -x
        right = (x + rows[y % py]) & 1
        x += right + right - 1
        min_x, max_x = min(min_x, x), max(max_x, x)
        min_y, max_y = min(min_y, y), max(max_y, y)
        steps.append(up)
        steps.append(right)
    return (LoopStats(perimeter, abs(area), max_y - min_y, max_x - min_x),
            _turn_word(steps + steps[:1]), (min_x, min_y))


def fourfold_area(quarter):
    """The shoelace area of trace_turtle(quarter.repeat(4)) from one trace
    of the quarter, without building the cycle or checking that it is
    simple.

    Copy k of the quarter starts at p_k, turned by R^k, where d is the
    quarter's displacement, R the heading it ends on, p_0 = 0 and
    p_{k+1} = p_k + R^k d.  Its shoelace sum from the origin is the
    quarter's own, C, plus cross(p_k, R^k d), so twice the area is
    |4C + sum_k cross(p_k, R^k d)|; the boundary is open unless p_4 = 0.
    """
    twice = x = y = 0
    dx, dy = 1, 0
    for letter in str(quarter):
        x1, y1 = x + dx, y + dy
        twice += x * y1 - x1 * y
        x, y = x1, y1
        dx, dy = (-dy, dx) if letter == "L" else (dy, -dx)
    twice *= 4
    # (x, y) is d; R is the net turn of the letters, a quarter left per L
    # and a quarter right per R
    letters = str(quarter)
    turns = (letters.count("L") - letters.count("R")) % 4
    px = py = 0
    for _ in range(4):
        twice += px * y - py * x
        px, py = px + x, py + y
        for _ in range(turns):
            x, y = -y, x
    if (px, py) != (0, 0):
        raise ValueError("open boundary")
    return abs(twice) // 2


def full_torus_census(rows, cols):
    """The greatest (shoelace area, perimeter) over the bounded loops of
    the pattern whose phase bits repeat ``rows`` and ``cols``, both of even
    length, and the start of each torus loop that has it; ((0, 0), []) when
    there is no bounded loop.

    Each cycle of the len(cols) x len(rows) torus is walked once, from the
    lower end of its first unmarked vertical stitch heading up, in
    unwrapped coordinates, marking its vertical stitches; a walk that ends
    back on its start is a bounded loop of the plane.
    """
    px, py = len(cols), len(rows)
    half = py // 2
    # stitch (x, y)-(x, y+1) of column x, whose lower ends have the parity
    # q = 1 - cols[x], is mark x * half + (y + q) % py // 2
    qs = [1 - c for c in cols]
    marks = bytearray(px * half)
    best, ties = (0, 0), []
    start = marks.find(0)
    while start >= 0:
        x0, j = divmod(start, half)
        x, y = x0, y0 = x0, 2 * j - qs[x0]
        area = steps = 0
        while True:
            xm = x % px
            t = y + qs[xm]
            i = xm * half + t % py // 2
            if marks[i]:
                break
            marks[i] = 1
            if t & 1:
                y -= 1
                area -= x
            else:
                y += 1
                area += x
            if (x + rows[y % py]) & 1:
                x += 1
            else:
                x -= 1
            steps += 2
        if x == x0 and y == y0:
            size = (abs(area), steps)
            if size > best:
                best, ties = size, [(x0, y0)]
            elif size == best:
                ties.append((x0, y0))
        start = marks.find(0, start + 1)
    return best, ties


def fill_stats(cycle, poly):
    """A loop's stats with its area and box read off its fill."""
    return LoopStats(cycle.perimeter, poly.area, poly.height, poly.width)


def ranked_loops(cycles):
    """Every cycle filled and canonicalised, ranked by greatest area, then
    greatest perimeter, then least canonical form (stable)."""
    filled = [(cycle, cycle_to_polyomino(cycle)) for cycle in cycles]
    return sorted(filled, key=lambda item: (-item[1].area, -item[0].perimeter,
                                            item[1].canonical_form))


def brute_largest_loop(cycles):
    ranked = ranked_loops(cycles)
    if not ranked:
        return None
    cycle, poly = ranked[0]
    return cycle, poly, fill_stats(cycle, poly)


def fill_all_analyze_grid(grid):
    """analyze_grid's report with every loop filled and canonicalised, its
    area and box read off the fill, and the two-coloring from the region
    BFS."""
    cycles, paths = extract_components(grid)
    loops_report = []
    for cycle, poly in ranked_loops(cycles):
        stats = fill_stats(cycle, poly)
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

    coloring = bfs_two_color(grid)
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


def _regions(grid):
    """Label window cells with region ids; cells joined across absent
    interior segments share a region.  The window edge acts as a wall."""
    W, H = grid.width, grid.height
    region_of = {}
    next_id = 0
    for start_y in range(H):
        for start_x in range(W):
            if (start_x, start_y) in region_of:
                continue
            region_of[(start_x, start_y)] = next_id
            frontier = [(start_x, start_y)]
            while frontier:
                x, y = frontier.pop()
                reachable = []
                if x + 1 < W and not grid.vertical_present(x + 1, y):
                    reachable.append((x + 1, y))
                if x > 0 and not grid.vertical_present(x, y):
                    reachable.append((x - 1, y))
                if y + 1 < H and not grid.horizontal_present(x, y + 1):
                    reachable.append((x, y + 1))
                if y > 0 and not grid.horizontal_present(x, y):
                    reachable.append((x, y - 1))
                for nbr in reachable:
                    if nbr not in region_of:
                        region_of[nbr] = next_id
                        frontier.append(nbr)
            next_id += 1
    return region_of, next_id


def bfs_two_color(grid):
    """Two-color the region adjacency graph by BFS, each component from its
    first region in reading order.

    Raises ValueError("not two-colorable") if the graph has an odd cycle.
    """
    W, H = grid.width, grid.height
    region_of, count = _regions(grid)

    neighbors = {r: set() for r in range(count)}
    for y in range(H):
        for x in range(1, W):
            if grid.vertical_present(x, y):
                a, b = region_of[(x - 1, y)], region_of[(x, y)]
                if a != b:
                    neighbors[a].add(b)
                    neighbors[b].add(a)
    for x in range(W):
        for y in range(1, H):
            if grid.horizontal_present(x, y):
                a, b = region_of[(x, y - 1)], region_of[(x, y)]
                if a != b:
                    neighbors[a].add(b)
                    neighbors[b].add(a)

    colors = {}
    for seed in range(count):
        if seed in colors:
            continue
        colors[seed] = 0
        frontier = [seed]
        while frontier:
            region = frontier.pop()
            for nbr in neighbors[region]:
                if nbr not in colors:
                    colors[nbr] = 1 - colors[region]
                    frontier.append(nbr)
                elif colors[nbr] == colors[region]:
                    raise ValueError("not two-colorable")

    return {cell: colors[region] for cell, region in region_of.items()}


def brute_expand_program(program, count):
    """Phase bits of a program, appending each fixed segment's word one
    repeat at a time and the fill word until ``count`` bits are out."""
    if count < 1:
        raise ValueError("count must be >= 1")
    for seg in program.segments:
        if seg.is_fill and len(seg.word) == 0:
            raise ValueError("empty fill word")
    out = []
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


def spec_from_dict(data):
    """The PatternSpec whose to_dict is ``data``; ValueError for a wrongly
    typed field."""
    def count(value, field):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{field} must be an integer")
        return value

    def prog(entries, field):
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

    return PatternSpec(
        name=data["name"],
        row_program=prog(data["rows"], "rows"),
        col_program=prog(data["cols"], "cols"),
        width=count(data["width"], "width"),
        height=count(data["height"], "height"),
    )


def brute_is_self_dual(row_word, col_word):
    """The first (dx, dy), dy-major, whose translation maps the periodic
    pattern onto its dual, trying every pair of shifts in two word periods.

    Raises ValueError("empty encoding") when both words are empty.
    """
    row = row_word.bits
    col = col_word.bits
    if not row and not col:
        raise ValueError("empty encoding")

    def rows_ok(dy, dx):
        return all(
            1 - row[y] == row[(y + dy) % len(row)] ^ (dx % 2)
            for y in range(len(row))
        )

    def cols_ok(dy, dx):
        return all(
            1 - col[x] == col[(x + dx) % len(col)] ^ (dy % 2)
            for x in range(len(col))
        )

    dy_range = range(2 * len(row)) if row else range(2)
    dx_range = range(2 * len(col)) if col else range(2)
    for dy in dy_range:
        for dx in dx_range:
            if (not row or rows_ok(dy, dx)) and (not col or cols_ok(dy, dx)):
                return (dx, dy)
    return None


def brute_dual_shifts(bits, parity):
    """grid._dual_shifts by comparing every rotation of the bits with the
    target."""
    n = len(bits)
    if not n:
        return [0, 1]
    target = tuple((1 - b) ^ parity for b in bits)
    found = [d for d in range(n) if bits[d:] + bits[:d] == target]
    return found + [d + n for d in found]


def vertex_render_ascii(grid, options=DEFAULT_OPTIONS):
    """ASCII picture built mark by mark, two presence queries per lattice
    point."""
    W, H = grid.width, grid.height
    lines = []
    for y in range(H, -1, -1):
        row = []
        for x in range(W + 1):
            mark = " "
            if y < H and grid.vertical_present(x, y):
                mark = "|"
            elif options.show_grid:
                mark = "+"
            row.append(mark)
            if x < W:
                row.append("_" if grid.horizontal_present(x, y) else " ")
        lines.append("".join(row).rstrip())
    return "\n".join(lines)


def segment_render_svg(grid, options=DEFAULT_OPTIONS, coloring=None,
                       highlight=None):
    """SVG document built segment by segment from grid.segments(), four
    coordinate formats per line element.

    ``coloring`` (cell -> 0/1, as produced by two_color) paints unit squares
    beneath the strokes when fill_two_coloring is set; ``highlight`` draws
    one closed cycle on top with a heavier contrasting stroke.
    """
    s = options.cell_size
    W, H = grid.width, grid.height
    fill_a, fill_b, stroke = options.palette

    def X(x):
        return _fmt(x * s)

    def Y(y):
        return _fmt((H - y) * s)

    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W * s}" '
        f'height="{H * s}" viewBox="0 0 {W * s} {H * s}">'
    )

    if options.fill_two_coloring and coloring is not None:
        parts.append('  <g stroke="none">')
        for (cx, cy) in sorted(coloring):
            fill = fill_b if coloring[(cx, cy)] else fill_a
            parts.append(
                f'    <rect x="{X(cx)}" y="{Y(cy + 1)}" width="{s}" '
                f'height="{s}" fill="{fill}"/>'
            )
        parts.append("  </g>")

    if options.show_grid:
        parts.append(
            f'  <g stroke="{stroke}" stroke-opacity="0.15" stroke-width="1">'
        )
        for x in range(W + 1):
            parts.append(
                f'    <line x1="{X(x)}" y1="{Y(0)}" x2="{X(x)}" y2="{Y(H)}"/>'
            )
        for y in range(H + 1):
            parts.append(
                f'    <line x1="{X(0)}" y1="{Y(y)}" x2="{X(W)}" y2="{Y(y)}"/>'
            )
        parts.append("  </g>")

    parts.append(
        f'  <g stroke="{stroke}" stroke-width="{_fmt(options.stroke_width)}" '
        f'stroke-linecap="square">'
    )
    for (x1, y1), (x2, y2) in grid.segments():
        parts.append(
            f'    <line x1="{X(x1)}" y1="{Y(y1)}" x2="{X(x2)}" y2="{Y(y2)}"/>'
        )
    parts.append("  </g>")

    if highlight is not None:
        points = " ".join(f"{X(x)},{Y(y)}" for x, y in highlight.vertices)
        parts.append(
            f'  <polygon points="{points}" fill="none" stroke="{fill_b}" '
            f'stroke-width="{_fmt(options.stroke_width * 2)}"/>'
        )

    parts.append("</svg>")
    parts.append("")
    return "\n".join(parts)
