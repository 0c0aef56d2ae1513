"""Slow, independent reference implementations the library is checked
against."""

from collections import defaultdict

from hitomezashi.loops import (LatticeCycle, cycle_to_polyomino,
                               loop_stats)


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
                cycles.append(LatticeCycle(trail[:-1]).normalized())
                break

    cycles.sort(key=lambda c: c.vertices)
    paths.sort()
    return cycles, paths


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
    return cycle, poly, loop_stats(poly, cycle)


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
