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
