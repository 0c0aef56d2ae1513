#!/usr/bin/env python3
"""Loop census: closed loops, their polyominoes, the three congruences,
and region two-coloring."""

import random
import sys

from hitomezashi import (LoopStats, PatternSpec, WordProgram, build_grid,
                         check_loop_theorems, cycle_to_polyomino,
                         extract_components, largest_loop, lookup, table1,
                         two_color)


def word_grid(rows, cols, width, height):
    return build_grid(PatternSpec("demo", WordProgram.fill(rows),
                                  WordProgram.fill(cols), width, height))


print("largest loops of the classic looped patterns:")
print(f"  {'pattern':<28}{'perimeter':>10}{'area':>6}{'height':>8}{'width':>7}")
for name, s in table1():
    print(f"  {name:<28}{s.perimeter:>10}{s.area:>6}{s.height:>8}{s.width:>7}")
print()

areas = [s.area for name, s in table1() if "igeta" not in name]
print(f"mouth/cross/persimmon areas {areas} are the centred square numbers")
print("  2k(k+1)+1:", all(area == 2 * k * (k + 1) + 1
                          for k, area in enumerate(sorted(areas))))
print()

grid = build_grid(lookup("jujizashi").spec())
cycles, paths = extract_components(grid)
print(f"jujizashi window: {len(cycles)} closed loops, {len(paths)} open paths")
best = largest_loop(grid)
print(f"largest loop: {best[2]}")
print()

print("every closed loop of any pattern obeys three congruences:")
print("  area = 1 (mod 4), perimeter = 4 (mod 8), odd bounding box")
rng = random.Random(7)
checked = 0
for _ in range(25):
    rows = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
    cols = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
    g = word_grid(rows, cols, rng.randint(10, 40), rng.randint(10, 40))
    for cycle in extract_components(g)[0]:
        poly = cycle_to_polyomino(cycle)
        stats = LoopStats(cycle.perimeter, poly.area, poly.height, poly.width)
        if not all(check_loop_theorems(stats).values()):
            sys.exit(f"loop congruence violated: {(rows, cols, stats)}")
        checked += 1
print(f"  verified on {checked} loops from 25 random word pairs")
print()

print("two-coloring of a dan tsunagi window (regions across stitches")
print("always alternate):")
g = word_grid("01", "10", 16, 10)
coloring = two_color(g)
for y in range(g.height - 1, -1, -1):
    print("  " + "".join("#" if coloring[(x, y)] else "." for x in range(g.width)))
