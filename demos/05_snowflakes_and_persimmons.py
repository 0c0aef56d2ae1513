#!/usr/bin/env python3
"""Snowflake tiles, persimmon patterns, and the link between them.

Writes SVG renderings into demos/output/.
"""

from pathlib import Path

from hitomezashi import (RenderOptions, build_grid, largest_loop, pell,
                         persimmon_spec, persimmon_word, render_cycle_svg,
                         render_svg, snowflake, snowflake_boundary,
                         snowflake_cycle, two_color, verify_conjecture)

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

print("snowflake tiles traced from turn words:")
for order in range(1, 5):
    poly = snowflake(order)
    cycle = snowflake_cycle(order)
    print(f"  order {order}: perimeter {cycle.perimeter:>3}, "
          f"area {poly.area:>3} = pell({2 * order - 1}), "
          f"box {poly.width}x{poly.height}, "
          f"stitch width {poly.width + 1} = 2*pell({order})")
print()
print(f"order-2 boundary word: {snowflake_boundary(2)}")

for order in (3, 4):
    path = out_dir / f"snowflake_{order}.svg"
    path.write_text(render_cycle_svg(snowflake_cycle(order),
                                     RenderOptions(cell_size=12)))
    print(f"wrote {path}")
print()

print("persimmon patterns stitch pell_word(n) + its reversal both ways:")
for order in range(1, 5):
    word = persimmon_word(order)
    print(f"  order {order}: word {str(word):<26} "
          f"(length {len(word)} = 2*pell({order}))")
print()

print("the largest loop of each persimmon pattern is the matching")
print("snowflake tile (turn-word congruence, found on the P x P torus):")
for order in range(1, 6):
    verdict = verify_conjecture(order)
    window = 4 * pell(order)
    print(f"  order {order} (window {window}x{window}): {verdict}")
print()

spec = persimmon_spec(3, periods=2)
grid = build_grid(spec)
best = largest_loop(grid)
path = out_dir / "persimmon_3.svg"
path.write_text(render_svg(
    grid,
    RenderOptions(cell_size=14, fill_two_coloring=True),
    coloring=two_color(grid),
    highlight=best[0],
))
print(f"wrote {path} (order-3 persimmon, largest loop highlighted)")
