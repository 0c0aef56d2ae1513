"""Command-line interface: generate, analyze, verify and render patterns.

Every subcommand is a thin wrapper over the library modules.  Exit codes:
0 success, 1 domain errors (reported on stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import registry
from .grid import PatternSpec, WordProgram, build_grid, is_self_dual
from .loops import analyze_grid, two_color
from .render import RenderOptions, render_ascii, render_cycle_svg, render_svg
from .tiles import (conjecture_report, persimmon_spec, persimmon_word,
                    snowflake, snowflake_boundary, snowflake_cycle)
from .words import BinaryWord, pell

# Highest persimmon/snowflake order accepted (a 3940-cell-wide window); past
# it the recursive word builders run for minutes, then exhaust the stack.
MAX_ORDER = 9


def _check_order(order: int, flag: str) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"{flag} must be between 1 and {MAX_ORDER}")


def _word_arg(text: str) -> BinaryWord:
    try:
        return BinaryWord(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _program_arg(text: str) -> WordProgram:
    try:
        return WordProgram.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_pattern_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rows", type=_program_arg, required=True,
                        metavar="PROG",
                        help="row program: word[:count] segments, comma-"
                             "separated; a bare word repeats to fill; "
                             "empty string for no horizontal lines")
    parser.add_argument("--cols", type=_program_arg, required=True,
                        metavar="PROG", help="column program, same syntax")
    parser.add_argument("--width", type=int, required=True, help="cells")
    parser.add_argument("--height", type=int, required=True, help="cells")


def _add_render_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--svg", metavar="PATH",
                        help="write an SVG file instead of ASCII art")
    parser.add_argument("--ascii", action="store_true",
                        help="print ASCII art (the default)")
    parser.add_argument("--cell-size", type=int, default=20)
    parser.add_argument("--stroke-width", type=float, default=2.0)
    parser.add_argument("--show-grid", action="store_true")
    parser.add_argument("--fill", action="store_true",
                        help="paint the two-coloring beneath the stitches")


def _spec_from_args(args) -> PatternSpec:
    return PatternSpec(name="cli", row_program=args.rows,
                       col_program=args.cols,
                       width=args.width, height=args.height)


def _options_from_args(args) -> RenderOptions:
    return RenderOptions(cell_size=args.cell_size,
                         stroke_width=args.stroke_width,
                         show_grid=args.show_grid,
                         fill_two_coloring=args.fill)


def _emit_grid(grid, args) -> int:
    if args.svg:
        options = _options_from_args(args)
        coloring = two_color(grid) if options.fill_two_coloring else None
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_svg(grid, options, coloring=coloring))
        print(f"wrote {args.svg}")
    else:
        print(render_ascii(grid, _options_from_args(args)))
    return 0


def _cmd_render(args) -> int:
    return _emit_grid(build_grid(_spec_from_args(args)), args)


def _cmd_dual(args) -> int:
    return _emit_grid(build_grid(_spec_from_args(args)).dual(), args)


def _cmd_analyze(args) -> int:
    report = analyze_grid(build_grid(_spec_from_args(args)))
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(f"window: {report['width']}x{report['height']} cells, "
          f"{report['segment_count']} stitches")
    print(f"closed loops: {len(report['loops'])}   "
          f"open paths: {report['open_path_count']}")
    for i, loop in enumerate(report["loops"], 1):
        checks = loop["theorems"]
        verdict = "ok" if all(checks.values()) else "VIOLATED"
        print(f"  loop {i}: perimeter={loop['perimeter']} area={loop['area']} "
              f"height={loop['height']} width={loop['width']} "
              f"congruences={verdict}")
    print(f"loop congruences hold: {report['theorems_all_hold']}")
    print("two-coloring (top row first):")
    for row in reversed(report["two_coloring"]):
        print("  " + "".join(str(c) for c in row))
    return 0


def _cmd_self_dual(args) -> int:
    shift = is_self_dual(args.rows, args.cols)
    if args.json:
        print(json.dumps({"shift": list(shift) if shift else None}))
    else:
        print("none" if shift is None else f"({shift[0]}, {shift[1]})")
    return 0


def _cmd_registry(args) -> int:
    if args.key:
        entry = registry.lookup(args.key)
        if args.json:
            print(json.dumps(entry.to_dict(), indent=2, ensure_ascii=False))
            return 0
        data = entry.to_dict()
        print(f"{entry.key} ({entry.display_name}): {entry.meaning}")
        print(f"  rows: {data['rows'] or '(none)'}")
        print(f"  cols: {data['cols'] or '(none)'}")
        print(f"  default window: {data['default_window'][0]}x"
              f"{data['default_window'][1]}")
        print(f"  self-dual: {'yes' if entry.self_dual else 'no'}")
        if entry.expected_stats:
            p, a, h, w = entry.expected_stats
            print(f"  largest loop: perimeter={p} area={a} height={h} width={w}")
        return 0
    if args.json:
        print(json.dumps(registry.export_catalog(), indent=2,
                         ensure_ascii=False))
        return 0
    for entry in registry.list_all():
        data = entry.to_dict()
        rows = data["rows"] or "(none)"
        cols = data["cols"] or "(none)"
        tag = "self-dual" if entry.self_dual else "not self-dual"
        print(f"{entry.key:<24} rows={rows:<14} cols={cols:<10} {tag}")
    return 0


def _cmd_table1(args) -> int:
    rows = registry.table1()
    if args.json:
        print(json.dumps(
            [{"pattern": name, "perimeter": s.perimeter, "area": s.area,
              "height": s.height, "width": s.width} for name, s in rows],
            indent=2, ensure_ascii=False))
        return 0
    print(f"{'pattern':<28}{'perimeter':>10}{'area':>6}{'height':>8}{'width':>7}")
    for name, stats in rows:
        print(f"{name:<28}{stats.perimeter:>10}{stats.area:>6}"
              f"{stats.height:>8}{stats.width:>7}")
    return 0


def _cmd_snowflake(args) -> int:
    order = args.order
    _check_order(order, "--order")
    poly = snowflake(order)
    cycle = snowflake_cycle(order)
    boundary = snowflake_boundary(order)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_cycle_svg(
                cycle, RenderOptions(cell_size=args.cell_size)))
        print(f"wrote {args.svg}")
        return 0
    if args.json:
        print(json.dumps({
            "order": order,
            "boundary": str(boundary),
            "perimeter": cycle.perimeter,
            "area": poly.area,
            "width": poly.width,
            "height": poly.height,
            "stitch_width": poly.width + 1,
            "cells": sorted(poly.cells),
        }))
        return 0
    print(f"snowflake order {order}")
    print(f"  boundary word: {boundary}")
    print(f"  perimeter: {cycle.perimeter}")
    print(f"  area: {poly.area}")
    print(f"  bounding box: {poly.width}x{poly.height} cells "
          f"({poly.width + 1} boundary stitches wide)")
    return 0


def _cmd_persimmon(args) -> int:
    _check_order(args.order, "--order")
    spec = persimmon_spec(args.order, args.periods)
    word = persimmon_word(args.order)
    if args.json:
        print(json.dumps({
            "order": args.order,
            "word": str(word),
            "word_length": len(word),
            "spec": spec.to_dict(),
            "self_dual_shift": list(is_self_dual(word, word) or ()) or None,
        }))
        return 0
    print(f"persimmon pattern order {args.order}")
    print(f"  encoding word (both directions): {word}  "
          f"(length {len(word)} = 2*pell({args.order}) = {2 * pell(args.order)})")
    print(f"  window: {spec.width}x{spec.height} cells "
          f"({args.periods} periods per axis)")
    shift = is_self_dual(word, word)
    print(f"  self-dual shift: ({shift[0]}, {shift[1]})" if shift
          else "  self-dual shift: none")
    if args.svg or args.ascii:
        return _emit_grid(build_grid(spec), args)
    return 0


def _cmd_verify_conjecture(args) -> int:
    _check_order(args.max_order, "--max-order")
    reports = [conjecture_report(order)
               for order in range(1, args.max_order + 1)]
    if args.json:
        print(json.dumps(reports, indent=2))
        return 0
    for report in reports:
        print(f"order {report['order']}: largest persimmon loop is the "
              f"snowflake: {str(report['match']).lower()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hitomezashi",
        description="Encode, analyze and render running-stitch grid patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="draw a pattern from word programs")
    _add_pattern_args(p)
    _add_render_args(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("dual", help="draw the reverse side of a pattern")
    _add_pattern_args(p)
    _add_render_args(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("analyze", help="loop census, congruence checks, "
                                       "two-coloring")
    _add_pattern_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("self-dual", help="find the translation mapping a "
                                         "pattern onto its dual")
    p.add_argument("--rows", type=_word_arg, required=True, metavar="WORD")
    p.add_argument("--cols", type=_word_arg, required=True, metavar="WORD")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_self_dual)

    p = sub.add_parser("registry", help="catalog of traditional patterns")
    p.add_argument("key", nargs="?", help="show one entry")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_registry)

    p = sub.add_parser("table1", help="largest-loop statistics of the "
                                      "classic looped patterns")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("snowflake", help="trace a snowflake tile")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--svg", metavar="PATH")
    p.add_argument("--cell-size", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_snowflake)

    p = sub.add_parser("persimmon", help="build a persimmon pattern")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--periods", type=int, default=2)
    p.add_argument("--json", action="store_true")
    _add_render_args(p)
    p.set_defaults(func=_cmd_persimmon)

    p = sub.add_parser("verify-conjecture",
                       help="compare persimmon largest loops with snowflakes")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_conjecture)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, KeyError, IndexError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout; send what is still buffered to devnull
        # so that the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
