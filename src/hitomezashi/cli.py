"""Command-line interface: generate, analyze, verify and render patterns.

Every subcommand is a thin wrapper over the library modules.  Exit codes:
0 success, 1 domain errors (reported on stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Iterator, Optional

from . import registry
from .grid import PatternSpec, WordProgram, build_grid, is_self_dual
from .loops import analyze_grid, cycle_to_polyomino, two_color
from .render import RenderOptions, render_ascii, render_cycle_svg, render_svg
from .tiles import (conjecture_report, persimmon_spec, persimmon_word,
                    snowflake_boundary, trace_turtle)
from .words import BinaryWord, pell

# Highest persimmon/snowflake order accepted (a 3940-cell-wide window).  The
# word builders are cheap past it, but their outputs are not: at order 10
# `snowflake --json` would list 6.6 M cells and `persimmon --svg` write
# 90.5 M <line> elements, both GB-scale.
MAX_ORDER = 9
# Highest order verify-conjecture checks.  The loops are found from one
# eighth of the P x P torus, P = 2*pell(n), without building the window of
# 2P cells a side, so MAX_CELLS does not bound the order.  On a shared
# 2-vCPU VM (2026-10), in a child process, orders 1-11 took 6.2 s and
# 38 MiB, and orders 1-12 26 s and 124 MiB, of which 96 MB are order 12's
# marks, about P*P/8 bytes for the stitches a walk can start from; order
# 13 alone took 129 s and 562 MiB.
MAX_CONJECTURE_ORDER = 12


def _check_order(order: int, flag: str, limit: int = MAX_ORDER) -> None:
    if not 1 <= order <= limit:
        raise ValueError(f"{flag} must be between 1 and {limit}")


def _arg(parse: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse type that reports parse's ValueError as a usage error."""
    def convert(text: str) -> object:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _add_pattern_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rows", type=_arg(WordProgram.parse),
                        required=True, metavar="PROG",
                        help="row program: word[:count] segments, comma-"
                             "separated; a bare word repeats to fill; "
                             "empty string for no horizontal lines")
    parser.add_argument("--cols", type=_arg(WordProgram.parse),
                        required=True, metavar="PROG",
                        help="column program, same syntax")
    parser.add_argument("--width", type=int, required=True, help="cells")
    parser.add_argument("--height", type=int, required=True, help="cells")


def _add_render_args(parser: argparse.ArgumentParser, output=None) -> None:
    # one output: --svg, --ascii and the given group's flags exclude each other
    output = output or parser.add_mutually_exclusive_group()
    output.add_argument("--svg", metavar="PATH",
                        help="write an SVG file instead of ASCII art")
    output.add_argument("--ascii", action="store_true",
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


def _write_svg(path: str, text: str) -> None:
    """Write an SVG built in full beforehand, so that a render that fails
    leaves an existing file at path as it was.  It goes out in 1 MiB
    slices: one write would first encode the whole text into a copy."""
    with open(path, "w", encoding="utf-8") as handle:
        for start in range(0, len(text), 1 << 20):
            handle.write(text[start:start + (1 << 20)])
    print(f"wrote {path}")


def _emit_grid(grid, options: RenderOptions, svg: Optional[str]) -> int:
    if svg is not None:
        coloring = two_color(grid) if options.fill_two_coloring else None
        _write_svg(svg, render_svg(grid, options, coloring=coloring))
    else:
        print(render_ascii(grid, options))
    return 0


def _cmd_render(args) -> int:  # and dual, the reverse side
    grid = build_grid(_spec_from_args(args))
    return _emit_grid(grid.dual() if args.command == "dual" else grid,
                      _options_from_args(args), args.svg)


def _cmd_analyze(args) -> int:
    report = analyze_grid(build_grid(_spec_from_args(args)))
    if args.json:
        sys.stdout.writelines(_report_json(report))
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


def _report_json(report: dict) -> Iterator[str]:
    """json.dumps(report, indent=2) and a newline, in pieces, for a report
    with str keys.  The indent encoder is pure Python, but analyze_grid's
    two long lists repeat themselves by identity (equal loops are one dict,
    the two-coloring's rows at most four lists), so each distinct object in
    a top-level list is encoded once, looked up by id(), and the document
    is never held as one string.  A non-empty list of plain ints, a
    two-coloring row, goes through the C encoder, which json.dumps uses
    only without indent, with the separators of the indented layout."""
    lists = [name for name, value in report.items()
             if isinstance(value, list)]
    text = json.dumps({**report, **dict.fromkeys(lists)}, indent=2)
    for name in lists:
        key = f"\n  {json.dumps(name)}: "
        head, text = text.split(key + "null", 1)
        yield head + key
        blocks = {}
        for i, item in enumerate(report[name]):
            block = blocks.get(id(item))
            if block is None:  # with the separator that precedes it
                if isinstance(item, list) and set(map(type, item)) == {int}:
                    row = json.dumps(item, separators=(",\n      ", ": "))
                    block = "[\n      " + row[1:-1] + "\n    ]"
                else:
                    block = json.dumps(item, indent=2).replace("\n", "\n    ")
                block = blocks[id(item)] = ",\n    " + block
            yield block if i else "[" + block[1:]
        yield "\n  ]" if blocks else "[]"
    yield text + "\n"


def _cmd_self_dual(args) -> int:
    shift = is_self_dual(args.rows, args.cols)
    if args.json:
        print(json.dumps({"shift": list(shift) if shift else None}))
    else:
        print("none" if shift is None else f"({shift[0]}, {shift[1]})")
    return 0


def _cmd_registry(args) -> int:
    if args.key is not None:
        entry = registry.lookup(args.key)
        if args.json:
            print(json.dumps(entry.to_dict(), indent=2, ensure_ascii=False))
            return 0
        print(f"{entry.key} ({entry.display_name}): {entry.meaning}")
        print(f"  rows: {entry.row_text or '(none)'}")
        print(f"  cols: {entry.col_text or '(none)'}")
        print("  default window: {}x{}".format(*entry.default_window))
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
        rows = entry.row_text or "(none)"
        cols = entry.col_text or "(none)"
        tag = "self-dual" if entry.self_dual else "not self-dual"
        print(f"{entry.key:<24} rows={rows:<14} cols={cols:<10} {tag}")
    return 0


def _cmd_table1(args) -> int:
    rows = registry.table1()
    if args.json:
        print(json.dumps(
            [{"pattern": name, **s._asdict()} for name, s in rows],
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
    options = RenderOptions(cell_size=args.cell_size)
    boundary = snowflake_boundary(order)
    cycle = trace_turtle(boundary)
    if args.svg is not None:
        _write_svg(args.svg, render_cycle_svg(cycle, options))
        return 0
    width, height = cycle.cell_box()
    area = cycle.shoelace_area()
    if args.json:
        print(json.dumps({
            "order": order,
            "boundary": str(boundary),
            "perimeter": cycle.perimeter,
            "area": area,
            "width": width,
            "height": height,
            "stitch_width": width + 1,
            "cells": sorted(cycle_to_polyomino(cycle).cells),
        }))
        return 0
    print(f"snowflake order {order}")
    print(f"  boundary word: {boundary}")
    print(f"  perimeter: {cycle.perimeter}")
    print(f"  area: {area}")
    print(f"  bounding box: {width}x{height} cells "
          f"({width + 1} boundary stitches wide)")
    return 0


def _cmd_persimmon(args) -> int:
    _check_order(args.order, "--order")
    options = _options_from_args(args)
    spec = persimmon_spec(args.order, args.periods)
    word = persimmon_word(args.order)
    shift = is_self_dual(word, word)
    if args.json:
        print(json.dumps({
            "order": args.order,
            "word": str(word),
            "word_length": len(word),
            "spec": spec.to_dict(),
            "self_dual_shift": list(shift) if shift else None,
        }))
        return 0
    print(f"persimmon pattern order {args.order}")
    print(f"  encoding word (both directions): {word}  "
          f"(length {len(word)} = 2*pell({args.order}) = {2 * pell(args.order)})")
    print(f"  window: {spec.width}x{spec.height} cells "
          f"({args.periods} periods per axis)")
    print(f"  self-dual shift: ({shift[0]}, {shift[1]})" if shift
          else "  self-dual shift: none")
    if args.svg is not None or args.ascii:
        return _emit_grid(build_grid(spec), options, args.svg)
    return 0


def _cmd_verify_conjecture(args) -> int:
    _check_order(args.max_order, "--max-order", MAX_CONJECTURE_ORDER)
    reports = []
    for order in range(1, args.max_order + 1):
        report = conjecture_report(order)
        if args.json:
            reports.append(report)
        else:  # one line per order as soon as it is checked
            print(f"order {order}: largest persimmon loop is the snowflake: "
                  f"{str(report['match']).lower()}", flush=True)
    if args.json:
        print(json.dumps(reports, indent=2))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state, and the subcommands look up library functions at call time."""
    parser = argparse.ArgumentParser(
        prog="hitomezashi",
        description="Encode, analyze and render running-stitch grid patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("render", "draw a pattern from word programs"),
                       ("dual", "draw the reverse side of a pattern")):
        p = sub.add_parser(name, help=text)
        _add_pattern_args(p)
        _add_render_args(p)
        p.set_defaults(func=_cmd_render)

    p = sub.add_parser("analyze", help="loop census, congruence checks, "
                                       "two-coloring")
    _add_pattern_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("self-dual", help="find the translation mapping a "
                                         "pattern onto its dual")
    p.add_argument("--rows", type=_arg(BinaryWord), required=True,
                   metavar="WORD")
    p.add_argument("--cols", type=_arg(BinaryWord), required=True,
                   metavar="WORD")
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
    output = p.add_mutually_exclusive_group()
    output.add_argument("--svg", metavar="PATH")
    output.add_argument("--json", action="store_true")
    p.add_argument("--cell-size", type=int, default=20)
    p.set_defaults(func=_cmd_snowflake)

    p = sub.add_parser("persimmon", help="build a persimmon pattern")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--periods", type=int, default=2)
    # the JSON summary draws nothing, so it refuses --svg and --ascii
    output = p.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true")
    _add_render_args(p, output)
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
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout; send what is still buffered to devnull
        # so that the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # args[0] is the bare errno; str names the path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
