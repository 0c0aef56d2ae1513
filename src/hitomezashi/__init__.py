"""Running-stitch grid patterns from binary words: encoding, duality, loop
analysis, snowflake tiles and rendering."""

from .words import (BinaryWord, TurnWord, fibonacci, pell, pell_word,
                    fib_turtle_word)
from .grid import (ProgramSegment, WordProgram, PatternSpec, StitchGrid,
                   expand_program, build_grid, is_self_dual)
from .loops import (LatticeCycle, Polyomino, LoopStats, TheoremReport,
                    extract_components, cycle_to_polyomino, loop_stats,
                    check_loop_theorems, largest_loop, two_color,
                    centred_square_check, analyze_grid)
from .tiles import (trace_turtle, snowflake, snowflake_boundary,
                    snowflake_cycle, persimmon_word, persimmon_spec,
                    verify_conjecture, conjecture_report)
from .registry import PatternEntry, lookup, list_all, table1, export_catalog
from .render import (RenderOptions, render_ascii, render_svg,
                     render_cycle_svg)

__version__ = "0.1.0"

__all__ = [
    "BinaryWord", "TurnWord", "fibonacci", "pell", "pell_word",
    "fib_turtle_word",
    "ProgramSegment", "WordProgram", "PatternSpec", "StitchGrid",
    "expand_program", "build_grid", "is_self_dual",
    "LatticeCycle", "Polyomino", "LoopStats", "TheoremReport",
    "extract_components", "cycle_to_polyomino",
    "loop_stats", "check_loop_theorems", "largest_loop", "two_color",
    "centred_square_check", "analyze_grid",
    "trace_turtle", "snowflake", "snowflake_boundary", "snowflake_cycle",
    "persimmon_word", "persimmon_spec", "verify_conjecture",
    "conjecture_report",
    "PatternEntry", "lookup", "list_all", "table1", "export_catalog",
    "RenderOptions", "render_ascii", "render_svg", "render_cycle_svg",
    "__version__",
]
