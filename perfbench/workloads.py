"""Inputs, jobs and output checks of the three benchmark workloads.

Every workload is a closed loop with one caller: one process runs one job at
a time and waits for its result, as a user of this batch tool does.

persimmon  ``conjecture_report(n)`` for n = 1..6, the paper's headline check.
           Dominated by loop tracing, fill and canonical forms on one large
           window; it never two-colours or renders.
census     one seeded random pattern issued through ``cli.main``:
           ``self-dual`` on its words, ``analyze --json`` on its window and
           ``table1 --json``.  Many small and medium grids, a canonical hash
           for every loop, and the CLI's JSON output.
render     one seeded random pattern on a 240-320 window: grid, two-colouring,
           filled SVG and the ASCII art of the grid and of its dual.  It
           never traces a loop.

Inputs are plain data made from the seed; the library only sees the
``PatternSpec``s and CLI argv built from them.  The output checks here use
their own arithmetic (program expansion, stitch presence, Pell numbers), not
the library's, so that a wrong library answer cannot check itself.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import hitomezashi as hz
from hitomezashi import PatternSpec, RenderOptions, WordProgram, cli

PERSIMMON_ORDERS = tuple(range(1, 7))
CENSUS_POOL = 400
RENDER_POOL = 64
# Every block of ten census inputs holds these kinds in a seeded order, so
# the shares are the same whatever the seed.
CENSUS_KINDS = ("plain",) * 3 + ("piecewise",) * 3 + ("one-family",) * 2 \
    + ("self-dual",) * 2
FILL = RenderOptions(fill_two_coloring=True)
# R2 low-discrepancy sequence (constants 1/g and 1/g^2, g the plastic number)
R2 = (0.7548776662466927, 0.5698402909980532)
FLIP = str.maketrans("01", "10")
TABLE1 = [
    {"pattern": "kuchizashi", "perimeter": 4, "area": 1, "height": 1,
     "width": 1},
    {"pattern": "jūjizashi", "perimeter": 12, "area": 5, "height": 3,
     "width": 3},
    {"pattern": "kakinohanazashi", "perimeter": 20, "area": 13, "height": 5,
     "width": 5},
    {"pattern": "dual sanjū kakinohanazashi", "perimeter": 28, "area": 25,
     "height": 7, "width": 7},
    {"pattern": "sanjū kakinohanazashi", "perimeter": 36, "area": 41,
     "height": 9, "width": 9},
    {"pattern": "igetazashi", "perimeter": 28, "area": 17, "height": 5,
     "width": 5},
]


@dataclass(frozen=True)
class Pattern:
    """One generated pattern: program texts ("" for a missing family), the
    words given to ``self-dual``, and the window in cells."""

    kind: str
    rows: str
    cols: str
    row_word: str
    col_word: str
    width: int
    height: int

    @property
    def cells(self) -> int:
        return self.width * self.height


def pell(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, 2 * b + a
    return a


def expand(program: str, count: int):
    """Phase bits of a ``word[:count],...`` program, or None when empty."""
    if program == "":
        return None
    bits: list[int] = []
    for token in program.split(","):
        word, _, repeats = token.partition(":")
        if repeats:
            bits.extend(int(c) for c in word * int(repeats))
        else:
            while len(bits) < count:
                bits.extend(int(c) for c in word)
    return bits[:count]


def segment_count(row_bits, col_bits, width: int, height: int) -> int:
    """Stitches present: on a line of phase b, the x with x + b odd."""
    rows = sum(width // 2 if b == 0 else (width + 1) // 2
               for b in row_bits) if row_bits is not None else 0
    cols = sum(height // 2 if b == 0 else (height + 1) // 2
               for b in col_bits) if col_bits is not None else 0
    return rows + cols


def coloring_problems(row_bits, col_bits, width: int, height: int,
                      matrix) -> list[str]:
    """Check a two-colouring (``matrix[y][x]``, bottom row first) of a window
    at least two cells wide and high.

    Cells across an absent interior stitch share a region, so they agree.
    With both families stitched, cells across a present stitch lie in
    different regions and differ.  With one family, every present stitch
    has an absent neighbour on its line, so the two sides are one region
    and agree as well.
    """
    two_families = row_bits is not None and col_bits is not None
    bad = 0
    for y in range(height):
        row = matrix[y]
        for x in range(1, width):
            differ = two_families and (y + col_bits[x]) % 2 == 1
            bad += (row[x - 1] != row[x]) != differ
    for y in range(1, height):
        below, row = matrix[y - 1], matrix[y]
        for x in range(width):
            differ = two_families and (x + row_bits[y]) % 2 == 1
            bad += (below[x] != row[x]) != differ
    return [f"two-colouring improper across {bad} stitch positions"] \
        if bad else []


def _word(rng: random.Random, lo: int = 1, hi: int = 12) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


def _sides(rng: random.Random, count: int, lo: int, hi: int):
    """Window sides from a seeded R2 sequence: every prefix of it covers the
    side range evenly, so a run's size mix, and with it the median job time,
    barely depends on the seed or on how many jobs fit into the run."""
    start = (rng.random(), rng.random())
    span = hi - lo + 1
    return [tuple(lo + int(((s + i * a) % 1.0) * span)
                  for s, a in zip(start, R2)) for i in range(count)]


def census_inputs(seed: int) -> list[Pattern]:
    rng = random.Random(f"census-{seed}")
    kinds: list[str] = []
    while len(kinds) < CENSUS_POOL:
        block = list(CENSUS_KINDS)
        rng.shuffle(block)
        kinds.extend(block)
    patterns = []
    for kind, (width, height) in zip(kinds, _sides(rng, CENSUS_POOL, 16, 128)):
        row, col = _word(rng), _word(rng)
        rows, cols = row, col
        if kind == "piecewise":
            rows = f"{_word(rng)}:{rng.randint(1, 4)},{row}"
            if rng.random() < 0.5:
                cols = f"{_word(rng)}:{rng.randint(1, 4)},{col}"
        elif kind == "one-family":
            if rng.random() < 0.5:
                rows = row = ""
            else:
                cols = col = ""
        elif kind == "self-dual":
            # u + complement(u) with |u| odd is mapped onto its dual by a
            # shift of |u| along its own lines, whatever the other word is.
            u = "".join(rng.choice("01") for _ in range(rng.choice((1, 3, 5))))
            if rng.random() < 0.5:
                rows = row = u + u.translate(FLIP)
            else:
                cols = col = u + u.translate(FLIP)
        patterns.append(Pattern(kind, rows, cols, row, col, width, height))
    return patterns


def render_inputs(seed: int) -> list[Pattern]:
    rng = random.Random(f"render-{seed}")
    patterns = []
    for width, height in _sides(rng, RENDER_POOL, 240, 320):
        row, col = _word(rng), _word(rng)
        patterns.append(Pattern("plain", row, col, row, col, width, height))
    return patterns


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


# Each run hashes the outputs of the workload's first ``digest_jobs`` inputs
# and runs at least that many jobs, however slow, so runs with one seed
# compare byte for byte.

class Persimmon:
    name = "persimmon"
    digest_jobs = 1

    def inputs(self, seed: int) -> list[tuple[int, ...]]:
        return [PERSIMMON_ORDERS]  # fixed by order: the seed is not used

    def prepare(self, orders):
        return orders

    def describe(self, orders) -> tuple[int, list[int], str]:
        sides = [4 * pell(n) for n in orders]
        return sum(s * s for s in sides), sides, "persimmon"

    def job(self, orders):
        return [hz.conjecture_report(n) for n in orders]

    def check(self, orders, reports) -> tuple[list[str], bytes]:
        problems = []
        for n, report in zip(orders, reports):
            loop, tile = report["largest_loop"], report["snowflake"]
            side = 4 * pell(n)
            if report["order"] != n or report["window"] != [side, side]:
                problems.append(f"order {n}: wrong order or window")
            if not report["match"]:
                problems.append(f"order {n}: largest loop is not the "
                                f"snowflake")
            if loop["area"] != pell(2 * n - 1):
                problems.append(f"order {n}: area {loop['area']} is not "
                                f"pell({2 * n - 1})")
            if loop["perimeter"] != tile["perimeter"]:
                problems.append(f"order {n}: perimeter differs from the "
                                f"snowflake's")
        if len(reports) != len(orders):
            problems.append("missing reports")
        return problems, json.dumps(reports, sort_keys=True).encode()


class _Patterns:
    def describe(self, p: Pattern) -> tuple[int, list[int], str]:
        return p.cells, [p.width, p.height], p.kind


class Census(_Patterns):
    name = "census"
    digest_jobs = 100

    def inputs(self, seed: int) -> list[Pattern]:
        return census_inputs(seed)

    def prepare(self, p: Pattern) -> list[list[str]]:
        window = ["--width", str(p.width), "--height", str(p.height)]
        return [
            ["self-dual", "--rows", p.row_word, "--cols", p.col_word,
             "--json"],
            ["analyze", "--rows", p.rows, "--cols", p.cols, *window,
             "--json"],
            ["table1", "--json"],
        ]

    def job(self, calls):
        return [_cli(argv) for argv in calls]

    def cli_counts(self, results) -> dict[str, int]:
        """What the job's CLI calls returned, counted where they return."""
        return {"cli.out_bytes": sum(len(out.encode())
                                     for _, out, _ in results),
                "cli.exit_nonzero": sum(code != 0 for code, _, _ in results)}

    def check(self, p: Pattern, results) -> tuple[list[str], bytes]:
        outputs = b"".join(out.encode() for _, out, _ in results)
        problems = [f"{name} exited {code}: {err.strip()}"
                    for (code, _, err), name in
                    zip(results, ("self-dual", "analyze", "table1"))
                    if code != 0]
        if problems:
            return problems, outputs
        try:
            shift, report, table = (json.loads(out) for _, out, _ in results)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"], outputs
        if p.kind == "self-dual" and shift["shift"] is None:
            problems.append("self-dual words reported as not self-dual")
        if not report["theorems_all_hold"]:
            problems.append("a loop congruence failed")
        if (report["width"], report["height"]) != (p.width, p.height):
            problems.append("analyze reports the wrong window")
        row_bits = expand(p.rows, p.height + 1)
        col_bits = expand(p.cols, p.width + 1)
        if report["segment_count"] != segment_count(row_bits, col_bits,
                                                    p.width, p.height):
            problems.append("analyze reports the wrong stitch count")
        problems += coloring_problems(row_bits, col_bits, p.width, p.height,
                                      report["two_coloring"])
        if table != TABLE1:
            problems.append("table1 differs from the paper's table")
        return problems, outputs


class Render(_Patterns):
    name = "render"
    digest_jobs = 16

    def inputs(self, seed: int) -> list[Pattern]:
        return render_inputs(seed)

    def prepare(self, p: Pattern) -> PatternSpec:
        return PatternSpec("bench", WordProgram.parse(p.rows),
                           WordProgram.parse(p.cols), p.width, p.height)

    def job(self, spec: PatternSpec):
        grid = hz.build_grid(spec)
        coloring = hz.two_color(grid)
        svg = hz.render_svg(grid, FILL, coloring=coloring)
        return (coloring, svg, hz.render_ascii(grid),
                hz.render_ascii(grid.dual()))

    def check(self, p: Pattern, result) -> tuple[list[str], bytes]:
        coloring, svg, ascii_art, dual_art = result
        W, H = p.width, p.height
        row_bits = expand(p.rows, H + 1)
        col_bits = expand(p.cols, W + 1)
        problems = []
        if svg.count("<line ") != segment_count(row_bits, col_bits, W, H):
            problems.append("SVG stitch line count is wrong")
        if svg.count("<rect ") != W * H:
            problems.append("SVG fill rect count is wrong")
        for art in (ascii_art, dual_art):
            if art.count("\n") + 1 != H + 1:
                problems.append("ASCII art does not have H+1 lines")
        if len(coloring) != W * H:
            problems.append("two-colouring does not cover the window")
        else:
            matrix = [[coloring[(x, y)] for x in range(W)] for y in range(H)]
            problems += coloring_problems(row_bits, col_bits, W, H, matrix)
        return problems, "".join((svg, ascii_art, dual_art)).encode()


WORKLOADS = {w.name: w for w in (Persimmon(), Census(), Render())}
