import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from hitomezashi import cli, tiles
from hitomezashi.cli import main
from hitomezashi.grid import build_grid
from hitomezashi.registry import export_catalog, lookup
from hitomezashi.render import RenderOptions, render_ascii
from hitomezashi.tiles import (persimmon_spec, snowflake, snowflake_boundary,
                               snowflake_cycle)

TABLE1_TEXT = """\
pattern                      perimeter  area  height  width
kuchizashi                           4     1       1      1
jūjizashi                           12     5       3      3
kakinohanazashi                     20    13       5      5
dual sanjū kakinohanazashi          28    25       7      7
sanjū kakinohanazashi               36    41       9      9
igetazashi                          28    17       5      5
"""


def child_env():
    """os.environ with this checkout's src first on PYTHONPATH, for a CLI
    run in a child process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table1(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert out == TABLE1_TEXT


def test_table1_json(capsys):
    code, out, _ = run(capsys, "table1", "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"pattern": "kuchizashi", "perimeter": 4, "area": 1,
                       "height": 1, "width": 1}
    assert len(rows) == 6


def test_self_dual_negative(capsys):
    code, out, _ = run(capsys, "self-dual", "--rows", "0110", "--cols", "011")
    assert code == 0
    assert out == "none\n"


def test_self_dual_positive(capsys):
    code, out, _ = run(capsys, "self-dual", "--rows", "1", "--cols", "1")
    assert code == 0
    assert out == "(1, 1)\n"


def test_self_dual_json(capsys):
    code, out, _ = run(capsys, "self-dual", "--rows", "01", "--cols", "10",
                       "--json")
    assert code == 0
    assert json.loads(out) == {"shift": [1, 0]}


def test_render_ascii(capsys):
    code, out, _ = run(capsys, "render", "--rows", "1", "--cols", "1",
                       "--width", "4", "--height", "4")
    assert code == 0
    assert out == " _   _\n _   _\n|_| |_| |\n _   _\n|_| |_| |\n"


def test_dual_render_differs(capsys):
    args = ("--rows", "1", "--cols", "1", "--width", "4", "--height", "4")
    _, front, _ = run(capsys, "render", *args)
    _, back, _ = run(capsys, "dual", *args)
    assert front != back
    assert "|" in back


def test_render_svg_file(tmp_path, capsys):
    target = tmp_path / "out.svg"
    code, out, _ = run(capsys, "render", "--rows", "1", "--cols", "1",
                       "--width", "4", "--height", "4", "--svg", str(target))
    assert code == 0
    content = target.read_text()
    assert content.count("<line") == 20
    assert str(target) in out


@pytest.mark.parametrize("width", ["inf", "nan", "-inf"])
def test_non_finite_stroke_width_is_domain_error(tmp_path, capsys, width):
    # inf used to end in an OverflowError traceback, nan in a message about
    # converting NaN to an integer
    target = tmp_path / "out.svg"
    code, out, err = run(capsys, "render", "--rows", "1", "--cols", "1",
                         "--width", "4", "--height", "4", "--svg", str(target),
                         f"--stroke-width={width}")
    assert code == 1
    assert out == ""
    assert err == ("error: stroke_width must be positive\n" if width == "-inf"
                   else "error: stroke_width must be finite\n")
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["render", "--rows", "1", "--cols", "1", "--width", "4", "--height", "4",
     "--fill", "--stroke-width", "inf"],
    ["dual", "--rows", "1", "--cols", "1", "--width", "4", "--height", "4",
     "--cell-size", "0"],
    ["persimmon", "--order", "2", "--stroke-width", "nan"],
    ["snowflake", "--order", "2", "--cell-size", "0"],
    ["render", "--rows", "1", "--cols", "1", "--width", "4", "--height", "4",
     "--stroke-width", "1e308"],
])
def test_failed_svg_render_leaves_an_existing_file_as_it_was(tmp_path, capsys,
                                                             argv):
    target = tmp_path / "out.svg"
    target.write_text("earlier drawing\n")
    code, out, err = run(capsys, *argv, "--svg", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert target.read_text() == "earlier drawing\n"


def test_svg_is_written_in_slices(tmp_path, capsys):
    # one write of the whole text would first encode all of it: 8 MiB more
    text = "<svg>" + "x" * (8 << 20) + "</svg>\n"
    target = tmp_path / "out.svg"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write_svg(str(target), text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == f"wrote {target}\n"
    assert target.read_text() == text
    assert peak <= 3 << 20


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--rows", "0110", "--cols", "011",
                       "--width", "12", "--height", "12", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["loops"][0]["area"] == 5
    assert report["theorems_all_hold"] is True


# sha256 of the whole `analyze --json` stdout, taken while every loop was
# still filled and canonicalised: the window where two non-congruent loops
# tie at the top; a piecewise window with nine congruence classes, one of
# them in both 5x3 and 3x5 boxes; and a two-word window with 5275 loops in
# five classes
@pytest.mark.parametrize("rows,cols,width,height,digest", [
    ("11110:2,001:1,10", "10:2,11011", 15, 21,
     "c71b23338b4981a664db1344b367ce2da875c58ff1e52c6986d2c2981741abe7"),
    ("01101:3,001001111", "011011110:4,001001111", 128, 97,
     "cd074e900442ab2dcbd61ba1183be00aeba2195ab97fc51a57397f181c4a9b10"),
    ("0011010", "100101101", 300, 300,
     "b8bbdd8f6d63d781a0ebfa6208c5b61d3745b45061a2f09197564bd004e9a000"),
])
def test_analyze_json_bytes_are_unchanged(capsys, rows, cols, width, height,
                                          digest):
    code, out, _ = run(capsys, "analyze", "--rows", rows, "--cols", cols,
                       "--width", str(width), "--height", str(height),
                       "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The child's own peak RSS: a fresh interpreter, so no earlier child of the
# test run is counted.  At this window the report with one dict per loop and
# one list per coloring row peaked at 203 MB.
PEAK_RSS_SCRIPT = """
import contextlib, os, resource, sys
from hitomezashi.cli import main
with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_analyze_json_peak_rss_at_2000_squared():
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, "analyze", "--rows", "0110",
         "--cols", "011", "--width", "2000", "--height", "2000", "--json"],
        capture_output=True, text=True, env=child_env(), timeout=300)
    assert proc.stderr == ""
    code, kib = proc.stdout.split()
    assert code == "0"
    assert int(kib) / 1024 < 100


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_analyze_json_peak_rss_on_an_aperiodic_1000_squared_window():
    # 70172 loops in 1452 distinct loop dicts: keeping a cycle and a fill
    # per congruence class peaked at 313 MB, keeping the head's only at 129
    rng = random.Random(7)
    rows, cols = ("".join(str(rng.randrange(2)) for _ in range(1001))
                  for _ in range(2))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, "analyze", "--rows", rows,
         "--cols", cols, "--width", "1000", "--height", "1000", "--json"],
        capture_output=True, text=True, env=child_env(), timeout=600)
    assert proc.stderr == ""
    code, kib = proc.stdout.split()
    assert code == "0"
    assert int(kib) / 1024 < 200


def test_analyze_human(capsys):
    code, out, _ = run(capsys, "analyze", "--rows", "1", "--cols", "1",
                       "--width", "4", "--height", "4")
    assert code == 0
    assert "closed loops: 4" in out
    assert "loop congruences hold: True" in out
    assert "two-coloring" in out


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main() reuses one parser per process; each call must parse as if the
    # parser were new, whatever the calls before it set or failed on
    assert cli.build_parser() is cli.build_parser()
    pattern = ("--rows", "1", "--cols", "1", "--width", "4", "--height", "4")
    target = tmp_path / "out.svg"
    calls = [
        ["analyze", *pattern, "--json"],
        ["analyze", *pattern],
        ["render", "--rows", "1"],  # usage error: exits 2
        ["table1"],
        ["render", *pattern, "--fill", "--show-grid", "--svg", str(target)],
        ["render", *pattern],
    ]
    results = []
    for argv in calls:
        fresh = cli.build_parser.__wrapped__()
        try:
            assert cli.build_parser().parse_args(argv) == fresh.parse_args(argv)
            results.append(run(capsys, *argv))
        except SystemExit as exc:
            results.append((exc.code, *capsys.readouterr()))
    codes = [code for code, _, _ in results]
    assert codes == [0, 0, 2, 0, 0, 0]
    outs = [out for _, out, _ in results]
    assert json.loads(outs[0])["width"] == 4
    assert outs[1].startswith("window: 4x4 cells, ")
    assert "closed loops: 4" in outs[1]
    assert "required" in results[2][2]
    assert outs[3] == TABLE1_TEXT
    assert outs[4] == f"wrote {target}\n"
    assert "<rect" in target.read_text()
    assert outs[5] == " _   _\n _   _\n|_| |_| |\n _   _\n|_| |_| |\n"


def test_registry_listing(capsys):
    code, out, _ = run(capsys, "registry")
    assert code == 0
    assert "kuchizashi" in out
    assert "igetazashi" in out


def test_registry_single_entry(capsys):
    code, out, _ = run(capsys, "registry", "kuchizashi")
    assert code == 0
    assert "self-dual: yes" in out
    assert "perimeter=4 area=1" in out


@pytest.mark.parametrize("key", ["kuchizashi", "jujizashi", "yokogushi"])
def test_registry_entry_json(capsys, key):
    code, out, _ = run(capsys, "registry", key, "--json")
    assert code == 0
    assert json.loads(out) == lookup(key).to_dict()
    assert lookup(key).display_name in out  # not ASCII-escaped


def test_registry_catalog_json(capsys):
    code, out, _ = run(capsys, "registry", "--json")
    assert code == 0
    assert json.loads(out) == export_catalog()


def test_registry_unknown_key_is_domain_error(capsys):
    code, _, err = run(capsys, "registry", "nope")
    assert code == 1
    assert "pattern not found" in err


def test_snowflake_json(capsys):
    code, out, _ = run(capsys, "snowflake", "--order", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["area"] == 5
    assert data["perimeter"] == 12
    assert data["boundary"] == "RLLRLLRLLRLL"
    assert data["stitch_width"] == 4


@pytest.mark.parametrize("order", range(1, 7))
def test_snowflake_outputs_match_the_filled_tile(capsys, order):
    tile = snowflake(order)
    perimeter = snowflake_cycle(order).perimeter
    boundary = str(snowflake_boundary(order))
    code, out, _ = run(capsys, "snowflake", "--order", str(order), "--json")
    assert code == 0
    assert json.loads(out) == {
        "order": order, "boundary": boundary, "perimeter": perimeter,
        "area": tile.area, "width": tile.width, "height": tile.height,
        "stitch_width": tile.width + 1,
        "cells": [list(cell) for cell in sorted(tile.cells)],
    }
    code, out, _ = run(capsys, "snowflake", "--order", str(order))
    assert code == 0
    assert out == (f"snowflake order {order}\n"
                   f"  boundary word: {boundary}\n"
                   f"  perimeter: {perimeter}\n"
                   f"  area: {tile.area}\n"
                   f"  bounding box: {tile.width}x{tile.height} cells "
                   f"({tile.width + 1} boundary stitches wide)\n")


def test_snowflake_svg(tmp_path, capsys):
    target = tmp_path / "snow.svg"
    code, _, _ = run(capsys, "snowflake", "--order", "3", "--svg", str(target))
    assert code == 0
    assert "<polygon" in target.read_text()


def test_persimmon_summary(capsys):
    code, out, _ = run(capsys, "persimmon", "--order", "3")
    assert code == 0
    assert "1000110001" in out
    assert "20x20" in out
    assert "(5, 5)" in out


def test_persimmon_json(capsys):
    code, out, _ = run(capsys, "persimmon", "--order", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["word"] == "0110"
    assert data["spec"]["width"] == 8
    assert data["self_dual_shift"] == [2, 2]


@pytest.mark.parametrize("drawing", [["--svg", "{tmp}/p.svg", "--cell-size",
                                      "0"], ["--ascii"]])
def test_persimmon_json_refuses_drawing_flags(tmp_path, capsys, drawing):
    argv = [arg.format(tmp=tmp_path) for arg in drawing]
    with pytest.raises(SystemExit) as excinfo:
        main(["persimmon", "--order", "2", "--json", *argv])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not allowed with argument --json" in err
    assert list(tmp_path.iterdir()) == []


def test_persimmon_ascii(capsys):
    code, out, _ = run(capsys, "persimmon", "--order", "2", "--ascii")
    assert code == 0
    summary, _, art = out.partition("self-dual shift: (2, 2)\n")
    assert summary.startswith("persimmon pattern order 2\n")
    assert art == render_ascii(build_grid(persimmon_spec(2)),
                               RenderOptions()) + "\n"


@pytest.mark.parametrize("option", [["--cell-size", "0"],
                                    ["--stroke-width", "nan"]])
def test_persimmon_ascii_with_a_bad_option_prints_no_report(capsys, option):
    code, out, err = run(capsys, "persimmon", "--order", "2", "--ascii",
                         *option)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["render", "--rows", "01", "--cols", "10", "--width", "3", "--height",
     "3", "--svg", "{tmp}/x.svg", "--ascii"],
    ["dual", "--rows", "01", "--cols", "10", "--width", "3", "--height",
     "3", "--svg", "{tmp}/x.svg", "--ascii"],
    ["snowflake", "--order", "2", "--svg", "{tmp}/x.svg", "--json"],
], ids=["render", "dual", "snowflake"])
def test_one_output_per_command(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not allowed with argument" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["persimmon", "--order", "2", "--json", "--cell-size", "0"],
    ["persimmon", "--order", "2", "--cell-size", "0"],
    ["snowflake", "--order", "2", "--cell-size", "0"],
    ["snowflake", "--order", "2", "--json", "--cell-size", "0"],
], ids=["persimmon-json", "persimmon", "snowflake", "snowflake-json"])
def test_bad_drawing_option_fails_without_a_drawing(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_fill_and_grid_flags_without_a_drawing_change_nothing(capsys, mode):
    plain = run(capsys, "persimmon", "--order", "2", *mode)
    assert plain[0] == 0
    assert run(capsys, "persimmon", "--order", "2", *mode, "--fill",
               "--show-grid") == plain


def test_verify_conjecture(capsys):
    code, out, _ = run(capsys, "verify-conjecture", "--max-order", "2")
    assert code == 0
    assert out.splitlines() == [
        "order 1: largest persimmon loop is the snowflake: true",
        "order 2: largest persimmon loop is the snowflake: true",
    ]


def test_verify_conjecture_json(capsys):
    code, out, _ = run(capsys, "verify-conjecture", "--max-order", "3",
                       "--json")
    assert code == 0
    reports = json.loads(out)
    assert [r["match"] for r in reports] == [True, True, True]
    assert reports[2] == {
        "order": 3,
        "window": [20, 20],
        "largest_loop": {"perimeter": 52, "area": 29, "height": 9, "width": 9},
        "snowflake": {"perimeter": 52, "area": 29},
        "match": True,
    }


def test_malformed_word_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["self-dual", "--rows", "012", "--cols", "1"])
    assert excinfo.value.code == 2


def test_bad_repeat_count_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["render", "--rows", "01:x", "--cols", "1",
              "--width", "4", "--height", "4"])
    assert excinfo.value.code == 2
    assert "bad repeat count 'x'" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["render", "--rows", "1"])
    assert excinfo.value.code == 2


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "render", "--rows", "01:1", "--cols", "1",
                       "--width", "4", "--height", "8")
    assert code == 1
    assert "program underflow" in err


@pytest.mark.parametrize("argv", [
    ["render", "--rows", "1", "--cols", "1", "--width", "2", "--height", "2",
     "--svg", "{tmp}/missing-dir/x.svg"],
    ["snowflake", "--order", "2", "--svg", "{tmp}"],
])
def test_unwritable_output_path_is_domain_error(tmp_path, capsys, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert argv[-1] in err and "Traceback" not in err


def test_empty_fixed_word_with_a_huge_count_returns_at_once():
    for rows, code, err in ((":1000000000", 1, b"error: program underflow\n"),
                            (":1000000000,1", 0, b"")):
        proc = subprocess.run(
            [sys.executable, "-m", "hitomezashi.cli", "render", "--rows", rows,
             "--cols", "1", "--width", "2", "--height", "2"],
            capture_output=True, env=child_env(), timeout=10)
        assert (proc.returncode, proc.stderr) == (code, err)


def test_empty_encoding_is_domain_error(capsys):
    code, _, err = run(capsys, "self-dual", "--rows", "", "--cols", "")
    assert code == 1
    assert "empty encoding" in err


def test_snowflake_order_out_of_range(capsys):
    # order 1200 used to overflow the recursive word builder
    code, out, err = run(capsys, "snowflake", "--order", "1200")
    assert code == 1
    assert out == ""
    assert err == "error: --order must be between 1 and 9\n"


def test_persimmon_order_out_of_range(capsys):
    code, out, err = run(capsys, "persimmon", "--order", "10", "--json")
    assert code == 1
    assert out == ""
    assert err == "error: --order must be between 1 and 9\n"


def test_verify_conjecture_max_order_out_of_range(capsys):
    # --max-order 0 used to print nothing and succeed
    code, out, err = run(capsys, "verify-conjecture", "--max-order", "0")
    assert code == 1
    assert out == ""
    assert err == "error: --max-order must be between 1 and 12\n"


def stub_reports(monkeypatch, on_call=None):
    """Replace the conjecture check by a stub that records the orders asked
    for; order 1 is reported as a match and every other order not."""
    orders = []

    def report(order):
        if on_call:
            on_call(order)
        orders.append(order)
        return {"order": order, "match": order == 1}

    monkeypatch.setattr(cli, "conjecture_report", report)
    return orders


def test_verify_conjecture_runs_up_to_order_12(capsys, monkeypatch):
    orders = stub_reports(monkeypatch)
    code, out, _ = run(capsys, "verify-conjecture", "--max-order", "12")
    assert code == 0
    assert orders == list(range(1, 13))
    assert out.splitlines()[-1] == \
        "order 12: largest persimmon loop is the snowflake: false"
    orders.clear()
    code, out, err = run(capsys, "verify-conjecture", "--max-order", "13")
    assert (code, out, orders) == (1, "", [])
    assert err == "error: --max-order must be between 1 and 12\n"


def test_order_the_torus_cannot_vouch_for_is_a_domain_error(capsys,
                                                            monkeypatch):
    # orders 1-10 are stubbed; order 11 runs with the torus census failing
    # its conditions
    real = cli.conjecture_report

    def report(order):
        return {"match": True} if order < 11 else real(order)

    monkeypatch.setattr(cli, "conjecture_report", report)
    monkeypatch.setattr(tiles, "_torus_largest", lambda word: None)
    code, out, err = run(capsys, "verify-conjecture", "--max-order", "11")
    assert code == 1
    assert out.splitlines() == [
        f"order {order}: largest persimmon loop is the snowflake: true"
        for order in range(1, 11)]
    assert err == "error: order 11: the torus census cannot vouch for the " \
        "largest loop\n"


def test_verify_conjecture_prints_each_order_once_checked(capsys,
                                                          monkeypatch):
    seen = []

    def on_call(order):
        if order == 2:
            seen.append(capsys.readouterr().out)

    stub_reports(monkeypatch, on_call)
    code, out, _ = run(capsys, "verify-conjecture", "--max-order", "2")
    assert code == 0
    assert seen == ["order 1: largest persimmon loop is the snowflake: true\n"]
    assert out == "order 2: largest persimmon loop is the snowflake: false\n"


def refuse_to_build(spec):
    raise AssertionError("the window was built")


HUGE = ["--rows", "01", "--cols", "1", "--width", "100000",
        "--height", "100001"]


@pytest.mark.parametrize("argv", [
    ["render", *HUGE],
    ["dual", *HUGE],
    ["analyze", *HUGE, "--json"],
    ["persimmon", "--order", "9", "--periods", "1000"],
    ["persimmon", "--order", "9", "--periods", "1000", "--ascii"],
])
def test_oversized_window_is_refused_before_it_is_built(capsys, monkeypatch,
                                                        argv):
    monkeypatch.setattr(cli, "build_grid", refuse_to_build)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: window of ")
    assert err.endswith(" cells exceeds 100000000 cells\n")
    assert err.count("\n") == 1


def first_line_then_close(*argv):
    """Run the CLI in a child process, read one line of its stdout, close
    that pipe and return the line, the exit code and the child's stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "hitomezashi.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env())
    line = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return line, proc.wait(timeout=60), err


def test_closed_stdout_exits_quietly():
    # the reader stops after one line while the order-7 ASCII art (about
    # 1.8 MB, far more than a pipe holds) is still being written
    assert first_line_then_close("persimmon", "--order", "7", "--ascii") == (
        b"persimmon pattern order 7\n", 1, b"")


def test_closed_stdout_ends_streamed_json_quietly():
    # the reader stops after the opening brace while the 300x300 report
    # (about 2.8 MB of JSON) is still being written piece by piece
    assert first_line_then_close(
        "analyze", "--rows", "0110", "--cols", "011", "--width", "300",
        "--height", "300", "--json") == (b"{\n", 1, b"")
