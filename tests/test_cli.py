import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hitomezashi.cli import main

TABLE1_TEXT = """\
pattern                      perimeter  area  height  width
kuchizashi                           4     1       1      1
jūjizashi                           12     5       3      3
kakinohanazashi                     20    13       5      5
dual sanjū kakinohanazashi          28    25       7      7
sanjū kakinohanazashi               36    41       9      9
igetazashi                          28    17       5      5
"""


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


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--rows", "0110", "--cols", "011",
                       "--width", "12", "--height", "12", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["loops"][0]["area"] == 5
    assert report["theorems_all_hold"] is True


def test_analyze_human(capsys):
    code, out, _ = run(capsys, "analyze", "--rows", "1", "--cols", "1",
                       "--width", "4", "--height", "4")
    assert code == 0
    assert "closed loops: 4" in out
    assert "loop congruences hold: True" in out
    assert "two-coloring" in out


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


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["render", "--rows", "1"])
    assert excinfo.value.code == 2


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "render", "--rows", "01:1", "--cols", "1",
                       "--width", "4", "--height", "8")
    assert code == 1
    assert "program underflow" in err


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
    assert err == "error: --max-order must be between 1 and 9\n"


def test_closed_stdout_exits_quietly():
    # the reader stops after one line while the order-7 ASCII art (about
    # 1.8 MB, far more than a pipe holds) is still being written
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hitomezashi.cli", "persimmon", "--order", "7",
         "--ascii"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"persimmon pattern order 7\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
