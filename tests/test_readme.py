"""README examples against the command line and library that they
describe."""

import re
from pathlib import Path

import pytest

from hitomezashi import cli
from hitomezashi.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def run(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_table1_block_is_the_table1_output(capsys):
    block = re.search(r"`table1` output, for reference:\n\n```\n(.*?)```",
                      README, re.S)
    assert block is not None
    assert block.group(1) == run(capsys, ["table1"])


def test_self_dual_examples_print_what_they_say(capsys):
    examples = re.findall(
        r'^hitomezashi self-dual --rows (\S+) --cols (\S+)\s+# prints "(.*)"$',
        README, re.M)
    assert [printed for _, _, printed in examples] == ["(1, 0)", "none"]
    for rows, cols, printed in examples:
        assert run(capsys, ["self-dual", "--rows", rows, "--cols", cols]) \
            == printed + "\n"


@pytest.mark.parametrize("flag,limit", [
    ("--order", cli.MAX_ORDER),
    ("--max-order", cli.MAX_CONJECTURE_ORDER),
])
def test_stated_order_ranges_are_the_cli_limits(flag, limit):
    stated = re.findall(rf"`{flag}` outside 1-(\d+)", README)
    assert stated == [str(limit)]


def test_library_example_prints_what_its_comments_say(capsys):
    block = re.search(r"^## Library\n\n```python\n(.*?)```", README,
                      re.S | re.M)
    assert block is not None
    comments = re.findall(r"^print\(.*#\s*(.*)$", block.group(1), re.M)
    assert len(comments) == 4
    exec(block.group(1), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(comments)
    # a comment is the printed line, then a remark after a comma
    for line, comment in zip(printed, comments):
        assert comment == line or comment.startswith(line + ","), \
            (line, comment)
