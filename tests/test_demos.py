"""Every demo script runs to completion, and every SVG it writes equals
the committed copy in demos/output/ byte for byte.

Each runs from a copy in a temporary directory, since demo 05 writes its
SVGs into an output/ directory next to itself.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUTPUT = ROOT / "demos" / "output"


def test_every_demo_is_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
    written = sorted((tmp_path / "output").glob("*.svg"))
    if demo.stem.startswith("05_"):
        # one filled, highlighted render_svg document and two
        # render_cycle_svg ones
        assert [path.name for path in written] == [
            "persimmon_3.svg", "snowflake_3.svg", "snowflake_4.svg"]
    for path in written:
        assert path.read_bytes() == (OUTPUT / path.name).read_bytes(), \
            path.name
