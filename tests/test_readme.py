"""The README's Python examples run as written against this checkout."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_round_trip_runs():
    (block,) = python_blocks()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    dot = out.getvalue()
    assert dot.startswith("// tracking graph") and dot.rstrip().endswith("}")
    assert "n0_0 -> n1_0" in dot
