"""The README's library quick start runs and prints the prices it shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_documented_prices():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().split()
    assert printed == ["14.225630416482327", "14.225630416482332", "28.06324045379767"]
    # The comments in the block show the same numbers.
    assert re.findall(r"#\s*(.+)", code) == [
        "14.225630416482327 14.225630416482332",
        "28.06324045379767",
    ]
