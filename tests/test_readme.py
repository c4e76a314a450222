"""The README's examples run and print what it shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from mpspricer.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_documented_prices():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().split()
    assert printed == ["14.225630416482241", "14.225630416482332", "28.063240453797597"]
    # The comments in the block show the same numbers.
    assert re.findall(r"#\s*(.+)", code) == [
        "14.225630416482241 14.225630416482332",
        "28.063240453797597",
    ]


def test_command_examples_print_documented_bytes():
    """Each `mpspricer ...` block and the output block after it."""
    text = README.read_text(encoding="utf-8")
    examples = re.findall(
        r"```sh\n(mpspricer .*?)```\s*```(?:json|csv)\n(.*?)```", text, re.S
    )
    runs = [(shlex.split(cmd.replace("\\\n", " "))[1:], shown) for cmd, shown in examples]
    assert [argv[0] for argv, _ in runs] == ["price-asian"]
    for argv, shown in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == shown
