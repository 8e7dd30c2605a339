"""The README's Library example runs and prints what the README shows."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_the_readme_lines():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code, shown = re.findall(r"```(?:python)?\n(.*?)```", section, re.S)[:2]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == shown.splitlines() == ["1 0.708", "21 0.639", "25 0.615", "11 0.562"]
