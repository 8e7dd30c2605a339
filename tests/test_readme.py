"""The README's Library example runs and prints what the README shows, and
its config example is a complete, valid config."""

import contextlib
import dataclasses
import io
import json
import pathlib
import re

from morphdet.cli import load_experiment_config
from morphdet.experiments import ExperimentConfig

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_the_readme_lines():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code, shown = re.findall(r"```(?:python)?\n(.*?)```", section, re.S)[:2]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    # The first four lines are every class's top detections; the last two the on-demand call's, novel classes only.
    on_demand = ["21 0.639", "25 0.615"]
    assert out.getvalue().splitlines() == shown.splitlines() == ["1 0.708", "21 0.639", "25 0.615", "11 0.562", *on_demand]


def test_config_example_is_a_full_valid_config(tmp_path):
    example = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    data = json.loads(example)
    assert sorted(data) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
    path = tmp_path / "config.json"
    path.write_text(example, encoding="utf-8")
    load_experiment_config(str(path))
