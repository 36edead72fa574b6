"""The README's code examples run against the current API."""

import importlib
import json
import pathlib
import re

from sindex.pipeline import PipelineConfig

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)


def test_readme_quick_start_runs():
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})


def test_readme_config_example_parses():
    (text,) = _blocks("json")
    doc = json.loads(text)
    echo = PipelineConfig.from_dict(doc).to_dict()
    for key in ("pilot", "penalty", "inference", "split"):
        assert echo[key] == doc[key]


def test_readme_module_paths_resolve():
    # Every `sindex.<module>[.<name>]` the README names can be imported.
    paths = sorted(set(re.findall(r"`(sindex(?:\.\w+)+)`", README)))
    assert "sindex.deconv" in paths
    for path in paths:
        module, _, name = path.partition(".")[2].partition(".")
        target = importlib.import_module(f"sindex.{module}")
        for attr in filter(None, name.split(".")):
            target = getattr(target, attr)
