"""The README's examples run against the code: its JSON config through every
trajectory and evaluation command, its Python block, and every module
attribute it names."""

import builtins
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import trireduce
from trireduce.cli import load_config, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = sorted(info.name for info in pkgutil.iter_modules(trireduce.__path__))


def fenced(language):
    """The README's code blocks fenced as the language."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


@pytest.fixture
def config(tmp_path):
    (block,) = fenced("json")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(json.loads(block)))
    return str(path)


@pytest.mark.parametrize("command", ["simulate", "evaluate", "collinear-report"])
def test_config_runs(tmp_path, config, command):
    assert main([command, "--config", config, "--out", str(tmp_path / "out.csv")]) == 0


def test_python_block_runs(config):
    (block,) = fenced("python")
    cfg = load_config(config)
    exec(block, {"masses": cfg.masses, "state": cfg.state, "potential": cfg.potential})


SPANS = re.findall(r"`([^`\n]+)`", README)


def test_named_attributes_exist():
    pattern = rf"(?<![\w.])(?:trireduce\.)?({'|'.join(MODULES)})\.([A-Za-z_]\w*)"
    named = {found for span in SPANS for found in re.findall(pattern, span)}
    assert named  # the README names module attributes
    missing = [
        f"{module}.{name}"
        for module, name in sorted(named)
        if not hasattr(importlib.import_module(f"trireduce.{module}"), name)
    ]
    assert missing == []
    # a CamelCase name in a code span, not module-qualified, is an attribute
    # of a trireduce module or a builtin (`ValueError`); `NaN` is not CamelCase
    classes = {
        found
        for span in SPANS
        for found in re.findall(r"(?<![\w.])[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]+)+\b", span)
    }
    assert classes  # the README names classes
    modules = [importlib.import_module(f"trireduce.{module}") for module in MODULES]
    unknown = [
        name
        for name in sorted(classes)
        if not any(hasattr(owner, name) for owner in (builtins, *modules))
    ]
    assert unknown == []
