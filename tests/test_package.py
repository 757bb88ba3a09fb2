"""The package root: each submodule is reachable under its own name."""

from __future__ import annotations

import subprocess
import sys

import pytest

MODULES = ("backends", "cli", "decompose", "expand", "fim", "jsonl", "similarity", "stats", "synth")


@pytest.mark.parametrize("name", MODULES)
def test_a_submodule_import_gives_the_module(name):
    namespace: dict = {}
    exec(f"import stepfim.{name} as m\nfrom stepfim import {name} as attr", namespace)
    module = sys.modules[f"stepfim.{name}"]
    assert namespace["m"] is module
    assert namespace["attr"] is module


def test_importing_one_module_loads_only_it_and_its_dependencies():
    code = "import sys, stepfim.jsonl\nprint(sorted(n for n in sys.modules if n.startswith('stepfim')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['stepfim', 'stepfim.jsonl']\n"
