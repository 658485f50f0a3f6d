"""Names the benchmark reads must exist in the library.

The traced benchmark wraps the public functions of each layer by name and
reports ``<layer>.<function>.calls`` and ``<layer>.<function>.s`` for the
functions listed in ``BENCHMARK.json``.  A rename would otherwise only
show as a missing key in a traced run.
"""

import importlib
import json
import types
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _function_metrics():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return [
        n.split(".")[:2]
        for n in names
        if n.endswith((".calls", ".s")) and n.count(".") == 2
    ]


def test_per_layer_functions_are_public_functions_of_their_layer():
    pairs = _function_metrics()
    assert pairs
    for layer, name in pairs:
        module = importlib.import_module(f"chowfan.{layer}")
        obj = vars(module).get(name)
        assert not name.startswith("_"), f"{layer}.{name} is private"
        assert isinstance(obj, types.FunctionType), f"no function {layer}.{name}"
        assert obj.__module__ == module.__name__, f"{layer}.{name} is imported"
