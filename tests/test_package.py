import importlib
import inspect
import json
import types
from pathlib import Path

import qarfcs


def test_public_names_resolve():
    names = qarfcs.__all__
    assert len(set(names)) == len(names) == 54
    for name in names:
        assert not isinstance(getattr(qarfcs, name), types.ModuleType)
    assert {"ContinuationError", "PRESET_IDS", "charpoly", "cgf", "grid_scan"} <= set(names)
    assert "__version__" not in names


# per-layer metrics that do not name a function
_NOT_FUNCTIONS = {"trace.overhead_frac", "scan.bytes_written"}


def test_benchmark_layer_names_are_module_level_functions():
    # the benchmark times each per_layer name by patching <module>.<function>;
    # a deleted or renamed function stops its run with "workload did not measure"
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = {entry["name"] for entry in bench["per_layer"]} - _NOT_FUNCTIONS
    layers = {name.rsplit(".", 1)[0] for name in names}
    assert len(layers) > 20
    for layer in sorted(layers):
        module_name, name = layer.split(".")
        module = importlib.import_module(f"qarfcs.{module_name}")
        func = getattr(module, name, None)
        assert inspect.isfunction(func), layer
        assert (func.__module__, func.__qualname__) == (module.__name__, name), layer
