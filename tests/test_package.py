import dataclasses
import importlib
import inspect
import json
import types
from pathlib import Path

import qarfcs


def test_public_names_resolve():
    names = qarfcs.__all__
    assert len(set(names)) == len(names) == 50
    for name in names:
        assert not isinstance(getattr(qarfcs, name), types.ModuleType)
    assert {"ContinuationError", "PRESET_IDS", "charpoly", "cgf", "grid_scan"} <= set(names)
    assert "__version__" not in names
    # folded into what they wrapped: the current command, charpoly(m).adjugate
    # and generator_from_tables
    for gone in ("FcsReport", "fcs_report", "adjugate", "bath_generator"):
        assert gone not in names and not hasattr(qarfcs, gone)


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


# keys every BENCH_*.json entry carries; later entries add "layers_moved" and "notes"
_BENCH_KEYS = {
    "change", "claim", "environment", "parent_commit", "per_layer_trace1", "protocol", "workloads",
}


def test_bench_entries_cover_the_benchmark():
    # every speed claim points to a BENCH entry; each entry must stay readable against
    # BENCHMARK.json: all its workloads, and a claim (if any) on one end-to-end metric
    root = Path(__file__).resolve().parents[1]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    entries = sorted(root.glob("BENCH_*.json"))
    assert entries
    for path in entries:
        entry = json.loads(path.read_text())
        assert _BENCH_KEYS <= set(entry), path.name
        assert workloads <= set(entry["workloads"]), path.name
        claim = entry["claim"]
        if claim is not None:
            assert claim["workload"] in workloads and claim["metric"] in metrics, path.name


_NO_DEFAULT = inspect.Parameter.empty


def _parameters(func) -> list[tuple[str, object]]:
    return [(p.name, p.default) for p in inspect.signature(func).parameters.values()]


def test_public_parameter_lists_are_pinned():
    # each setting below is one that the library, the CLI or the benchmark
    # passes; fixed numbers live as constants in the code that uses them
    assert _parameters(qarfcs.cgf) == [("family", _NO_DEFAULT), ("s", _NO_DEFAULT)]
    assert _parameters(qarfcs.numeric_cumulants) == [("family", _NO_DEFAULT)]
    assert _parameters(qarfcs.preset) == [
        ("model_id", _NO_DEFAULT), ("e21", _NO_DEFAULT), ("beta_h", _NO_DEFAULT),
        ("e31", 1.0), ("beta_c", 1.0), ("beta_w", 0.1), ("omega_c", 10.0), ("gamma", 1e-3),
    ]
    assert _parameters(qarfcs.random_connected_model) == [
        ("rng", _NO_DEFAULT), ("n_levels", None), ("n_baths", None), ("topology", "tree"),
    ]
    # noise refuses by one fixed rule, which no caller can move
    assert _parameters(qarfcs.noise) == [("model", _NO_DEFAULT), ("bath", _NO_DEFAULT)]
    for func in (qarfcs.heat_current, qarfcs.direct_current):
        assert _parameters(func) == [("model", _NO_DEFAULT), ("bath", _NO_DEFAULT)]
    for func in (qarfcs.cooling_condition, qarfcs.conservation_residual):
        assert _parameters(func) == [("model", _NO_DEFAULT)]
    assert _parameters(qarfcs.steady_state) == [("l0", _NO_DEFAULT)]
    assert _parameters(qarfcs.build_counting_family) == [
        ("model", _NO_DEFAULT), ("counted_bath", _NO_DEFAULT),
    ]
    assert _parameters(qarfcs.fluctuation_symmetry_check) == [
        ("model", _NO_DEFAULT), ("s_samples", _NO_DEFAULT),
    ]
    assert _parameters(qarfcs.grid_scan) == [
        ("preset_id", _NO_DEFAULT), ("n_e21", 101), ("n_betaH", 101), ("overrides", None),
        ("e21_axis", None), ("betaH_axis", None),
    ]
    assert _parameters(qarfcs.line_scan) == [
        ("preset_ids", _NO_DEFAULT), ("betaH", _NO_DEFAULT), ("n_e21", 201), ("overrides", None),
    ]
    # numerator units only; the CLI's --current-units divides by the normalization
    assert _parameters(qarfcs.decompose) == [("model", _NO_DEFAULT)]


def test_report_and_family_fields_are_pinned():
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(qarfcs.CountingFamily) == ["base", "energies", "betas", "dressed"]
    # one L(s) builder
    methods = [name for name, _ in inspect.getmembers(qarfcs.CountingFamily, inspect.isfunction)]
    assert [name for name in methods if not name.startswith("__")] == ["dressed_stack"]
    assert names(qarfcs.Decomposition) == [
        "cycles", "leaks", "total", "normalization", "reconstruction_residual", "magnitude",
    ]
