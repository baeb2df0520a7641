import dataclasses
import importlib
import inspect
import json
import types
from pathlib import Path

import numpy as np
import pytest

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


_A = qarfcs.preset("A", 0.3, 0.9)
_A_FAMILY = qarfcs.build_counting_family(_A, 0)
_TWO_BATH = qarfcs.random_connected_model(np.random.default_rng(0), n_baths=2)

# (call, the field its refusal names) for library inputs of the wrong type
_WRONG_TYPES = {
    "preset-id-none": (lambda: qarfcs.preset(None, 0.3, 0.9), r"^preset id must be a string"),
    "grid-id-int": (lambda: qarfcs.grid_scan(1, 3, 3), r"^preset id must be a string, got 1$"),
    "line-id-int": (lambda: qarfcs.line_scan([1], 0.9, 3), r"^preset id must be a string, got 1$"),
    "preset-e21-str": (lambda: qarfcs.preset("A", "0.3", 0.9), r"^e21 must be a real number"),
    "preset-betaH-none": (lambda: qarfcs.preset("A", 0.3, None), r"^beta_h must be a real number"),
    "preset-gamma-str": (lambda: qarfcs.preset("B", 0.3, 0.9, gamma="1"), r"^gamma must be a"),
    "ideal-e21-str": (lambda: qarfcs.ideal_cooling("0.3", 1.0, 1.0, 0.5, 0.1),
                      r"^e21 must be a real number, got '0.3'$"),
    "cycles-betaC-str": (lambda: qarfcs.cycle_conditions(0.3, 1.0, "1", 0.9, 0.1),
                         r"^beta_c must be a real number, got '1'$"),
    "grid-override-str": (lambda: qarfcs.grid_scan("A", 3, 3, {"e31": "1"}),
                          r"^scan override 'e31' must be a real number, got '1'$"),
    "grid-override-none": (lambda: qarfcs.grid_scan("A", 3, 3, {"beta_w": None}),
                           r"^scan override 'beta_w' must be a real number, got None$"),
    "grid-axis-str": (lambda: qarfcs.grid_scan("A", e21_axis=["a"], betaH_axis=[0.9]),
                      r"^a scan axis must hold real numbers, got \['a'\]$"),
    "line-count-str": (lambda: qarfcs.line_scan(["A"], 0.9, "5"),
                       r"^grid needs an integer number of points per axis, got '5'$"),
    "line-ids-none": (lambda: qarfcs.line_scan(None, 0.9, 3),
                      r"^line scan needs a sequence of preset ids, got None$"),
    "line-betaH-none": (lambda: qarfcs.line_scan(["A"], None, 3),
                        r"^line scan betaH must be a real number, got None$"),
    "charpoly-complex": (lambda: qarfcs.charpoly(np.eye(2) * 1j),
                         r"^charpoly needs a real matrix, got dtype complex128$"),
    "bath-couplings-none": (lambda: qarfcs.BathSpec("C", 1.0, None),
                            r"^bath 'C': field 'couplings' must map level pairs to gammas, "
                            r"got None$"),
    "bath-pair-short": (lambda: qarfcs.BathSpec("C", 1.0, {(0,): 1e-3}),
                        r"^coupling pair \(0,\) must join two integer levels$"),
    "bath-pair-int": (lambda: qarfcs.BathSpec("C", 1.0, {3: 1e-3}),
                      r"^coupling pair 3 must join two integer levels$"),
    "model-system-none": (lambda: qarfcs.QarModel(None, _A.baths, 0),
                          r"^field 'system' must be a SystemSpec, got None$"),
    "model-bath-str": (lambda: qarfcs.QarModel(_A.system, (*_A.baths[:2], "W"), 0),
                       r"^field 'baths': bath 3 must be a BathSpec, got 'W'$"),
    "random-rng-int": (lambda: qarfcs.random_connected_model(0),
                       r"^field 'rng' must be a numpy Generator, got 0$"),
    "cgf-s-str": (lambda: qarfcs.cgf(_A_FAMILY, "a"), r"^s must be real, got dtype <U1$"),
    "cgf-s-complex": (lambda: qarfcs.cgf(_A_FAMILY, 1j), r"^s must be real, got dtype complex128$"),
    "cgf-s-complex-array": (lambda: qarfcs.cgf(_A_FAMILY, np.array([1 + 1j])),
                            r"^s must be real, got dtype complex128$"),
    "symmetry-s-str": (lambda: qarfcs.fluctuation_symmetry_check(_TWO_BATH, "a"),
                       r"^s must be real, got dtype <U1$"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_wrong_types_are_validation_errors(case):
    # each is refused with exit code 2 and names its field, not a bare TypeError,
    # AttributeError or ValueError from deeper down, nor a ComplexWarning
    call, message = _WRONG_TYPES[case]
    with pytest.raises(qarfcs.ValidationError, match=message) as info:
        call()
    assert info.value.code == 2
