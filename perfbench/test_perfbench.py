"""Tests of the benchmark's own machinery.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import subprocess
import sys
from pathlib import Path

import pytest

import qarfcs as q
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_trace():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7]
    rec = spans.Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    rec.enter("a")
    rec.enter("b")
    rec.enter("c")
    rec.exit()
    rec.exit()
    rec.enter("b")
    rec.exit()
    rec.exit()
    assert rec.self_s == {"a": 5, "b": 4, "c": 1}
    assert rec.calls == {"a": 1, "b": 2, "c": 1}
    assert sorted(rec.spans) == [
        (0, "a", 0, 10, -1),
        (1, "b", 1, 4, 0),
        (2, "c", 2, 3, 1),
        (3, "b", 5, 7, 0),
    ]


def test_recorder_caps_kept_spans_but_not_aggregates():
    rec = spans.Recorder(clock=FakeClock(range(100)), max_kept=2)
    for _ in range(5):
        rec.enter("x")
        rec.exit()
    assert len(rec.spans) == 2 and rec.dropped == 3
    assert rec.calls["x"] == 5 and rec.self_s["x"] == 5


def test_instrument_patches_every_binding_and_counts_calls():
    import qarfcs.analytic
    import qarfcs.cli
    import qarfcs.fcs

    original = qarfcs.fcs.charpoly
    rec = spans.Recorder()
    names, undo = spans.instrument(rec)
    try:
        assert "fcs.charpoly" in names and "cli.main" in names
        assert qarfcs.analytic.charpoly is qarfcs.fcs.charpoly is q.charpoly
        assert qarfcs.cli.charpoly is qarfcs.fcs.charpoly
        assert qarfcs.fcs.charpoly is not original
        model = q.preset("B", 0.3, 0.9)
        q.heat_current(model, 0)
        assert not rec.calls  # inactive recorder records nothing
        rec.active = True
        q.heat_current(model, 0)
        rec.active = False
    finally:
        undo()
    assert qarfcs.fcs.charpoly is original and qarfcs.analytic.charpoly is original
    assert rec.calls["model.rate"] == wl.RATE_CALLS_PER_POINT["B"]
    assert rec.calls["model.rate_table"] == wl.RATE_TABLE_CALLS_PER_POINT
    assert rec.calls["fcs.charpoly"] == wl.CHARPOLY_CALLS_PER_POINT
    assert rec.calls["fcs.heat_current"] == 1


@pytest.mark.parametrize("make", [wl.point_requests, wl.scan_inputs])
def test_same_seed_same_inputs(make):
    first = list(itertools.islice(make(7), 50))
    assert first == list(itertools.islice(make(7), 50))
    assert first != list(itertools.islice(make(8), 50))


def test_same_seed_same_random_models():
    def models(seed):
        return [q.model_to_dict(x.model) for x in itertools.islice(wl.random_inputs(seed), 20)]

    assert models(7) == models(7)
    assert models(7) != models(8)


def test_point_mix_sends_noise_to_every_preset():
    reqs = list(itertools.islice(wl.point_requests(3), 4000))
    noise_presets = {r.preset for r in reqs if r.kind == "noise"}
    assert noise_presets == set(wl.PRESETS)
    assert {r.kind for r in reqs} == {k for k, _ in wl.POINT_MIX}
    assert all(r.preset == "A" for r in reqs if r.kind == "cop")


def test_clean_point_run_has_no_errors_and_expected_refusals():
    phase = wl.run_point(wl.point_requests(5), seconds=0.3)
    assert phase.gate.failed == 0, phase.gate.notes
    assert phase.gate.attempted == phase.ops > 0
    noise_bd = sum(v for k, v in phase.answered.items() if k.startswith("noise:") and k != "noise:A")
    assert noise_bd == 0
    assert phase.gate.refused > 0 or phase.ops < 50


def test_perturbed_point_result_counts_as_error(monkeypatch):
    real = wl.point_op

    def perturbed(req):
        out = real(req)
        return out * (1.0 + 1e-3) if req.kind == "heat_current" else out

    monkeypatch.setattr(wl, "point_op", perturbed)
    requests = (r for r in wl.point_requests(5) if r.kind == "heat_current")
    phase = wl.run_point(requests, seconds=0.05)
    assert phase.gate.failed == phase.gate.attempted > 0


def test_refusal_on_preset_a_counts_as_error(monkeypatch):
    def refuse(req):
        raise q.NoiseNotApplicableError("refused")

    monkeypatch.setattr(wl, "point_op", refuse)
    requests = (r for r in wl.point_requests(5) if r.kind == "noise")
    phase = wl.run_point(requests, seconds=0.05)
    assert phase.gate.refused == phase.gate.attempted
    assert phase.gate.failed > 0
    assert all("preset='A'" in note for note in phase.gate.notes)


def test_perturbed_random_result_counts_as_error(monkeypatch):
    real = wl.random_op

    def perturbed(inp):
        out = real(inp)
        out["heat"] = [x * (1.0 + 1e-3) for x in out["heat"]]
        return out

    monkeypatch.setattr(wl, "random_op", perturbed)
    phase = wl.run_random(wl.random_inputs(5), seconds=0.05)
    assert phase.gate.failed == phase.gate.attempted > 0


def _small_scan_pass():
    grids = {pid: q.grid_scan(pid, 11, 11) for pid in wl.PRESETS}
    line = q.line_scan(wl.PRESETS, wl.SCAN_LINE_BETA_H, 21)
    files = {"sha256": {}, "bytes": {}, "readback": {pid: True for pid in wl.PRESETS}}
    inp = wl.ScanInput(
        cells={pid: ((0, 0), (5, 7), (10, 10)) for pid in wl.PRESETS},
        line_points={pid: (0, 20) for pid in wl.PRESETS},
    )
    return inp, grids, line, files


def test_scan_gate_passes_clean_pass_and_counts_flipped_mask():
    inp, grids, line, files = _small_scan_pass()
    clean = wl.GateResult()
    wl.check_scan_pass(inp, grids, line, files, files, clean)
    assert clean.failed == 0, clean.notes

    grids["B"].cooling_mask[3, 4] = not grids["B"].cooling_mask[3, 4]
    grids["C"].current[5, 7] *= 1.0 + 1e-3
    dirty = wl.GateResult()
    wl.check_scan_pass(inp, grids, line, files, files, dirty)
    # the flipped cell fails the mask gate, the perturbed one the oracle gate
    assert dirty.failed == 2


def test_runner_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "spans.py"):
        (tmp_path / "perfbench" / name).write_bytes((HERE / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
