"""The three benchmark workloads: seeded inputs, timed closed loops, gates.

Each workload is one caller in one thread that waits for every result
before sending the next request (a closed loop). The timed region holds
only calls into the public qarfcs API; input generation and the correctness
gates run outside it. Every gate compares against a path that shares no
code with the result it checks: the row-replacement steady state
(``direct_current``), finite differences of G(s) (``numeric_cumulants``),
closed forms (``ideal_cooling``, E21/E32) or the result's own invariants.

- ``scan``: the paper's cooling-window figures (four 101x101 grids, one
  201-point line at betaH = 0.9, and the CSV/JSON writers). Per-point rate
  assembly and the N = 3 recursion dominate; no noise, cgf or oracle code
  runs in the timed region.
- ``point``: interactive single-point queries over presets A-D, mixed by
  ``POINT_MIX``. Exercises the scalar path, noise and its refusal, the cgf
  continuation, ``analytic`` and the in-process CLI.
- ``random``: ``qarfcs check``-style validation of seeded random models,
  cycling through N = 2..5, 2..4 baths and tree or cyclic coupling graphs.
  The only workload with N > 3, several baths and the oracle layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

import qarfcs as q
import qarfcs.cli  # the package itself does not import its CLI module

PRESETS = ("A", "B", "C", "D")
BETA_C, BETA_W, E31 = 1.0, 0.1, 1.0

# Request mix of the point workload (fractions of requests). Noise requests
# go to all four presets, so B-D exercise the documented refusal.
POINT_MIX = (
    ("heat_current", 0.38),
    ("cooling_condition", 0.20),
    ("noise", 0.15),
    ("numeric_cumulants", 0.10),
    ("decompose", 0.10),
    ("cop", 0.05),
    ("cli", 0.02),
)

# Tolerances of the gates (the ``qarfcs check`` defaults where one exists).
ORACLE_TOL = 1e-10
CONSERVATION_TOL = 1e-12
SYMMETRY_TOL = 1e-10
CUMULANT_TOL = 1e-6
COP_TOL = 1e-10
DECOMPOSITION_TOL = 1e-10
BOUNDARY_TOL = 1e-9

SCAN_LINE_BETA_H = 0.9
SCAN_LINE_POINTS = 201
GRID_SIDE = 101
SCAN_POINTS_PER_PASS = len(PRESETS) * (GRID_SIDE * GRID_SIDE + SCAN_LINE_POINTS)
# cells per grid (and points per line curve) checked against the oracle
SCAN_ORACLE_CELLS = 6

# Exact call counts per evaluated preset point, used to cross-check the trace.
RATE_CALLS_PER_POINT = {"A": 8, "B": 24, "C": 10, "D": 10}
RATE_TABLE_CALLS_PER_POINT = 4
CHARPOLY_CALLS_PER_POINT = 1
CHARPOLY_CALLS_PER_NOISE_A = 9


@dataclass
class GateResult:
    """Ops attempted, failed (raised or missed a gate) and refused as documented."""

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)


@dataclass
class Phase:
    """What one timed phase measured and what its gates found.

    ``latencies_s`` holds one entry per request (point, random) or per full
    pass (scan); ``ops`` counts requests, models or scan points, and
    ``busy_s`` is the time spent inside the calls that produced them.
    ``answered`` counts the ops that returned a result, per trace context.
    """

    latencies_s: list[float] = field(default_factory=list)
    ops: int = 0
    busy_s: float = 0.0
    gate: GateResult = field(default_factory=GateResult)
    answered: Counter = field(default_factory=Counter)
    info: dict = field(default_factory=dict)


def closed_loop(inputs: Iterator, op, check, context, seconds: float, recorder=None) -> Phase:
    """Send one input at a time for ``seconds``, timing only the ``op`` call.

    Each result is checked right after its op, outside the timed region, so
    no result is kept beyond its gate.
    """
    phase = Phase()
    deadline = perf_counter() + seconds
    while not phase.latencies_s or perf_counter() < deadline:
        inp = next(inputs)
        ctx = context(inp)
        _context(recorder, ctx)
        _activate(recorder, True)
        t0 = perf_counter()
        try:
            out, err = op(inp), None
        except Exception as exc:  # a boundary that keeps running: the gate counts it
            out, err = None, exc
        t1 = perf_counter()
        _activate(recorder, False)
        phase.latencies_s.append(t1 - t0)
        phase.gate.attempted += 1
        if err is None:
            phase.answered[ctx] += 1
        elif isinstance(err, q.NoiseNotApplicableError):
            phase.gate.refused += 1
        reason = check(inp, out, err)
        if reason is not None:
            phase.gate.fail(1, f"{inp}: {reason}")
    phase.ops = len(phase.latencies_s)
    phase.busy_s = sum(phase.latencies_s)
    return phase


def warm_call() -> float:
    """The fixed first call a fresh process makes before it is ready."""
    model = q.preset("A", 0.5, 0.9)
    return q.heat_current(model, model.cold_index)


def _context(recorder, name: str) -> None:
    if recorder is not None:
        recorder.context = name


def _activate(recorder, on: bool) -> None:
    if recorder is not None:
        recorder.active = on


def _oracle(model) -> tuple[list[float], float]:
    """Direct currents per bath, and the scale their tolerances refer to.

    The scale is the largest gross heat flux, the sum of |dE| * k * p over a
    bath's jumps. At the cooling boundary every net current of a preset
    vanishes together while the fluxes that cancel in it do not, so a
    tolerance relative to the net currents would ask for more than the
    roundoff of that cancellation allows.
    """
    p = q.steady_state(q.build_generator(model)).populations
    energies = model.system.energies
    n = model.n_levels
    direct, gross = [], []
    for b in range(model.n_baths):
        k = q.rate_table(model, b)
        direct.append(q.direct_current(model, b))
        gross.append(sum(
            abs(energies[j] - energies[i]) * k[i, j] * p[i]
            for i in range(n) for j in range(n)
        ))
    return direct, max(gross)


# --------------------------------------------------------------------- point


@dataclass(frozen=True)
class PointRequest:
    kind: str
    preset: str
    e21: float
    beta_h: float
    bath: int


def point_requests(seed: int) -> Iterator[PointRequest]:
    """Endless seeded request stream; the same seed gives the same stream."""
    rng = random.Random(seed)
    kinds = [k for k, _ in POINT_MIX]
    cum = list(itertools.accumulate(w for _, w in POINT_MIX))
    while True:
        kind = rng.choices(kinds, cum_weights=cum)[0]
        beta_h = rng.uniform(0.11, 0.99)
        if kind == "cop":
            # strictly inside the ideal window, where the COP is defined
            threshold = (beta_h - BETA_W) / (BETA_C - BETA_W)
            pid, e21 = "A", rng.uniform(0.05, 0.95) * threshold * E31
        else:
            pid, e21 = rng.choice(PRESETS), rng.uniform(0.01, 0.99)
        bath = rng.randrange(3) if kind == "heat_current" else 0
        yield PointRequest(kind, pid, e21, beta_h, bath)


def point_op(req: PointRequest):
    """One request through the public API, model construction included."""
    if req.kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = q.cli.main([
                "current", "--preset", req.preset, "--e21", repr(req.e21),
                "--betaH", repr(req.beta_h), "--format", "json",
            ])
        return code, json.loads(out.getvalue())
    model = q.preset(req.preset, req.e21, req.beta_h)
    if req.kind == "heat_current":
        return q.heat_current(model, req.bath)
    if req.kind == "cooling_condition":
        return q.cooling_condition(model)
    if req.kind == "noise":
        return q.noise(model, model.cold_index)
    if req.kind == "numeric_cumulants":
        return q.numeric_cumulants(q.build_counting_family(model, model.cold_index))
    if req.kind == "decompose":
        return q.decompose(model)
    if req.kind == "cop":
        return q.cop(model)
    raise ValueError(f"unknown request kind {req.kind!r}")


def run_point(inputs: Iterator[PointRequest], seconds: float, recorder=None,
              out_dir: Path | None = None) -> Phase:
    return closed_loop(inputs, point_op, _check_point,
                       lambda r: f"{r.kind}:{r.preset}", seconds, recorder)


def _check_point(req: PointRequest, out, err) -> str | None:
    """None when the result passes its gate, else the reason it fails."""
    refusal_expected = req.kind == "noise" and req.preset != "A"
    if refusal_expected:
        if isinstance(err, q.NoiseNotApplicableError):
            return None
        return f"noise on preset {req.preset} was not refused ({err!r})"
    if err is not None:
        return f"{type(err).__name__}: {err}"
    model = q.preset(req.preset, req.e21, req.beta_h)
    cold = model.cold_index
    if req.kind in ("heat_current", "cooling_condition", "numeric_cumulants", "cli"):
        direct, scale = _oracle(model)
    if req.kind == "heat_current":
        if abs(out - direct[req.bath]) > ORACLE_TOL * scale:
            return f"current {out!r} vs direct {direct[req.bath]!r}"
    elif req.kind == "cooling_condition":
        value, cooling = out
        if cooling != (value > 0.0):
            return "cooling flag disagrees with the sign of its certificate"
        if abs(direct[cold]) > ORACLE_TOL * scale and cooling != (direct[cold] > 0.0):
            return f"certificate {value!r} vs direct cold current {direct[cold]!r}"
    elif req.kind == "noise":
        _, s_num = q.numeric_cumulants(q.build_counting_family(model, cold))
        if abs(out - s_num) > CUMULANT_TOL * abs(s_num):
            return f"noise {out!r} vs finite-difference {s_num!r}"
    elif req.kind == "numeric_cumulants":
        j_num, s_num = out
        if abs(j_num - direct[cold]) > CUMULANT_TOL * scale or not s_num > 0.0:
            return f"cumulants {out!r} vs direct cold current {direct[cold]!r}"
    elif req.kind == "decompose":
        if not out.reconstruction_residual <= DECOMPOSITION_TOL * out.magnitude:
            return (f"decomposition residual {out.reconstruction_residual!r} "
                    f"vs magnitude {out.magnitude!r}")
    elif req.kind == "cop":
        eta, eta_carnot = out
        expected = req.e21 / (E31 - req.e21)
        if abs(eta - expected) > COP_TOL * expected or eta > eta_carnot:
            return f"cop {eta!r} vs E21/E32 {expected!r} (Carnot {eta_carnot!r})"
    elif req.kind == "cli":
        code, payload = out
        current = payload.get("current")
        if code != 0 or current is None:
            return f"cli exit {code}: {payload}"
        if abs(current - direct[cold]) > ORACLE_TOL * scale:
            return f"cli current {current!r} vs direct {direct[cold]!r}"
        if payload["cooling"] != (payload["cooling_value"] > 0.0):
            return "cli cooling flag disagrees with its certificate"
    return None


# -------------------------------------------------------------------- random


@dataclass(frozen=True, eq=False)
class RandomInput:
    model: object
    s_samples: tuple[float, ...]

    def __str__(self) -> str:
        return f"model {q.model_to_dict(self.model)}"


# Every run cycles through the same shapes: N = 2..5 levels, 2..4 baths, tree
# and cyclic coupling graphs. The seed draws everything else, so the mix of
# cheap and expensive shapes does not change from seed to seed.
RANDOM_SHAPES = tuple(itertools.product(range(2, 6), range(2, 5), ("tree", "any")))


def random_inputs(seed: int) -> Iterator[RandomInput]:
    """Seeded random models, cycling through ``RANDOM_SHAPES``."""
    rng = np.random.default_rng(seed)
    for n_levels, n_baths, topology in itertools.cycle(RANDOM_SHAPES):
        model = q.random_connected_model(
            rng, n_levels=n_levels, n_baths=n_baths, topology=topology
        )
        samples: tuple[float, ...] = ()
        if model.n_baths == 2:
            # the ``qarfcs check`` sampling around both symmetry centres
            beta_max = max(b.beta for b in model.baths)
            s_star = model.baths[model.cold_index].beta - model.baths[1 - model.cold_index].beta
            lo = min(-0.3 * beta_max, s_star - 0.3 * beta_max)
            hi = max(0.3 * beta_max, s_star + 0.3 * beta_max)
            samples = tuple(float(s) for s in np.linspace(lo, hi, 8))
        yield RandomInput(model, samples)


def random_op(inp: RandomInput) -> dict:
    model = inp.model
    nb = model.n_baths
    out = {
        "heat": [q.heat_current(model, b) for b in range(nb)],
        "direct": [q.direct_current(model, b) for b in range(nb)],
        "conservation": q.conservation_residual(model),
        "cumulants": q.numeric_cumulants(q.build_counting_family(model, model.cold_index)),
    }
    if inp.s_samples:
        out["symmetry"] = q.fluctuation_symmetry_check(model, inp.s_samples)
    return out


def run_random(inputs: Iterator[RandomInput], seconds: float, recorder=None,
               out_dir: Path | None = None) -> Phase:
    return closed_loop(inputs, random_op, _check_random,
                       lambda m: "random", seconds, recorder)


def _check_random(inp: RandomInput, out, err) -> str | None:
    if err is not None:
        return f"{type(err).__name__}: {err}"
    heat, direct = out["heat"], out["direct"]
    scale = max(abs(x) for x in heat + direct)
    cold = inp.model.cold_index
    if max(abs(a - b) for a, b in zip(heat, direct)) > ORACLE_TOL * scale:
        return f"currents {heat} vs direct {direct}"
    if out["conservation"] > CONSERVATION_TOL * scale:
        return f"conservation residual {out['conservation']!r}"
    j_num, _ = out["cumulants"]
    if abs(j_num - heat[cold]) > CUMULANT_TOL * scale:
        return f"finite-difference current {j_num!r} vs {heat[cold]!r}"
    if out.get("symmetry", 0.0) > SYMMETRY_TOL:
        return f"fluctuation symmetry deviation {out['symmetry']!r}"
    return None


# ---------------------------------------------------------------------- scan


@dataclass(frozen=True)
class ScanInput:
    """Which grid cells and line points one pass checks against the oracle."""

    cells: dict[str, tuple[tuple[int, int], ...]]
    line_points: dict[str, tuple[int, ...]]


def scan_inputs(seed: int) -> Iterator[ScanInput]:
    rng = np.random.default_rng(seed)
    while True:
        cells = {
            pid: tuple(
                (int(i), int(j))
                for i, j in rng.integers(0, GRID_SIDE, size=(SCAN_ORACLE_CELLS, 2))
            )
            for pid in PRESETS
        }
        line = {
            pid: tuple(int(i) for i in rng.integers(0, SCAN_LINE_POINTS, size=SCAN_ORACLE_CELLS))
            for pid in PRESETS
        }
        yield ScanInput(cells, line)


def scan_pass(workdir: Path, recorder=None) -> tuple[dict, object, float, float]:
    """One pass of the figure set: grids, line, seconds in grid_scan and in line_scan."""
    grids = {}
    grid_s = 0.0
    for pid in PRESETS:
        _context(recorder, f"grid:{pid}")
        t0 = perf_counter()
        grids[pid] = q.grid_scan(pid, GRID_SIDE, GRID_SIDE)
        grid_s += perf_counter() - t0
    _context(recorder, "line")
    t0 = perf_counter()
    line = q.line_scan(PRESETS, SCAN_LINE_BETA_H, SCAN_LINE_POINTS)
    line_s = perf_counter() - t0
    _context(recorder, "write")
    for pid in PRESETS:
        q.scan.write_grid_csv(grids[pid], workdir / f"grid_{pid}.csv")
        q.scan.write_grid_json(grids[pid], workdir / f"grid_{pid}.json")
    q.scan.write_line_csv(line, workdir / "line.csv")
    return grids, line, grid_s, line_s


def _file_record(workdir: Path, grids: dict) -> dict:
    """SHA-256 and size of each output, and whether the JSON grids read back."""
    digests, sizes, readback = {}, {}, {}
    for path in sorted(workdir.iterdir()):
        data = path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        sizes[path.name] = len(data)
    for pid, grid in grids.items():
        back = q.scan.read_grid_json(workdir / f"grid_{pid}.json")
        readback[pid] = bool(
            np.array_equal(back.current, grid.current)
            and np.array_equal(back.cooling_mask, grid.cooling_mask)
        )
    return {"sha256": digests, "bytes": sizes, "readback": readback}


def run_scan(inputs: Iterator[ScanInput], seconds: float, recorder=None,
             out_dir: Path | None = None) -> Phase:
    phase = Phase(info={"grid_s": 0.0})
    workdir = Path(tempfile.mkdtemp(prefix="scan-", dir=out_dir))
    try:
        deadline = perf_counter() + seconds
        while not phase.latencies_s or perf_counter() < deadline:
            inp = next(inputs)
            # fresh files every pass: overwriting files still being written
            # back to disk stalls the writers for a disk-dependent time
            passdir = workdir / f"pass{len(phase.latencies_s)}"
            passdir.mkdir()
            _activate(recorder, True)
            t0 = perf_counter()
            grids, line, grid_s, line_s = scan_pass(passdir, recorder)
            t1 = perf_counter()
            _activate(recorder, False)
            phase.latencies_s.append(t1 - t0)
            phase.busy_s += grid_s + line_s
            phase.info["grid_s"] += grid_s
            files = _file_record(passdir, grids)
            shutil.rmtree(passdir)
            phase.info.setdefault("files", files)
            phase.gate.attempted += SCAN_POINTS_PER_PASS
            check_scan_pass(inp, grids, line, files, phase.info["files"], phase.gate)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    phase.ops = len(phase.latencies_s) * SCAN_POINTS_PER_PASS
    phase.info["bytes_per_pass"] = sum(phase.info["files"]["bytes"].values())
    return phase


def check_scan_pass(inp: ScanInput, grids: dict, line, files: dict,
                    first_files: dict, result: GateResult) -> None:
    """Gate one pass; failures count scan points."""
    cells_per_grid = GRID_SIDE * GRID_SIDE
    for pid, grid in grids.items():
        bad = int(np.count_nonzero(grid.cooling_mask != (grid.current > 0.0)))
        if bad:
            result.fail(bad, f"grid {pid}: {bad} mask cells disagree with current > 0")
        if not files["readback"][pid]:
            result.fail(cells_per_grid, f"grid {pid}: JSON output does not read back")
        for i, j in inp.cells[pid]:
            e21, bh = float(grid.e21_axis[i]), float(grid.betaH_axis[j])
            direct, scale = _oracle(q.preset(pid, e21, bh))
            value = float(grid.current[i, j])
            if abs(value - direct[0]) > ORACLE_TOL * scale:
                result.fail(1, f"grid {pid} ({e21!r}, {bh!r}): {value!r} vs direct {direct[0]!r}")
    grid = grids["A"]
    for i, e21 in enumerate(grid.e21_axis):
        for j, bh in enumerate(grid.betaH_axis):
            threshold = (bh - BETA_W) / (BETA_C - BETA_W)
            if abs(e21 / E31 - threshold) <= BOUNDARY_TOL:
                continue  # sign decided by roundoff on the ideal boundary
            if bool(grid.cooling_mask[i, j]) != q.ideal_cooling(e21, E31, BETA_C, bh, BETA_W):
                result.fail(1, f"grid A ({e21!r}, {bh!r}): mask disagrees with ideal_cooling")
    for pid, points in inp.line_points.items():
        for i in points:
            e21 = float(line.e21_axis[i])
            direct, scale = _oracle(q.preset(pid, e21, line.betaH))
            value = float(line.currents[pid][i])
            if abs(value - direct[0]) > ORACLE_TOL * scale:
                result.fail(1, f"line {pid} ({e21!r}): {value!r} vs direct {direct[0]!r}")
    if files["sha256"] != first_files["sha256"]:
        result.fail(SCAN_POINTS_PER_PASS, "outputs differ between passes of one run")


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class Workload:
    """Seeded input stream and gated timed loop of one workload (``out_dir``
    takes scan's output files); ``op`` names the unit that ``ops`` counts."""

    inputs: Callable[[int], Iterator]
    run: Callable[..., Phase]
    op: str


WORKLOADS = {
    "scan": Workload(scan_inputs, run_scan, "scan point"),
    "point": Workload(point_requests, run_point, "request"),
    "random": Workload(random_inputs, run_random, "model"),
}
