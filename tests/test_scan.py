import hashlib
import json
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qarfcs import fcs, liouvillian, model
from qarfcs import scan as scan_mod
from qarfcs.analytic import ideal_cooling
from qarfcs.errors import ConsistencyError, QarError, ValidationError
from qarfcs.fcs import _base_charpoly, _current_from_family, heat_current
from qarfcs.liouvillian import build_counting_family
from qarfcs.model import PRESET_DEFAULTS, preset
from qarfcs.scan import (
    LineScan,
    ScanGrid,
    grid_scan,
    line_scan,
    read_grid_json,
    write_grid_csv,
    write_grid_json,
    write_line_csv,
    write_line_json,
)
from tests.conftest import EIGHTY_BIT


@pytest.fixture(scope="module")
def grid_a():
    return grid_scan("A", 31, 31)


class TestGridScan:
    def test_mask_matches_current_sign(self, grid_a):
        dead = np.abs(grid_a.current) <= 1e-16
        live = ~dead
        assert np.array_equal(grid_a.cooling_mask[live], grid_a.current[live] > 0)

    def test_mask_matches_analytic_window(self):
        # axes picked so no point sits on the boundary curve
        e21_axis = np.linspace(0.0153, 0.9853, 33)
        bh_axis = np.linspace(0.1171, 0.9871, 33)
        gap = min(
            abs(e21 - (bh - 0.1) / 0.9) for e21 in e21_axis for bh in bh_axis
        )
        assert gap > 1e-4
        grid = grid_scan("A", e21_axis=e21_axis, betaH_axis=bh_axis)
        for i, e21 in enumerate(e21_axis):
            for j, bh in enumerate(bh_axis):
                assert grid.cooling_mask[i, j] == ideal_cooling(e21, 1.0, 1.0, bh, 0.1)

    def test_window_grows_with_beta_h(self, grid_a):
        # warmer-to-colder hot bath widens the window monotonically
        counts = grid_a.cooling_mask.sum(axis=0)
        assert np.all(np.diff(counts) >= 0)

    def test_deterministic(self):
        g1 = grid_scan("A", 7, 7)
        g2 = grid_scan("A", 7, 7)
        assert np.array_equal(g1.current, g2.current)
        assert np.array_equal(g1.cooling_mask, g2.cooling_mask)

    def test_b_region_inside_a(self):
        ga = grid_scan("A", 31, 31)
        gb = grid_scan("B", 31, 31)
        assert not np.any(gb.cooling_mask & ~ga.cooling_mask)
        assert np.any(ga.cooling_mask & ~gb.cooling_mask)

    def test_overrides(self):
        g = grid_scan("A", 5, 5, overrides={"gamma": 2e-3})
        assert g.params["gamma"] == 2e-3

    def test_validation(self):
        with pytest.raises(ValidationError):
            grid_scan("E", 5, 5)
        with pytest.raises(ValidationError):
            grid_scan("A", 1, 5)
        with pytest.raises(ValidationError):
            grid_scan("A", 5, 5, overrides={"bogus": 1})

    def test_summary_helpers(self, grid_a):
        frac = grid_a.cooling_fraction()
        assert 0.0 < frac < 1.0
        jmax, e21_at, bh_at = grid_a.max_current()
        assert jmax > 0
        assert 0.01 <= e21_at <= 0.99 and 0.11 <= bh_at <= 0.99

    @pytest.mark.parametrize(
        "axes",
        [
            {"e21_axis": []},
            {"betaH_axis": np.empty(0)},
            {"e21_axis": 0.5},
            {"e21_axis": [[0.2, 0.4], [0.6, 0.8]]},
            {"betaH_axis": [[0.3], [0.6]]},
        ],
    )
    def test_explicit_axis_shape_refused_before_any_work(self, monkeypatch, axes):
        monkeypatch.setattr(scan_mod, "preset", None)  # any model build would raise TypeError
        with pytest.raises(ValidationError, match=r"^a scan axis must be 1-D with at least 1 point"):
            grid_scan("A", 5, 5, **axes)

    def test_one_point_axes(self):
        grid = grid_scan("A", e21_axis=[0.5], betaH_axis=[0.9])
        assert grid.current.shape == grid.cooling_mask.shape == (1, 1)
        m = preset("A", 0.5, 0.9)
        assert grid.current[0, 0] == heat_current(m, m.cold_index)

    def test_counts_checked_only_where_the_default_axis_is_built(self):
        # an explicit axis ignores its count; a default axis needs at least 2 points
        grid = grid_scan("A", 1, 1, e21_axis=[0.5], betaH_axis=[0.9])
        ref = grid_scan("A", e21_axis=[0.5], betaH_axis=[0.9])
        assert grid.current.tobytes() == ref.current.tobytes()
        assert grid_scan("A", 0, 3, e21_axis=[0.2, 0.5]).current.shape == (2, 3)
        assert grid_scan("A", 3, -1, betaH_axis=[0.9]).current.shape == (3, 1)
        with pytest.raises(ValidationError, match="^grid needs at least 2 points per axis$"):
            grid_scan("A", 1, 5, betaH_axis=[0.9])
        with pytest.raises(ValidationError, match="^grid needs at least 2 points per axis$"):
            grid_scan("A", 5, 1, e21_axis=[0.5])

    @pytest.mark.parametrize("n", [3.5, np.float64(3.0), True, "3"], ids=repr)
    def test_non_integer_counts_refused(self, n):
        # np.linspace raised a bare TypeError on 3.5, and took a bool as 1
        with pytest.raises(ValidationError, match=r"^grid needs an integer number of points "
                           rf"per axis, got {re.escape(repr(n))}$"):
            grid_scan("A", n, 3)
        with pytest.raises(ValidationError, match="integer number of points"):
            grid_scan("A", 3, n)
        assert grid_scan("A", np.int64(3), np.int8(2)).current.shape == (3, 2)

    @pytest.mark.parametrize(
        "axes", [{"e21_axis": [0.5, 0.4]}, {"betaH_axis": [0.3, 0.6, 0.6]}]
    )
    def test_non_increasing_axis_refused(self, monkeypatch, axes):
        monkeypatch.setattr(scan_mod, "preset", None)  # any model build would raise TypeError
        with pytest.raises(ValidationError, match="^scan axes must be strictly increasing$"):
            grid_scan("A", 5, 5, **axes)


@pytest.fixture(scope="module")
def lines():
    return line_scan(["A", "B", "C", "D"], 0.9, 151)


class TestLineScan:
    def test_a_has_largest_maximum(self, lines):
        peak_a = lines.currents["A"].max()
        for pid in ("B", "C", "D"):
            assert peak_a > lines.currents[pid].max()

    def test_d_cools_only_near_small_spacing(self, lines):
        cooling = lines.e21_axis[lines.currents["D"] > 0]
        assert cooling.size > 0
        assert cooling.max() < 0.3

    def test_a_interior_maximum(self, lines):
        idx = int(np.argmax(lines.currents["A"]))
        assert 0 < idx < len(lines.e21_axis) - 1

    def test_non_integer_count_refused(self):
        # a line is column 0 of a one-column grid, whose default E21 axis refuses 2.5
        with pytest.raises(ValidationError, match=r"integer number of points per axis, got 2\.5$"):
            line_scan(["A"], 0.9, 2.5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            line_scan(["Z"], 0.9)
        with pytest.raises(ValidationError):
            line_scan(["A"], 0.9, 1)

    @pytest.mark.parametrize("betaH", [0.3, 0.55, 0.9])
    def test_matches_per_point_currents(self, betaH):
        # the per-point loop line_scan once ran, kept as the reference
        line = line_scan(["A", "B", "C", "D"], betaH, 17)
        for pid, row in line.currents.items():
            ref = [heat_current(m, m.cold_index) for m in
                   (preset(pid, e21, betaH) for e21 in line.e21_axis.tolist())]
            assert row.tolist() == ref

    def test_empty_id_list_refused(self):
        with pytest.raises(ValidationError, match="at least one preset"):
            line_scan([], 0.9, 5)

    def test_ids_upper_cased_once_in_first_seen_order(self):
        line = line_scan(["d", "a", "A", "D"], 0.9, 5)
        assert list(line.currents) == ["D", "A"]
        ref = line_scan(["D", "A"], 0.9, 5)
        for pid in ("A", "D"):
            assert line.currents[pid].tobytes() == ref.currents[pid].tobytes()

    def test_bad_point_is_named(self):
        # beta_H above beta_C is refused at the first grid point
        with pytest.raises(ValidationError, match=r"^grid point \(e21=0\.01, betaH=1\.5\): "):
            line_scan(["A"], 1.5, 5)

    def test_bad_ids_and_counts_refused_before_any_grid(self, monkeypatch):
        monkeypatch.setattr(scan_mod, "grid_scan", None)  # any grid would raise TypeError
        with pytest.raises(ValidationError, match="unknown preset 'Z'"):
            line_scan(["A", "Z"], 0.9, 5)
        with pytest.raises(ValidationError, match="line scan needs at least 2 points"):
            line_scan(["A"], 0.9, 1)

    def test_axis_and_params_are_those_of_its_grids(self):
        overrides = {"e31": 1.3, "gamma": 2e-3}
        line = line_scan(["A", "B"], 0.9, 5, overrides)
        grid = grid_scan("B", 5, 2, overrides)
        assert line.e21_axis.tobytes() == grid.e21_axis.tobytes()
        assert line.params == grid.params == {**PRESET_DEFAULTS, **overrides}
        with pytest.raises(ValidationError, match="unknown scan overrides"):
            line_scan(["A"], 0.9, 5, {"bogus": 1})


class TestWriters:
    def test_grid_csv(self, tmp_path, grid_a):
        path = tmp_path / "grid.csv"
        write_grid_csv(grid_a, path)
        text = path.read_text()
        assert "# preset = A" in text
        assert "e21,betaH,current,cooling" in text
        rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 31 * 31
        # full-precision round trip of the first current value
        first = rows[0].split(",")
        assert float(first[2]) == grid_a.current[0, 0]

    def test_grid_json_round_trip(self, tmp_path, grid_a):
        path = tmp_path / "grid.json"
        write_grid_json(grid_a, path)
        back = read_grid_json(path)
        assert np.array_equal(back.current, grid_a.current)
        assert np.array_equal(back.cooling_mask, grid_a.cooling_mask)
        assert back.preset_id == "A"

    def test_byte_identical_rewrites(self, tmp_path, grid_a):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_grid_csv(grid_a, p1)
        write_grid_csv(grid_a, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_line_writers(self, tmp_path):
        lines = line_scan(["A", "D"], 0.9, 21)
        csv_path = tmp_path / "line.csv"
        json_path = tmp_path / "line.json"
        write_line_csv(lines, csv_path)
        write_line_json(lines, json_path)
        text = csv_path.read_text()
        assert "preset,e21,current" in text
        assert "# betaH = 0.9" in text
        data = json.loads(json_path.read_text())
        assert set(data["currents"]) == {"A", "D"}
        assert len(data["e21_axis"]) == 21


# sha256 of the CSV writers' output, recorded before the per-call numpy
# dispatch of the rate, generator and recursion layers was trimmed
@EIGHTY_BIT
class TestPinnedOutput:
    @pytest.mark.parametrize(
        "pid, digest",
        [
            ("A", "3313987666f7c7cb43315be71a212a8e76e6ce573d982a107aeba4bf8650fb68"),
            ("B", "aa8faa533d01aa334987b0184e71319b6b33a68eccd218fc0e4d6a9d55a77328"),
            ("C", "9c2fbb3a362cd0850b56d6dbc435ea3bf56f9e381a84d34d307c49f02fdf725c"),
            ("D", "baed0853f25cba287448382956b271078939418f22345e823fd0c827a3399186"),
        ],
    )
    def test_grid_csv_digest(self, tmp_path, pid, digest):
        path = tmp_path / "grid.csv"
        write_grid_csv(grid_scan(pid, 21, 21), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_default_line_csv_digest(self, tmp_path):
        path = tmp_path / "line.csv"
        write_line_csv(line_scan(["A", "B", "C", "D"], 0.9), path)
        digest = "f0d26310cb9f79643321cb45d44eb98ee6f49c25b44074b0e577edaaa78ed2b0"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    # sha256 of the JSON writers' output, recorded before the writers streamed
    @pytest.mark.parametrize(
        "pid, digest",
        [
            ("A", "e26c75f5234bbffe748c606f63423cbbfbd60dcc93e4fe16e9e17bbae243eafb"),
            ("B", "2846f722874ccbe5bfe09bd125809c329e64832461f3e40195cfeef3c311b805"),
            ("C", "7f631d9f819c321a808873755b90ccc349e52f8cea70231a68712e9eebcaae70"),
            ("D", "7aa1c8b47ce32a06042f87239847b50883138fc9fb1d7a1edb19105701a1b638"),
        ],
    )
    def test_grid_json_digest(self, tmp_path, pid, digest):
        path = tmp_path / "grid.json"
        write_grid_json(grid_scan(pid, 21, 21), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_default_line_json_digest(self, tmp_path):
        path = tmp_path / "line.json"
        write_line_json(line_scan(["A", "B", "C", "D"], 0.9), path)
        digest = "21302a654a0fd82c549553df6c32d6a2eda1986aab488d622d4f7c37b15d8541"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# Reference writers: the whole-file writers that the streaming ones replaced,
# kept verbatim so every output can be checked byte for byte against them.
def _ref_fmt(x):
    return f"{x:.17e}"


def _ref_header_lines(kind, params, extra):
    items = {**params, **extra}
    lines = [f"# {kind}"]
    for key in sorted(items):
        lines.append(f"# {key} = {items[key]}")
    return lines


def _ref_grid_csv(grid, path):
    lines = _ref_header_lines(
        "qarfcs grid scan",
        grid.params,
        {"preset": grid.preset_id, "tolerance_policy": "scale-relative, see module docs"},
    )
    lines.append("e21,betaH,current,cooling")
    for i, e21 in enumerate(grid.e21_axis):
        for j, bh in enumerate(grid.betaH_axis):
            lines.append(
                f"{_ref_fmt(e21)},{_ref_fmt(bh)},{_ref_fmt(grid.current[i, j])},"
                f"{int(grid.cooling_mask[i, j])}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ref_grid_json(grid, path):
    payload = {
        "kind": "qarfcs grid scan",
        "preset": grid.preset_id,
        "params": grid.params,
        "e21_axis": [float(x) for x in grid.e21_axis],
        "betaH_axis": [float(x) for x in grid.betaH_axis],
        "current": [[float(v) for v in row] for row in grid.current],
        "cooling_mask": [[bool(v) for v in row] for row in grid.cooling_mask],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _ref_line_csv(scan, path):
    lines = _ref_header_lines("qarfcs line scan", scan.params, {"betaH": scan.betaH})
    lines.append("preset,e21,current")
    for pid in sorted(scan.currents):
        for e21, j in zip(scan.e21_axis, scan.currents[pid]):
            lines.append(f"{pid},{_ref_fmt(e21)},{_ref_fmt(j)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ref_line_json(scan, path):
    payload = {
        "kind": "qarfcs line scan",
        "betaH": scan.betaH,
        "params": scan.params,
        "e21_axis": [float(x) for x in scan.e21_axis],
        "currents": {pid: [float(v) for v in row] for pid, row in scan.currents.items()},
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


_EDGE_CURRENTS = (-0.0, 5e-324, 1e308, -1e-300)


def _synthetic_grid(n_e21, n_bh, mask=None, seed=7):
    current = np.random.default_rng(seed).standard_normal((n_e21, n_bh)) * 1e-3
    current.flat[: len(_EDGE_CURRENTS)] = _EDGE_CURRENTS
    return ScanGrid(
        preset_id="X",
        e21_axis=np.linspace(0.01, 0.99, n_e21),
        betaH_axis=np.linspace(0.11, 0.99, n_bh),
        current=current,
        cooling_mask=current > 0 if mask is None else mask,
        params={"e31": 1.0, "gamma": 1e-3, "label": "synthetic"},
    )


class TestWritersMatchReference:
    @pytest.mark.parametrize("mask", ["sign", "all_true", "all_false"])
    @pytest.mark.parametrize(
        "write, reference",
        [(write_grid_csv, _ref_grid_csv), (write_grid_json, _ref_grid_json)],
    )
    def test_grid(self, tmp_path, write, reference, mask):
        masks = {"all_true": np.ones((7, 3), dtype=bool), "all_false": np.zeros((7, 3), dtype=bool)}
        grid = _synthetic_grid(7, 3, masks.get(mask))
        write(grid, tmp_path / "new")
        reference(grid, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()

    @pytest.mark.parametrize(
        "write, reference",
        [(write_line_csv, _ref_line_csv), (write_line_json, _ref_line_json)],
    )
    def test_line(self, tmp_path, write, reference):
        row = np.random.default_rng(3).standard_normal(9)
        row[: len(_EDGE_CURRENTS)] = _EDGE_CURRENTS
        scan = LineScan(
            betaH=0.5,
            e21_axis=np.linspace(0.1, 0.9, 9),
            currents={"D": row, "A": row[::-1].copy()},
            params={"e31": 1.0},
        )
        write(scan, tmp_path / "new")
        reference(scan, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()

    @pytest.mark.parametrize(
        "write, reference",
        [(write_grid_csv, _ref_grid_csv), (write_grid_json, _ref_grid_json)],
    )
    def test_integer_arrays(self, tmp_path, write, reference):
        # read_grid_json gives integer arrays for a file holding only integers
        grid = ScanGrid(
            preset_id="X",
            e21_axis=np.arange(1, 8),
            betaH_axis=np.arange(1, 4),
            current=np.arange(-10, 11).reshape(7, 3),
            cooling_mask=np.arange(21).reshape(7, 3) % 2,
        )
        write(grid, tmp_path / "new")
        reference(grid, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()

    def test_edge_values_round_trip(self, tmp_path):
        grid = _synthetic_grid(7, 3)
        write_grid_json(grid, tmp_path / "g.json")
        back = read_grid_json(tmp_path / "g.json")
        assert np.array_equal(back.current, grid.current)
        assert np.signbit(back.current[0, 0]) and back.current[0, 1] == 5e-324


class TestWriterMemory:
    """Writer memory at 301x301, the size where the whole-file writers held ~25 MB."""

    @staticmethod
    def _traced_peak(write, grid, path):
        tracemalloc.start()
        try:
            write(grid, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_grid_csv_is_row_bounded(self, tmp_path):
        grid = _synthetic_grid(301, 301)
        assert self._traced_peak(write_grid_csv, grid, tmp_path / "g.csv") < 1_000_000

    def test_grid_json_per_cell(self, tmp_path):
        grid = _synthetic_grid(301, 301)
        peak = self._traced_peak(write_grid_json, grid, tmp_path / "g.json")
        assert peak < 48 * 301 * 301


class TestGridScanMemory:
    """grid_scan holds one E21 row of rate tables, not the grid's: 2.9 MB at B's 101x101."""

    def test_grid_scan_is_row_bounded(self):
        tracemalloc.start()
        try:
            grid_scan("B", 101, 101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def _per_point_grid(pid, e21_axis, betaH_axis, params):
    """The per-point loop grid_scan once ran, kept as the reference: one preset per point."""
    current = np.empty((len(e21_axis), len(betaH_axis)))
    mask = np.empty((len(e21_axis), len(betaH_axis)), dtype=bool)
    for i, e21 in enumerate(np.asarray(e21_axis, dtype=float)):
        for j, bh in enumerate(np.asarray(betaH_axis, dtype=float)):
            try:
                m = preset(pid, float(e21), float(bh), **params)
            except ValidationError as exc:
                raise ValidationError(
                    f"grid point (e21={e21:.6g}, betaH={bh:.6g}): {exc}"
                ) from exc
            family = build_counting_family(m, m.cold_index)
            j_cold, value = _current_from_family(family.dressed, _base_charpoly(family.base))
            current[i, j] = j_cold
            mask[i, j] = value > 0.0
    return current, mask


def _outcome(fn):
    """(exception type, message) of a call that raises, else its result."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


class TestMatchesPerPointLoop:
    """grid_scan validates each axis once; errors and bits stay those of the per-point loop."""

    GOOD_E21 = [0.2, 0.5, 0.8]
    GOOD_BH = [0.3, 0.6, 0.9]

    @pytest.mark.parametrize(
        "e21_axis, betaH_axis, overrides",
        [
            pytest.param([0.2, 0.5, 1.2, 1.5], GOOD_BH, {}, id="bad-e21-later-row"),
            pytest.param(GOOD_E21, [0.3, 0.6, 1.2], {}, id="bad-betaH-later-column"),
            pytest.param([0.2, 0.5, 1.2], [0.3, 1.0, 1.2], {}, id="both"),
            pytest.param([-0.1, 0.2], [0.05, 0.3], {}, id="both-at-first-point"),
            pytest.param([1e-7, 0.5], [0.3, 1.2], {}, id="gap-row0-bad-later-column"),
            pytest.param([1e-7, 0.5], [1.2, 1.5], {}, id="gap-row0-bad-first-column"),
            pytest.param([0.5, 1.0 - 1e-7], [0.3, 1.2], {}, id="upper-gap-later-row"),
            pytest.param([1.0 - 1e-7], [1.0, 1.1], {}, id="upper-gap-bad-columns"),
            pytest.param([0.2, float("nan")], GOOD_BH, {}, id="nan-e21"),
            pytest.param(GOOD_E21, [0.3, float("nan")], {}, id="nan-betaH"),
            pytest.param([float("nan")], [float("nan")], {}, id="nan-both"),
            pytest.param(GOOD_E21, GOOD_BH, {"gamma": -1.0}, id="gamma-negative"),
            pytest.param(GOOD_E21, GOOD_BH, {"gamma": 0.0}, id="gamma-zero-disconnected"),
            pytest.param(GOOD_E21, GOOD_BH, {"gamma": float("nan")}, id="gamma-nan"),
            pytest.param(GOOD_E21, GOOD_BH, {"omega_c": 0.0}, id="omega_c-zero"),
            pytest.param([0.2, 1.2], [0.3, 1.2], {"gamma": 0.0}, id="override-and-axes"),
        ],
    )
    @pytest.mark.parametrize("pid", ["A", "B", "C", "D"])
    def test_same_error(self, pid, e21_axis, betaH_axis, overrides):
        params = {**PRESET_DEFAULTS, **overrides}
        expected = _outcome(lambda: _per_point_grid(pid, e21_axis, betaH_axis, params))
        got = _outcome(
            lambda: grid_scan(pid, overrides=overrides, e21_axis=e21_axis, betaH_axis=betaH_axis)
        )
        assert isinstance(expected, tuple) and expected[0] is ValidationError
        assert got == expected

    @pytest.mark.parametrize(
        "overrides", [{"beta_w": 2.0}, {"e31": -1.0}, {"beta_c": 0.105}], ids=lambda o: str(o)
    )
    @pytest.mark.parametrize("pid", ["A", "B", "C", "D"])
    def test_same_error_on_default_axes(self, pid, overrides):
        # parameters that reverse a default axis are refused at its first point, never as an
        # axis the caller did not give
        params = {**PRESET_DEFAULTS, **overrides}
        e21_axis = np.linspace(0.01 * params["e31"], 0.99 * params["e31"], 5)
        bh_axis = np.linspace(params["beta_w"] + 0.01, params["beta_c"] - 0.01, 4)
        expected = _outcome(lambda: _per_point_grid(pid, e21_axis, bh_axis, params))
        assert isinstance(expected, tuple) and expected[0] is ValidationError
        assert _outcome(lambda: grid_scan(pid, 5, 4, overrides)) == expected
        expected = _outcome(lambda: _per_point_grid(pid, e21_axis, [0.9], params))
        assert isinstance(expected, tuple) and expected[0] is ValidationError
        assert _outcome(lambda: line_scan([pid], 0.9, 5, overrides)) == expected

    @pytest.mark.parametrize(
        "overrides",
        [
            # (0, 0)'s trace underflows before column 4's rates overflow in e^(beta omega)
            {"beta_c": 800.0, "gamma": 1e-150},
            {"beta_c": 800.0},
            {"gamma": 1e150},
            {"gamma": 1e-150},
            {"gamma": 1e308},
        ],
        ids=lambda o: str(o),
    )
    @pytest.mark.parametrize("pid", ["A", "B", "C", "D"])
    def test_same_refusal_past_validation(self, pid, overrides):
        # refusals of the rates, of L(0) and of the trace: the first point in row-major order
        # raises its own, whichever layer raises it
        params = {**PRESET_DEFAULTS, **overrides}
        e21_axis = np.linspace(0.01 * params["e31"], 0.99 * params["e31"], 5)
        bh_axis = np.linspace(params["beta_w"] + 0.01, params["beta_c"] - 0.01, 5)
        expected = _outcome(lambda: _per_point_grid(pid, e21_axis, bh_axis, params))
        assert isinstance(expected, tuple) and issubclass(expected[0], QarError)
        assert _outcome(lambda: grid_scan(pid, 5, 5, overrides)) == expected
        if pid == "A":
            assert expected[0] is (ValidationError if overrides == {"beta_c": 800.0}
                                   else ConsistencyError)

    @pytest.mark.parametrize("seed", range(40))
    def test_same_outcome_on_random_axes(self, seed):
        # axes straddling both E21 bounds and both beta_H bounds, in any mix
        rng = np.random.default_rng(seed)
        pid = "ABCD"[seed % 4]
        e21_axis = np.sort(rng.uniform(-0.1, 1.1, rng.integers(1, 5)))
        bh_axis = np.sort(rng.uniform(0.05, 1.05, rng.integers(1, 4)))
        expected = _outcome(lambda: _per_point_grid(pid, e21_axis, bh_axis, PRESET_DEFAULTS))
        got = _outcome(lambda: grid_scan(pid, e21_axis=e21_axis, betaH_axis=bh_axis))
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert got == expected
        else:
            assert got.current.tobytes() == expected[0].tobytes()
            assert np.array_equal(got.cooling_mask, expected[1])

    @pytest.mark.parametrize("pid", ["A", "B", "C", "D"])
    def test_same_bits_with_overrides(self, pid):
        overrides = {"e31": 1.3, "gamma": 2e-3, "omega_c": 5.0}
        grid = grid_scan(pid, 13, 11, overrides)
        current, mask = _per_point_grid(
            pid, grid.e21_axis, grid.betaH_axis, {**PRESET_DEFAULTS, **overrides}
        )
        assert grid.current.tobytes() == current.tobytes()
        assert np.array_equal(grid.cooling_mask, mask)


def _count_calls(monkeypatch, fns):
    """Count calls of ``fns`` through every binding of them in every qarfcs module."""
    counts = Counter()
    for fn in fns:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name != "qarfcs" and not name.startswith("qarfcs."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


class TestCallContract:
    """The per-point calls the benchmark pins, and one preset per axis point."""

    @pytest.mark.parametrize("pid, rates", [("A", 8), ("B", 24), ("C", 10), ("D", 10)])
    def test_calls_per_grid_point(self, monkeypatch, pid, rates):
        counts = _count_calls(
            monkeypatch, [model.rate, model.rate_table, fcs.charpoly, model.preset]
        )
        grid_scan(pid, 5, 4)
        points = 5 * 4
        assert counts == {
            "rate": rates * points,
            "rate_table": 4 * points,
            "charpoly": points,
            "preset": 5 + 4,
        }

    @pytest.mark.parametrize("pid", ["A", "B", "C", "D"])
    def test_one_generator_per_row(self, monkeypatch, pid):
        # each E21 row's generators come from one stacked call; no counting family is built
        counts = _count_calls(
            monkeypatch,
            [liouvillian.generator_from_tables, liouvillian.build_counting_family],
        )
        grid_scan(pid, 5, 4)
        assert counts == {"generator_from_tables": 5}

    def test_line_builds_one_preset_per_point(self, monkeypatch):
        counts = _count_calls(monkeypatch, [model.preset])
        line_scan(["A", "B"], 0.9, 7)
        assert counts["preset"] == 2 * (7 + 1)
