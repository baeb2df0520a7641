"""Parameter sweeps over (E21, beta_H): cooling-window grids and line cuts.

A grid is evaluated one E21 row at a time: the row's models go through
``fcs._currents``, the path of the scalar ``heat_current``, whose assembly
``liouvillian._counted`` (every counting family's) stacks their rate tables
and generators; each point's characteristic polynomial is taken alone, so
every current and certificate is bitwise that of a per-point evaluation.
Errors are raised in row-major order. Negative currents are kept in the data;
masking is the consumer's choice.

Tolerance policy, the ``tolerance_policy = scale-relative`` header line of a
grid CSV. The cooling mask is the exact sign of each point's cooling
certificate, ``value > 0.0`` with no tolerance; it shares its sign with the
current, since a_(N-1)(0) > 0. The current's error on the given rates is
bounded relative to the gross flux at the cold bath (the sum of |dE k p|
over its transitions), not to |J|: within 8 u of it, u = 2^-53. So near a
window edge, where |J| falls below that bound, a point's sign is not
certified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .fcs import _currents
from .model import PRESET_DEFAULTS, QarModel, _is_integer, _preset_id, _real, preset


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Cold current and cooling mask over an (E21, beta_H) grid.

    current[i, j] belongs to (e21_axis[i], betaH_axis[j]); the mask is the
    sign certificate of the cooling condition at each point.
    """

    preset_id: str
    e21_axis: np.ndarray
    betaH_axis: np.ndarray
    current: np.ndarray
    cooling_mask: np.ndarray
    params: dict = field(default_factory=dict)

    def cooling_fraction(self) -> float:
        return float(self.cooling_mask.mean())

    def max_current(self) -> tuple[float, float, float]:
        """(max J, its e21, its betaH)."""
        i, j = np.unravel_index(int(np.argmax(self.current)), self.current.shape)
        return float(self.current[i, j]), float(self.e21_axis[i]), float(self.betaH_axis[j])


@dataclass(frozen=True, eq=False)
class LineScan:
    """Cold-current curves J_C(E21) at fixed beta_H, one per preset."""

    betaH: float
    e21_axis: np.ndarray
    currents: dict[str, np.ndarray]
    params: dict = field(default_factory=dict)


def _merged_params(overrides: dict | None) -> dict:
    params = dict(PRESET_DEFAULTS)
    if overrides:
        unknown = set(overrides) - set(PRESET_DEFAULTS)
        if unknown:
            raise ValidationError(f"unknown scan overrides: {sorted(unknown)}")
        params.update({key: _real(x, "scan override {!r}", key) for key, x in overrides.items()})
    return params


def _axis(values, n: int, lo: float, hi: float) -> np.ndarray:
    """An explicit axis as 1-D floats with at least one point, its points other than NaN
    strictly increasing, else an integer n >= 2 points on [lo, hi], decreasing where bad
    parameters put hi below lo."""
    if values is None:
        if not _is_integer(n):
            raise ValidationError(f"grid needs an integer number of points per axis, got {n!r}")
        if n < 2:
            raise ValidationError("grid needs at least 2 points per axis")
        return np.linspace(lo, hi, n)
    try:
        axis = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"a scan axis must hold real numbers, got {values!r}") from exc
    if axis.ndim != 1 or axis.size == 0:
        raise ValidationError(f"a scan axis must be 1-D with at least 1 point, got {axis.shape}")
    # NaN compares false with everything, so order is checked among the other points; a NaN
    # point, like an infinite one, is a bad grid point that its preset refuses in turn
    ordered = axis[~np.isnan(axis)]
    if not np.all(ordered[1:] > ordered[:-1]):
        raise ValidationError("scan axes must be strictly increasing")
    return axis


def grid_scan(
    preset_id: str,
    n_e21: int = 101,
    n_betaH: int = 101,
    overrides: dict | None = None,
    *,
    e21_axis: np.ndarray | None = None,
    betaH_axis: np.ndarray | None = None,
) -> ScanGrid:
    """Cold current and cooling mask for one preset over the full window."""
    preset_id = _preset_id(preset_id)
    params = _merged_params(overrides)
    e31, beta_c, beta_w = params["e31"], params["beta_c"], params["beta_w"]
    ax_e21 = _axis(e21_axis, n_e21, 0.01 * e31, 0.99 * e31)
    ax_bh = _axis(betaH_axis, n_betaH, beta_w + 0.01, beta_c - 0.01)

    def point(e21: float, bh: float) -> QarModel:
        try:
            return preset(preset_id, e21, bh, **params)
        except ValidationError as exc:
            raise ValidationError(f"grid point (e21={e21:.6g}, betaH={bh:.6g}): {exc}") from exc

    # No preset check involves both E21 and beta_H, and a bad other parameter fails
    # everywhere: row 0 holds the first bad point in row-major order unless every
    # beta_H is good, and then column 0 does. Validating row 0, then column 0, raises
    # the per-point loop's error; point (i, j) is row i's levels with column j's baths.
    e21s, bhs = ax_e21.tolist(), ax_bh.tolist()
    baths = [point(e21s[0], bh).baths for bh in bhs]
    levels = [point(e21, bhs[0]).system for e21 in e21s]
    current = np.empty((len(ax_e21), len(ax_bh)))
    mask = np.empty((len(ax_e21), len(ax_bh)), dtype=bool)
    # one E21 row at a time, so memory holds one row of rate tables; these models cannot fail
    for i, system in enumerate(levels):
        row = _currents([QarModel(system, bath_set, 0) for bath_set in baths], 0)
        current[i], value = np.array(row).T
        mask[i] = value > 0.0
    return ScanGrid(preset_id, ax_e21, ax_bh, current, mask, params)


def line_scan(
    preset_ids,
    betaH: float,
    n_e21: int = 201,
    overrides: dict | None = None,
) -> LineScan:
    """J_C(E21) curves at fixed beta_H for a list of presets."""
    if not np.iterable(preset_ids):
        raise ValidationError(f"line scan needs a sequence of preset ids, got {preset_ids!r}")
    ids = list(dict.fromkeys(map(_preset_id, preset_ids)))
    if not ids:
        raise ValidationError("line scan needs at least one preset")
    if _is_integer(n_e21) and n_e21 < 2:  # any other count meets the grid's integer rule
        raise ValidationError("line scan needs at least 2 points")
    _real(betaH, "line scan betaH")
    # each curve is column 0 of a one-column grid at this beta_H
    grids = [grid_scan(pid, n_e21, overrides=overrides, betaH_axis=[betaH]) for pid in ids]
    return LineScan(
        betaH=float(betaH),
        e21_axis=grids[0].e21_axis,
        currents={pid: grid.current[:, 0] for pid, grid in zip(ids, grids)},
        params=grids[0].params,
    )


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def _header_lines(kind: str, params: dict, extra: dict) -> list[str]:
    items = {**params, **extra}
    lines = [f"# {kind}"]
    for key in sorted(items):
        lines.append(f"# {key} = {items[key]}")
    return lines


def write_grid_csv(grid: ScanGrid, path: str | Path) -> None:
    """Long-format CSV: e21, betaH, current, cooling (full precision).

    Streamed one E21 row at a time, so memory does not grow with the grid.
    """
    lines = _header_lines(
        "qarfcs grid scan",
        grid.params,
        {"preset": grid.preset_id, "tolerance_policy": "scale-relative, see module docs"},
    )
    bh_cols = [_fmt(bh) for bh in grid.betaH_axis.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\ne21,betaH,current,cooling\n")
        for i, e21 in enumerate(map(_fmt, grid.e21_axis.tolist())):
            cells = zip(bh_cols, grid.current[i].tolist(), grid.cooling_mask[i].tolist())
            fh.write("".join([f"{e21},{bh},{_fmt(j)},{int(c)}\n" for bh, j, c in cells]))


def write_grid_json(grid: ScanGrid, path: str | Path) -> None:
    payload = {
        "kind": "qarfcs grid scan",
        "preset": grid.preset_id,
        "params": grid.params,
        "e21_axis": np.asarray(grid.e21_axis, dtype=float).tolist(),
        "betaH_axis": np.asarray(grid.betaH_axis, dtype=float).tolist(),
        "current": np.asarray(grid.current, dtype=float).tolist(),
        "cooling_mask": np.asarray(grid.cooling_mask, dtype=bool).tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_grid_json(path: str | Path) -> ScanGrid:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return ScanGrid(
        preset_id=data["preset"],
        e21_axis=np.array(data["e21_axis"]),
        betaH_axis=np.array(data["betaH_axis"]),
        current=np.array(data["current"]),
        cooling_mask=np.array(data["cooling_mask"], dtype=bool),
        params=data.get("params", {}),
    )


def write_line_csv(scan: LineScan, path: str | Path) -> None:
    """Long-format CSV: preset, e21, current."""
    lines = _header_lines("qarfcs line scan", scan.params, {"betaH": scan.betaH})
    e21_cols = [_fmt(e21) for e21 in scan.e21_axis.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\npreset,e21,current\n")
        for pid in sorted(scan.currents):
            row = zip(e21_cols, scan.currents[pid].tolist())
            fh.write("".join([f"{pid},{e21},{_fmt(j)}\n" for e21, j in row]))


def write_line_json(scan: LineScan, path: str | Path) -> None:
    payload = {
        "kind": "qarfcs line scan",
        "betaH": scan.betaH,
        "params": scan.params,
        "e21_axis": np.asarray(scan.e21_axis, dtype=float).tolist(),
        "currents": {
            pid: np.asarray(row, dtype=float).tolist() for pid, row in scan.currents.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
