"""Command-line interface: single-point reports, scans, decomposition, checks.

Commands: current, noise, scan, line, decompose, cop, check, presets.
Levels are 1-based in all user-facing output. Errors exit nonzero with a
stable code per error class; in JSON mode they are emitted as an object with
an ``error`` field so scripts can parse failures.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import scan as scan_mod
from .analytic import cop, decompose
from .errors import QarError, ValidationError
from .fcs import (  # charpoly: unused, but perfbench's binding test asserts cli binds it
    _base_charpoly, _current_and_noise, _current_from_family, charpoly, cooling_condition,
    numeric_cumulants,
)
from .liouvillian import build_counting_family
from .model import PRESET_DEFAULTS, PRESET_IDS, PRESET_NOTES, load_model, preset
from .oracle import FOLDS, INVARIANTS, random_connected_model

_TOL_DEFAULTS = dict(row[2] for row in INVARIANTS if row[2])  # (--tol name, default) of a row


def _parse_tols(pairs: list[str] | None) -> dict[str, float]:
    tols = dict(_TOL_DEFAULTS)
    for item in pairs or []:
        if "=" not in item:
            raise ValidationError(f"--tol expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        if name not in tols:
            raise ValidationError(
                f"unknown tolerance {name!r}; known: {sorted(tols)}"
            )
        try:
            tol = float(value)
        except ValueError:
            tol = math.nan
        if not 0.0 <= tol < math.inf:
            raise ValidationError(f"tolerance {name!r} must be a finite number >= 0, got {value!r}")
        tols[name] = tol
    return tols


def _model_from_args(args) -> "object":
    if args.model and args.preset:
        raise ValidationError("give either --model or --preset, not both")
    if args.model:
        return load_model(args.model)
    if args.preset:
        if args.e21 is None or args.betaH is None:
            raise ValidationError("--preset needs --e21 and --betaH")
        return preset(args.preset, args.e21, args.betaH, **_preset_params(args))
    raise ValidationError("a model source is required: --model <path> or --preset <id>")


def _bath_index(model, label: str | None) -> int:
    if label is None:
        return model.cold_index
    labels = [b.label for b in model.baths]
    if label in labels:
        return labels.index(label)
    matches = [x for x in labels if x.upper() == label.upper()]
    if len(matches) > 1:
        raise ValidationError(
            f"bath {label!r} matches {matches} only case-insensitively; give one of them exactly"
        )
    if matches:
        return labels.index(matches[0])
    raise ValidationError(f"no bath labelled {label!r}; model has {labels}")


def _write_file(path: str, write) -> None:
    """Run ``write(path)``; a path that cannot be opened for writing is refused."""
    try:
        write(path)
    except OSError as exc:
        raise ValidationError(f"cannot write output file {path!r}: {exc.strerror or exc}") from exc


def _check_writable(path: str) -> None:
    """Refuse, before any work, a path ``open(path, "w")`` would refuse; touches no file.

    ``_write_file`` stays the backstop for what this cannot foresee.
    """
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        err = errno.EISDIR
    elif not os.path.isdir(folder):
        err = errno.ENOENT if not os.path.exists(folder) else errno.ENOTDIR
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        err = errno.EACCES
    else:
        return
    raise ValidationError(f"cannot write output file {path!r}: {os.strerror(err)}")


def _emit(payload: dict, args, text_lines: list[str]) -> None:
    if args.format == "json":
        out = json.dumps(payload, indent=1) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    if getattr(args, "out", None):
        _write_file(args.out, lambda p: Path(p).write_text(out, encoding="utf-8"))
    else:
        sys.stdout.write(out)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="path to a JSON model file")
    p.add_argument("--preset", choices=PRESET_IDS, help="built-in three-level preset")
    p.add_argument("--e21", type=float, help="level spacing E2-E1 for presets")
    p.add_argument("--betaH", type=float, help="hot-bath inverse temperature for presets")
    _add_preset_params(p)


# command-line flag of each ``preset`` parameter other than (E21, beta_H)
_PRESET_FLAGS = {
    "e31": "e31", "beta_c": "betaC", "beta_w": "betaW", "omega_c": "omegaC", "gamma": "gamma",
}


def _add_preset_params(p: argparse.ArgumentParser) -> None:
    for key, flag in _PRESET_FLAGS.items():
        p.add_argument(f"--{flag}", type=float, default=PRESET_DEFAULTS[key])


def _preset_params(args) -> dict[str, float]:
    return {key: getattr(args, flag) for key, flag in _PRESET_FLAGS.items()}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qarfcs",
        description="Heat currents, noise, and cooling windows of multilevel "
        "absorption refrigerators from counting-field rate equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("current", help="mean heat current at one contact")
    _add_model_args(p)
    _add_common(p)
    p.add_argument("--bath", help="bath label to count at (default: cold bath)")
    p.add_argument("--verbose", action="store_true",
                   help="also print characteristic-polynomial coefficients")

    p = sub.add_parser("noise", help="zero-frequency noise at one contact")
    _add_model_args(p)
    _add_common(p)
    p.add_argument("--bath", help="bath label to count at (default: cold bath)")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against finite differences of the CGF")

    p = sub.add_parser("scan", help="(E21, betaH) grid of cold current and mask")
    _add_common(p)
    p.add_argument("--preset", choices=PRESET_IDS, required=True)
    p.add_argument("--resolution", default="101x101", help="grid size as NxM")
    _add_preset_params(p)

    p = sub.add_parser("line", help="J_C(E21) curves at fixed betaH")
    _add_common(p)
    p.add_argument("--presets", default="A,B,C,D", help="comma-separated preset ids")
    p.add_argument("--betaH", type=float, required=True)
    p.add_argument("--resolution", type=int, default=201, help="points along E21")
    _add_preset_params(p)

    p = sub.add_parser("decompose", help="cycle/leak split of the cold current")
    _add_model_args(p)
    _add_common(p)
    p.add_argument("--current-units", action="store_true",
                   help="divide parts by a_(N-1)(0) to express them as currents")

    p = sub.add_parser("cop", help="coefficient of performance (ideal topology)")
    _add_model_args(p)
    _add_common(p)

    p = sub.add_parser("check", help="run the seeded invariant suite")
    _add_common(p)
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a named tolerance (repeatable)")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--trials", type=int, default=200)

    p = sub.add_parser("presets", help="list built-in presets")
    _add_common(p)
    return parser


def _cmd_current(args) -> int:
    model = _model_from_args(args)
    bath = _bath_index(model, args.bath)
    family = build_counting_family(model, bath)
    cp = _base_charpoly(family.base)
    current, value = _current_from_family(family.dressed, cp)
    if bath != model.cold_index:
        value, _ = cooling_condition(model)
    label = model.baths[bath].label
    payload = {"bath": label, "current": current, "cooling_value": value, "cooling": value > 0.0}
    lines = [
        f"bath = {label}",
        f"current = {current:.17e}",
        f"cooling = {value > 0.0} (condition value {value:.17e})",
    ]
    if args.verbose:
        payload["charpoly"] = cp.coeffs.tolist()
        coeffs = ", ".join(f"a_{k + 1} = {c:.17e}" for k, c in enumerate(payload["charpoly"]))
        lines.append(f"charpoly: {coeffs}")
    _emit(payload, args, lines)
    return 0


def _deviation(value: float, ref: float) -> str:
    """Deviation of value from ref: relative, or absolute where ref is exactly 0."""
    if ref == 0.0:
        return f"abs dev {abs(value - ref):.3e}"
    return f"rel dev {abs(value - ref) / abs(ref):.3e}"


def _cmd_noise(args) -> int:
    model = _model_from_args(args)
    bath = _bath_index(model, args.bath)
    family = build_counting_family(model, bath)
    j, s = _current_and_noise(family)
    payload = {"bath": model.baths[bath].label, "current": j, "noise": s}
    lines = [
        f"bath = {model.baths[bath].label}",
        f"current = {j:.17e}",
        f"noise = {s:.17e}",
    ]
    if args.verify:
        j_num, s_num = numeric_cumulants(family)
        payload.update({"current_numeric": j_num, "noise_numeric": s_num})
        lines.append(f"numeric current = {j_num:.17e} ({_deviation(j_num, j)})")
        lines.append(f"numeric noise = {s_num:.17e} ({_deviation(s_num, s)})")
    _emit(payload, args, lines)
    return 0


def _cmd_scan(args) -> int:
    try:
        n_e21, n_bh = (int(x) for x in args.resolution.lower().split("x"))
    except ValueError as exc:
        raise ValidationError(f"--resolution must be NxM, got {args.resolution!r}") from exc
    out = args.out or f"scan_{args.preset}.{args.format}"
    _check_writable(out)
    grid = scan_mod.grid_scan(args.preset, n_e21, n_bh, _preset_params(args))
    write = scan_mod.write_grid_json if args.format == "json" else scan_mod.write_grid_csv
    _write_file(out, lambda p: write(grid, p))
    jmax, e21_at, bh_at = grid.max_current()
    sys.stdout.write(
        f"preset {args.preset}: cooling fraction {grid.cooling_fraction():.4f}, "
        f"max current {jmax:.6e} at (e21={e21_at:.4f}, betaH={bh_at:.4f}); "
        f"wrote {out}\n"
    )
    return 0


def _cmd_line(args) -> int:
    ids = [x.strip() for x in args.presets.split(",") if x.strip()]
    if not ids:
        raise ValidationError(f"--presets names no preset, got {args.presets!r}")
    out = args.out or f"line_betaH{args.betaH:g}.{args.format}"
    _check_writable(out)
    result = scan_mod.line_scan(ids, args.betaH, args.resolution, _preset_params(args))
    write = scan_mod.write_line_json if args.format == "json" else scan_mod.write_line_csv
    _write_file(out, lambda p: write(result, p))
    summary = ", ".join(f"{pid}: max {row.max():.6e}" for pid, row in result.currents.items())
    sys.stdout.write(f"betaH = {args.betaH:g}; {summary}; wrote {out}\n")
    return 0


def _pair_label(pair) -> str:
    return f"{pair[1] + 1},{pair[0] + 1}"  # higher level first, 1-based


def _cmd_decompose(args) -> int:
    model = _model_from_args(args)
    dec = decompose(model)
    # dividing by 1.0 is exact, so numerator units keep every bit
    unit = dec.normalization if args.current_units else 1.0
    lines = ["decomposition (current units)" if args.current_units
             else "decomposition (numerator units); parts sum to a_(N-1)(0) * J_C"]
    payload = {
        "current_units": args.current_units,
        "total": dec.total / unit,
        "normalization": dec.normalization,
        "reconstruction_residual": dec.reconstruction_residual / unit,
        "cycles": {},
        "leaks": {},
    }
    for pair, v in sorted(dec.cycles.items()):
        v /= unit
        lines.append(f"cycle[{_pair_label(pair)}] = {v:.17e}")
        payload["cycles"][_pair_label(pair)] = v
    for (lab, pair), v in sorted(dec.leaks.items()):
        v /= unit
        lines.append(f"leak[{lab};{_pair_label(pair)}] = {v:.17e}")
        payload["leaks"][f"{lab};{_pair_label(pair)}"] = v
    lines.append(f"total = {payload['total']:.17e}")
    lines.append(f"reconstruction residual = {payload['reconstruction_residual']:.3e}")
    _emit(payload, args, lines)
    return 0


def _cmd_cop(args) -> int:
    model = _model_from_args(args)
    eta, eta_c = cop(model)
    payload = {"cop": eta, "cop_carnot": eta_c}
    _emit(payload, args, [f"cop = {eta:.17e}", f"carnot bound = {eta_c:.17e}"])
    return 0


def _cmd_presets(args) -> int:
    _emit(PRESET_NOTES, args, [f"{pid}: {note}" for pid, note in PRESET_NOTES.items()])
    return 0


def _cmd_check(args) -> int:
    """The rows of ``INVARIANTS``, fed in order by five model streams drawn in turn from one
    seeded generator; rows that share a measure take it once per model."""
    if args.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be at least 0, got {args.seed}")
    tols = _parse_tols(args.tol)
    rng = np.random.default_rng(args.seed)
    draw = functools.partial(random_connected_model, rng)
    beta_c, beta_w = PRESET_DEFAULTS["beta_c"], PRESET_DEFAULTS["beta_w"]

    def ideal_preset():  # A at beta_H in 0.2-0.8 and E21 at 0.1-0.9 of its cooling threshold
        beta_h = float(rng.uniform(0.2, 0.8))
        thr = (beta_h - beta_w) / (beta_c - beta_w)
        return preset("A", float(rng.uniform(0.1, 0.9)) * thr, beta_h)

    trials, few = args.trials, max(10, args.trials // 10)
    streams = (  # (rows fed, models, draw one model)
        (1, trials, draw), (1, trials, draw), (3, trials, draw),
        (1, few, functools.partial(draw, n_baths=2)), (2, few, ideal_preset),
    )
    rows, results = iter(INVARIANTS), []
    for n_rows, count, draw_one in streams:
        models = [draw_one() for _ in range(count)]
        measured: dict = {}
        for name, measure, tol, limits, detail in itertools.islice(rows, n_rows):
            if measure not in measured:
                measured[measure] = [measure(m) for m in models]
            worst = {key: FOLDS[fold][0]([r[key] for r in measured[measure]])
                     for key, fold, _ in limits}
            passed = all(FOLDS[fold][1](worst[key], tols[tol[0]] if bound is None else bound)
                         for key, fold, bound in limits)
            results.append({"name": name, "passed": passed, "detail": detail.format(**worst)})
    failed = [r["name"] for r in results if not r["passed"]]
    lines = [f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['detail']}" for r in results]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} checks passed "
        f"(seed {args.seed}, trials {trials})"
    )
    _emit({"seed": args.seed, "trials": trials, "results": results, "failed": failed}, args, lines)
    return 0 if not failed else 1


_COMMANDS = {
    "current": _cmd_current,
    "noise": _cmd_noise,
    "scan": _cmd_scan,
    "line": _cmd_line,
    "decompose": _cmd_decompose,
    "cop": _cmd_cop,
    "check": _cmd_check,
    "presets": _cmd_presets,
}


# built on the first ``main`` call, not at import, and reused by later calls;
# parse_args keeps no state between calls (``append`` copies its default)
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except QarError as exc:
        if getattr(args, "format", "csv") == "json":
            payload = {
                "error": {
                    "code": exc.code_name,
                    "exit": exc.code,
                    "message": str(exc),
                }
            }
            sys.stdout.write(json.dumps(payload, indent=1) + "\n")
        else:
            sys.stderr.write(f"error ({exc.code_name}): {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
