"""Command-line interface: single-point reports, scans, decomposition, checks.

Commands: current, noise, scan, line, decompose, cop, check, presets.
Levels are 1-based in all user-facing output. Errors exit nonzero with a
stable code per error class; in JSON mode they are emitted as an object with
an ``error`` field so scripts can parse failures.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import scan as scan_mod
from .analytic import cop, decompose
from .errors import QarError, ValidationError
from .fcs import (
    PRECONDITION_RTOL,
    _current_and_noise,
    _current_from_family,
    charpoly,
    cooling_condition,
    heat_current,
    numeric_cumulants,
)
from .liouvillian import build_counting_family, build_generator
from .model import IDEAL_PAIRS, PRESET_DEFAULTS, PRESET_IDS, load_model, preset, preset_note, rate
from .oracle import (
    conservation_residual,
    direct_current,
    fluctuation_symmetry_check,
    random_connected_model,
)

_TOL_DEFAULTS = {
    "noise_precondition": PRECONDITION_RTOL,
    "detailed_balance": 1e-12,
    "oracle_equivalence": 1e-10,
    "conservation": 1e-12,
    "symmetry": 1e-10,
    "decomposition": 1e-10,
    "cop": 1e-10,
}


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
    upper = [x.upper() for x in labels]
    if label.upper() in upper:
        return upper.index(label.upper())
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


def _add_tol(p: argparse.ArgumentParser) -> None:
    """``--tol``, only on the commands that read a tolerance."""
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a named tolerance (repeatable)")


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
    _add_tol(p)
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
    _add_tol(p)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--trials", type=int, default=200)

    p = sub.add_parser("presets", help="list built-in presets")
    _add_common(p)
    return parser


def _cmd_current(args) -> int:
    model = _model_from_args(args)
    bath = _bath_index(model, args.bath)
    current, value, cp = _current_from_family(build_counting_family(model, bath))
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
    tols = _parse_tols(args.tol)
    model = _model_from_args(args)
    bath = _bath_index(model, args.bath)
    family = build_counting_family(model, bath)
    j, s = _current_and_noise(family, tols["noise_precondition"])
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
    payload = {pid: preset_note(pid) for pid in PRESET_IDS}
    lines = [f"{pid}: {preset_note(pid)}" for pid in PRESET_IDS]
    _emit(payload, args, lines)
    return 0


def _run_checks(seed: int, trials: int, tols: dict[str, float]):
    """Seeded invariant suite; yields (name, passed, detail)."""
    rng = np.random.default_rng(seed)

    worst = 0.0
    for _ in range(trials):
        m = random_connected_model(rng)
        for b, bath in enumerate(m.baths):
            for (i, j), g in bath.couplings.items():
                if g == 0.0:
                    continue
                up = rate(m, i, j, b)
                dn = rate(m, j, i, b)
                expected = math.exp(-bath.beta * (m.system.energies[j] - m.system.energies[i]))
                worst = max(worst, abs(up / dn - expected) / expected)
    yield "detailed-balance", worst <= tols["detailed_balance"], f"worst rel dev {worst:.3e}"

    worst_im = 0.0
    worst_zero = 0.0
    coeff_ok = True
    worst_an = 0.0
    neg_ok = True
    for _ in range(trials):
        m = random_connected_model(rng)
        l0 = build_generator(m)
        cp = charpoly(l0)
        n = cp.n
        roots = np.roots(cp.monic())
        scale = float(np.max(np.abs(roots)))
        worst_im = max(worst_im, float(np.max(np.abs(roots.imag))) / scale)
        mags = np.sort(np.abs(roots))
        worst_zero = max(worst_zero, float(mags[0]))
        rest = np.sort(roots.real)[: n - 1]
        neg_ok = neg_ok and bool(np.all(rest < 0.0))
        coeff_ok = coeff_ok and all(cp.coefficient(j) > 0.0 for j in range(1, n))
        worst_an = max(worst_an, abs(cp.coefficient(n)) / np.linalg.norm(l0) ** n)
    yield (
        "eigen-structure",
        bool(
            worst_im <= 1e-8
            and worst_zero <= 1e-10
            and neg_ok
            and coeff_ok
            and worst_an <= 1e-12
        ),
        f"worst Im/scale {worst_im:.3e}, zero root {worst_zero:.3e}, "
        f"a_N/scale {worst_an:.3e}",
    )

    worst_eq = 0.0
    worst_cons = 0.0
    sign_bad = 0
    for _ in range(trials):
        m = random_connected_model(rng)
        j_scale = 0.0
        pairs = []
        for b in range(m.n_baths):
            jf = heat_current(m, b)
            jd = direct_current(m, b)
            pairs.append((jf, jd))
            j_scale = max(j_scale, abs(jf), abs(jd))
        if j_scale > 0.0:
            worst_eq = max(worst_eq, max(abs(x - y) for x, y in pairs) / j_scale)
            worst_cons = max(worst_cons, conservation_residual(m) / j_scale)
        value, _ = cooling_condition(m)
        j_cold = pairs[m.cold_index][0]  # heat_current(m, m.cold_index), computed above
        if value != 0.0 and math.copysign(1.0, value) != math.copysign(1.0, j_cold):
            sign_bad += 1
    yield "oracle-equivalence", bool(worst_eq <= tols["oracle_equivalence"]), f"worst {worst_eq:.3e}"
    yield "conservation", bool(worst_cons <= tols["conservation"]), f"worst {worst_cons:.3e}"
    yield "sign-equivalence", sign_bad == 0, f"{sign_bad} violations"

    worst_sym = 0.0
    n_sym = max(10, trials // 10)
    for _ in range(n_sym):
        m = random_connected_model(rng, n_baths=2)
        beta_max = max(b.beta for b in m.baths)
        s_star = m.baths[m.cold_index].beta - m.baths[1 - m.cold_index].beta
        lo = min(-0.3 * beta_max, s_star - 0.3 * beta_max)
        hi = max(0.3 * beta_max, s_star + 0.3 * beta_max)
        samples = np.linspace(lo, hi, 8)
        worst_sym = max(worst_sym, fluctuation_symmetry_check(m, samples))
    yield "fluctuation-symmetry", bool(worst_sym <= tols["symmetry"]), f"worst {worst_sym:.3e}"

    worst_dec = 0.0
    worst_cop = 0.0
    cop_bound_ok = True
    e31, beta_c, beta_w = (PRESET_DEFAULTS[key] for key in ("e31", "beta_c", "beta_w"))
    for _ in range(max(10, trials // 10)):
        beta_h = float(rng.uniform(0.2, 0.8))
        thr = (beta_h - beta_w) / (beta_c - beta_w)
        e21 = float(rng.uniform(0.1, 0.9)) * thr
        m = preset("A", e21, beta_h)
        dec = decompose(m)
        # the downward ideal rates; the preset's baths are in role order cold, hot, work
        kc, kh, kw = (rate(m, j, i, b) for b, (i, j) in enumerate(IDEAL_PAIRS))
        bracket = math.exp(-beta_w * (e31 - e21) - beta_c * e21) - math.exp(-beta_h * e31)
        closed = e21 * kh * kw * kc * bracket
        worst_dec = max(worst_dec, abs(dec.cycles[(0, 1)] - closed) / abs(closed))
        eta, eta_c = cop(m)
        ideal = e21 / (e31 - e21)
        worst_cop = max(worst_cop, abs(eta - ideal) / ideal)
        cop_bound_ok = cop_bound_ok and eta <= eta_c + tols["cop"]
    yield "ideal-cycle-term", bool(worst_dec <= tols["decomposition"]), f"worst rel {worst_dec:.3e}"
    yield "cop-bound", bool(worst_cop <= tols["cop"] and cop_bound_ok), f"worst rel {worst_cop:.3e}"


def _cmd_check(args) -> int:
    if args.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {args.trials}")
    tols = _parse_tols(args.tol)
    results = list(_run_checks(args.seed, args.trials, tols))
    failed = [name for name, ok, _ in results if not ok]
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results
    ]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} checks passed "
        f"(seed {args.seed}, trials {args.trials})"
    )
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "results": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in results
        ],
        "failed": failed,
    }
    _emit(payload, args, lines)
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
