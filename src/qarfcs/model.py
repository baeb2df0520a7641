"""Refrigerator models: levels, baths, detailed-balance rate constants, presets.

Units: hbar = k_B = 1 throughout, so energies and inverse temperatures are
dimensionless. Level indices are 0-based in code; file I/O is 1-based to
match the usual |1>, |2>, ... labelling.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ValidationError

Pair = tuple[int, int]

DEFAULT_GAP_TOL = 1e-6

# the numbers the model constructors take, as the loader does: never a string or a bool
_REALS = (int, float, np.integer, np.floating)


def _real(value, where: str, *args):
    """``value`` if one of ``_REALS`` in the float range, else a ValidationError at ``where``."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, _REALS)):
        raise ValidationError(f"{where.format(*args)} must be a real number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:  # a numpy integer always fits
        raise ValidationError(f"{where.format(*args)} is an integer beyond the float range")
    return value


def bose_occupation(omega: float, beta: float) -> float:
    """Bose-Einstein occupation 1/(e^(beta*omega) - 1) for omega, beta > 0."""
    if omega <= 0.0:
        raise ValidationError(f"transition energy must be positive, got {omega}")
    if beta <= 0.0:
        raise ValidationError(f"inverse temperature must be positive, got {beta}")
    try:
        return 1.0 / math.expm1(beta * omega)
    except OverflowError:  # e^(beta omega) leaves the double range above beta omega ~ 709.78
        raise ValidationError(f"e^(beta omega) overflows at beta * omega = {beta * omega:.6g}")


@dataclass(frozen=True)
class OhmicSpectralDensity:
    """Ohmic coupling spectrum gamma * omega * exp(-|omega|/omega_c).

    Only the on-resonance values enter weak-coupling rates, so any object with
    a compatible ``value(gamma, omega)`` can stand in for this class.
    """

    omega_c: float = 10.0

    def __post_init__(self) -> None:
        _real(self.omega_c, "field 'omega_c'")
        if not self.omega_c > 0.0:  # +inf, the pure ohmic limit, passes
            raise ValidationError(f"cutoff 'omega_c' must be positive, got {self.omega_c}")

    def value(self, gamma: float, omega: float) -> float:
        if gamma < 0.0:
            raise ValidationError(f"coupling must be nonnegative, got {gamma}")
        return gamma * omega * math.exp(-abs(omega) / self.omega_c)


def spectral_value(sd: OhmicSpectralDensity, gamma: float, omega: float) -> float:
    """Spectrum evaluated on resonance; omega must be positive."""
    if omega <= 0.0:
        raise ValidationError(f"transition energy must be positive, got {omega}")
    return sd.value(gamma, omega)


@dataclass(frozen=True)
class SystemSpec:
    """Ordered working-medium levels E_1 < E_2 < ... (strictly increasing)."""

    energies: tuple[float, ...]
    gap_tol: float = DEFAULT_GAP_TOL

    def __post_init__(self) -> None:
        if not np.iterable(self.energies):
            raise ValidationError(f"field 'energies' must be a sequence, got {self.energies!r}")
        levels = [_real(e, "field 'energies': level {}", i) for i, e in enumerate(self.energies, 1)]
        object.__setattr__(self, "energies", tuple(map(float, levels)))
        for i, e in enumerate(self.energies):
            if not math.isfinite(e):
                raise ValidationError(f"field 'energies': level {i + 1} is not finite, got {e}")
        if len(self.energies) < 2:
            raise ValidationError("a working medium needs at least 2 levels")
        if not _real(self.gap_tol, "field 'gap_tol'") > 0.0:
            raise ValidationError(f"gap tolerance must be positive, got {self.gap_tol}")
        for i in range(len(self.energies) - 1):
            gap = self.energies[i + 1] - self.energies[i]
            if gap < self.gap_tol:
                raise ValidationError(
                    f"levels {i + 1} and {i + 2} are separated by {gap:.3g} "
                    f"< gap tolerance {self.gap_tol:.3g}; quasidegenerate "
                    "levels are outside the secular regime"
                )

    @property
    def n_levels(self) -> int:
        return len(self.energies)


def _is_integer(x) -> bool:
    """True for an int or a numpy integer, never for a bool."""
    return type(x) is int or isinstance(x, np.integer)


def _normalize_pair(pair: Pair) -> Pair:
    i, j = pair[0], pair[1]
    if not (_is_integer(i) and _is_integer(j)):
        raise ValidationError(f"coupling pair {pair!r} must join two integer levels")
    i, j = int(i), int(j)
    if i == j:
        raise ValidationError(f"coupling pair must join distinct levels, got {pair}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class BathSpec:
    """One thermal reservoir: inverse temperature plus per-transition couplings.

    ``couplings`` maps unordered 0-based level pairs (i, j), i < j, to the
    dimensionless strength gamma >= 0; absent pairs mean zero.
    """

    label: str
    beta: float
    couplings: Mapping[Pair, float]
    spectral: OhmicSpectralDensity = field(default_factory=OhmicSpectralDensity)

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise ValidationError(f"field 'label' must be a string, got {self.label!r}")
        _real(self.beta, "bath {!r}: field 'beta'", self.label)
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValidationError(
                f"bath {self.label!r}: inverse temperature 'beta' must be positive "
                f"and finite, got {self.beta}"
            )
        norm: dict[Pair, float] = {}
        for pair, g in dict(self.couplings).items():
            g = float(_real(g, "bath {!r}: coupling 'gamma' for pair {}", self.label, pair))
            if not (math.isfinite(g) and g >= 0.0):
                raise ValidationError(
                    f"bath {self.label!r}: coupling 'gamma' for pair {pair} must be "
                    f"nonnegative and finite, got {g}"
                )
            key = _normalize_pair(pair)
            if key in norm:
                raise ValidationError(f"bath {self.label!r}: pair {pair} repeats a coupling")
            norm[key] = g
        object.__setattr__(self, "couplings", norm)


def _bath_index(index, baths, what: str, name: str | None = None) -> int:
    """``index`` as an int if ``_is_integer`` and indexing ``baths``; else a ValidationError
    that ``name`` (default ``what``) is no integer or ``what`` is out of range."""
    if not _is_integer(index):
        raise ValidationError(f"{name or what} must be an integer, got {index!r}")
    if not 0 <= index < len(baths):
        raise ValidationError(f"{what} {index} out of range")
    return int(index)


def _unreached(n: int, pairs) -> list[int]:
    """Levels 0..n-1 that no chain of the coupled ``pairs`` joins to level 0, ascending."""
    reached = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for (i, j) in pairs:
            if i == u and j not in reached:
                reached.add(j)
                stack.append(j)
            elif j == u and i not in reached:
                reached.add(i)
                stack.append(i)
    return sorted(set(range(n)) - reached)


@dataclass(frozen=True)
class QarModel:
    """A validated multilevel model: system, baths, and the refrigerated bath."""

    system: SystemSpec
    baths: tuple[BathSpec, ...]
    cold_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "baths", tuple(self.baths))
        if not self.baths:
            raise ValidationError("at least one bath is required")
        cold = _bath_index(self.cold_index, self.baths, "cold bath index", "field 'cold_index'")
        object.__setattr__(self, "cold_index", cold)
        labels = [bath.label for bath in self.baths]
        if len(set(labels)) < len(labels):
            raise ValidationError(f"bath labels must be unique, got {labels}")
        n = self.system.n_levels
        seen: set[Pair] = set()
        for bath in self.baths:
            for (i, j), g in bath.couplings.items():
                if not (0 <= i < n and 0 <= j < n):
                    raise ValidationError(
                        f"bath {bath.label!r}: pair ({i}, {j}) references a "
                        f"level outside 0..{n - 1}"
                    )
                if g > 0.0:
                    seen.add((i, j))
        # unique steady state needs every level reachable through some coupling
        missing = _unreached(n, seen)
        if missing:
            raise ValidationError(
                f"transition graph is disconnected: levels {missing} are not "
                "reachable, so the steady state is not unique"
            )

    @property
    def n_levels(self) -> int:
        return self.system.n_levels

    @property
    def n_baths(self) -> int:
        return len(self.baths)


def rate(model: QarModel, frm: int, to: int, bath: int) -> float:
    """Rate constant k_{frm->to} induced by one bath.

    Upward transitions absorb a resonant quantum (spectrum times occupation);
    downward ones emit (occupation + 1). Zero when the pair is uncoupled.
    """
    if frm == to:
        raise ValidationError("rate requires two distinct levels")
    b = model.baths[bath]
    g = b.couplings.get((frm, to) if frm < to else (to, frm), 0.0)
    if g == 0.0:
        return 0.0
    energies = model.system.energies
    e_from, e_to = energies[frm], energies[to]
    omega = abs(e_to - e_from)
    gam = spectral_value(b.spectral, g, omega)
    n = bose_occupation(omega, b.beta)
    return gam * n if e_to > e_from else gam * (n + 1.0)


def rate_table(model: QarModel, bath: int) -> np.ndarray:
    """Dense (N, N) table with entry [i, j] = k_{i->j} for one bath."""
    n = model.n_levels
    k = np.zeros((n, n))
    b = model.baths[bath]
    for i, j in b.couplings:  # ``rate`` gives 0.0 for a zero gamma
        k[i, j] = rate(model, i, j, bath)
        k[j, i] = rate(model, j, i, bath)
    return k


PRESET_IDS = ("A", "B", "C", "D")


def _preset_id(model_id) -> str:
    """``model_id`` upper-cased if a string naming one of ``PRESET_IDS``, else a ValidationError."""
    if not isinstance(model_id, str):
        raise ValidationError(f"preset id must be a string, got {model_id!r}")
    if model_id.upper() not in PRESET_IDS:
        raise ValidationError(f"unknown preset {model_id.upper()!r}; choose from {PRESET_IDS}")
    return model_id.upper()


# the ideal machine's one pair per bath, in role order cold, hot, work (every preset's bath order)
IDEAL_PAIRS: tuple[Pair, Pair, Pair] = ((0, 1), (0, 2), (1, 2))

# preset parameters other than (E21, beta_H); the scan writers emit them in
# this order
PRESET_DEFAULTS = {"e31": 1.0, "beta_c": 1.0, "beta_w": 0.1, "omega_c": 10.0, "gamma": 1e-3}

PRESET_NOTES = {
    "A": "ideal three-level refrigerator: C on 1-2, H on 1-3, W on 2-3",
    "B": "ideal couplings plus weak (gamma/50) couplings of every bath to "
    "the remaining transitions",
    "C": "ideal couplings plus a hot-bath leak on the 1-2 transition",
    "D": "ideal couplings plus a work-bath leak on the 1-2 transition",
}


def _check_ordering(e21: float, e31: float, beta_c: float, beta_h: float, beta_w: float) -> None:
    """Refuse a three-level machine unless all five are real, 0 < E21 < E31 and
    beta_w < beta_h < beta_c."""
    names = ("e21", "e31", "beta_c", "beta_h", "beta_w")
    for name, x in zip(names, (e21, e31, beta_c, beta_h, beta_w)):
        _real(x, name)
    if not 0.0 < e21 < e31:
        raise ValidationError(f"need 0 < E21 < E31, got E21={e21}, E31={e31}")
    if not beta_w < beta_h < beta_c:
        raise ValidationError(f"need beta_w < beta_h < beta_c, got {beta_w}, {beta_h}, {beta_c}")


def preset(
    model_id: str,
    e21: float,
    beta_h: float,
    *,
    e31: float = PRESET_DEFAULTS["e31"],
    beta_c: float = PRESET_DEFAULTS["beta_c"],
    beta_w: float = PRESET_DEFAULTS["beta_w"],
    omega_c: float = PRESET_DEFAULTS["omega_c"],
    gamma: float = PRESET_DEFAULTS["gamma"],
) -> QarModel:
    """Three-level refrigerator presets A-D.

    A is the ideal machine (each bath drives exactly one transition). B adds
    gamma/50 couplings of every bath to every other transition. C and D add a
    full-strength leak of the hot (C) or work (D) bath on the cold transition.
    """
    model_id = _preset_id(model_id)
    _check_ordering(e21, e31, beta_c, beta_h, beta_w)
    couplings = [{pair: gamma} for pair in IDEAL_PAIRS]
    if model_id == "B":
        weak = dict.fromkeys(IDEAL_PAIRS, _real(gamma, "gamma") / 50.0)
        couplings = [{**weak, **own} for own in couplings]
    elif model_id != "A":  # the hot (C) or work (D) bath leaks on the cold transition
        couplings[{"C": 1, "D": 2}[model_id]][IDEAL_PAIRS[0]] = gamma
    c, h, w = couplings
    sd = OhmicSpectralDensity(omega_c=omega_c)
    return QarModel(
        system=SystemSpec(energies=(0.0, e21, e31)),
        baths=(
            BathSpec("C", beta_c, c, sd), BathSpec("H", beta_h, h, sd), BathSpec("W", beta_w, w, sd)
        ),
        cold_index=0,
    )


def _field(raw, key: str, convert, where: str, default=None):
    """``convert(raw[key])``, or a ValidationError that names ``where`` and the field."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(raw).__name__}")
    if key not in raw and default is None:
        raise ValidationError(f"{where} is missing field {key!r}")
    try:
        return convert(raw.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: field {key!r} has invalid value {raw[key]!r}") from exc


def _json(kind, convert=None):
    """Converter taking only a value of the JSON ``kind``, never a bool, into ``convert``."""

    def check(value):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise TypeError(f"expected {kind}, got {type(value).__name__}")
        return value if convert is None else convert(value)

    return check


_number = _json((int, float), float)


def model_from_dict(data: dict) -> QarModel:
    """Build a model from the JSON schema (1-based level indices)."""
    system = SystemSpec(
        energies=_field(
            data, "energies", _json(list, lambda v: tuple(map(_number, v))), "model file"
        ),
        gap_tol=_field(data, "gap_tol", _number, "model file", DEFAULT_GAP_TOL),
    )
    cold = _field(data, "cold", lambda v: v, "model file")
    baths = []
    for n, raw in enumerate(_field(data, "baths", _json(list), "model file"), start=1):
        label = _field(raw, "label", _json(str), f"bath {n}")
        where = f"bath {label!r}"
        coup: dict[Pair, float] = {}
        for c, entry in enumerate(_field(raw, "couplings", _json(list), where, []), start=1):
            at = f"{where} coupling {c}"
            i, j = _field(entry, "i", _json(int), at), _field(entry, "j", _json(int), at)
            if i < 1 or j < 1:
                raise ValidationError(f"{where}: file couplings are 1-based, got ({i}, {j})")
            if (i - 1, j - 1) in coup or (j - 1, i - 1) in coup:
                raise ValidationError(f"{at}: fields 'i', 'j' repeat the pair ({i}, {j})")
            coup[(i - 1, j - 1)] = _field(entry, "gamma", _number, at)
        beta = _field(raw, "beta", _number, where)
        sd = OhmicSpectralDensity(omega_c=_field(raw, "omega_c", _number, where, 10.0))
        baths.append(BathSpec(label=label, beta=beta, couplings=coup, spectral=sd))
    labels = [b.label for b in baths]
    if cold not in labels:
        raise ValidationError(f"cold bath {cold!r} not among baths {labels}")
    return QarModel(system=system, baths=tuple(baths), cold_index=labels.index(cold))


def model_to_dict(model: QarModel) -> dict:
    """Inverse of model_from_dict (emits 1-based indices, and ``gap_tol`` unless the default)."""
    return {
        "energies": list(model.system.energies),
        **({} if model.system.gap_tol == DEFAULT_GAP_TOL else {"gap_tol": model.system.gap_tol}),
        "baths": [
            {
                "label": b.label,
                "beta": b.beta,
                "omega_c": b.spectral.omega_c,
                "couplings": [
                    {"i": i + 1, "j": j + 1, "gamma": g}
                    for (i, j), g in sorted(b.couplings.items())
                ],
            }
            for b in model.baths
        ],
        "cold": model.baths[model.cold_index].label,
    }


def load_model(path: str | Path) -> QarModel:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(data)


def save_model(model: QarModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
