"""Steady-state heat currents, noise, and cooling windows for multilevel
absorption refrigerators, computed from counting-field rate equations.

The public surface re-exports the main types and operations of each module:
model construction and presets, generator/counting-family assembly, the
characteristic-polynomial current and noise pipeline, brute-force validators,
closed-form reference results, and the parameter-scan drivers.
"""

from types import ModuleType as _ModuleType

from .errors import (
    QarError,
    ValidationError,
    TopologyError,
    NoiseNotApplicableError,
    ContinuationError,
    ConsistencyError,
    CopUndefinedError,
)
from .model import (
    SystemSpec,
    OhmicSpectralDensity,
    BathSpec,
    QarModel,
    bose_occupation,
    spectral_value,
    rate,
    rate_table,
    preset,
    PRESET_IDS,
    model_from_dict,
    model_to_dict,
    load_model,
    save_model,
)
from .liouvillian import (
    CountingFamily,
    build_generator,
    bath_generator,
    build_counting_family,
)
from .fcs import (
    CharPoly,
    FcsReport,
    charpoly,
    adjugate,
    adjugate_derivative,
    heat_current,
    cooling_condition,
    noise,
    cgf,
    numeric_cumulants,
    fcs_report,
)
from .oracle import (
    SteadyState,
    steady_state,
    direct_current,
    conservation_residual,
    fluctuation_symmetry_check,
    random_connected_model,
)
from .analytic import (
    Decomposition,
    sb_current,
    sb_noise,
    ideal_cooling,
    cop,
    cycle_conditions,
    leaky_cooling,
    decompose,
)
from .scan import (
    ScanGrid,
    LineScan,
    grid_scan,
    line_scan,
)

__version__ = "0.1.0"

# every name imported above, in import order
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
