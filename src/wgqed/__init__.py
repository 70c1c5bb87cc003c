"""Emission and detection of a single photon in a rectangular guide.

The package follows one pipeline: classify the guided eigenmodes
(``modes``), promote them to quantized field operators (``quantize``),
compute the emitter's decay rate and level shift (``emission``), and
propagate the emitted photon to a detection point where the
correlation map carries one decay rate in time and another along the
axis (``detection``). ``numerics`` holds the shared quadrature and
root-finding plumbing, ``config``/``cli``/``validate`` the command
line surface.
"""

from .detection import (
    EmitterSolution,
    OmegaDReport,
    PoleResult,
    RadicandModel,
    RateFit,
    brute_force_amplitude,
    correlation_grid,
    fit_decay_rates,
    omega_d,
    pole,
    solve_emitter,
)
from .emission import (
    DecayResult,
    MarkovParameters,
    ShiftResult,
    decay_rate,
    level_shift,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    DominanceError,
    NoCrossingError,
    PurelyEvanescentError,
    WgError,
)
from .modes import (
    Branch,
    ModeIndex,
    Polarization,
    WaveguideSpec,
    cutoff_frequency,
    dispersion,
    field_at,
)
from .quantize import (
    Atom,
    Channels,
    DensityModel,
    QuantizationBox,
    coupling_at,
    couplings,
    normalize,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Branch",
    "Channels",
    "ConfigError",
    "ConvergenceError",
    "DecayResult",
    "DensityModel",
    "DomainError",
    "DominanceError",
    "EmitterSolution",
    "MarkovParameters",
    "ModeIndex",
    "NoCrossingError",
    "OmegaDReport",
    "PoleResult",
    "Polarization",
    "PurelyEvanescentError",
    "QuantizationBox",
    "RadicandModel",
    "RateFit",
    "ShiftResult",
    "WaveguideSpec",
    "WgError",
    "brute_force_amplitude",
    "correlation_grid",
    "coupling_at",
    "couplings",
    "cutoff_frequency",
    "decay_rate",
    "dispersion",
    "field_at",
    "fit_decay_rates",
    "level_shift",
    "normalize",
    "omega_d",
    "pole",
    "solve_emitter",
    "__version__",
]
