"""Run configuration for the command line layer.

Configurations are plain text files of ``section.key = value`` lines.
Geometry and emitter keys are mandatory; model choices, grids, the
shift window and output policy all carry defaults. Unknown keys are a
hard error with a line number and a nearest-match hint, so a typo
cannot silently fall back to a default.

Values marked "auto" in the schema are resolved late, once the
quantities they depend on (the emitter frequency, the fitted decay
rate) are known.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, replace

import numpy as np

from .detection import RadicandModel
from .emission import auto_shift_window
from .errors import ConfigError, DomainError
from .modes import WaveguideSpec
from .quantize import Atom, DensityModel, QuantizationBox

DOS_NAMES = {
    "paper": DensityModel.PHASE_VELOCITY,
    "dispersion": DensityModel.GROUP_VELOCITY,
}
RADICAND_NAMES = {
    "paper": RadicandModel.SINGLE_INDEX,
    "consistent": RadicandModel.INDEX_SQUARED,
}

_REQUIRED = object()
_AUTO = object()

# largest x * z * t correlation grid a run may ask for; rows are held
# in memory before rendering, ~1.1 kB each at the figure grid
MAX_GRID_POINTS = 1_000_000

# key -> (parser kind, default); _REQUIRED means the file must set it,
# _AUTO means "resolved downstream" and is spelled "auto" in files
SCHEMA = {
    "waveguide.a": ("float", _REQUIRED),
    "waveguide.b": ("float", _REQUIRED),
    "waveguide.eps": ("float", _REQUIRED),
    "waveguide.mu": ("float", _REQUIRED),
    "atom.x0": ("float", _REQUIRED),
    "atom.y0": ("float", _REQUIRED),
    "atom.z0": ("float", _REQUIRED),
    "atom.omega": ("float", _REQUIRED),
    "atom.dipole_x_re": ("float", _REQUIRED),
    "atom.dipole_x_im": ("float", _REQUIRED),
    "atom.dipole_y_re": ("float", _REQUIRED),
    "atom.dipole_y_im": ("float", _REQUIRED),
    "atom.dipole_z_re": ("float", _REQUIRED),
    "atom.dipole_z_im": ("float", _REQUIRED),
    "models.dos": ("dos", DensityModel.PHASE_VELOCITY),
    "models.radicand": ("radicand", RadicandModel.SINGLE_INDEX),
    "models.max_mn": ("int", 8),
    "box.length": ("float", 1.0),
    "grid.x_min": ("float?", _AUTO),
    "grid.x_max": ("float?", _AUTO),
    "grid.x_count": ("int", 1),
    "grid.z_min": ("float", 1.0),
    "grid.z_max": ("float", 20.0),
    "grid.z_count": ("int", 40),
    "grid.t_min": ("float?", _AUTO),
    "grid.t_max": ("float?", _AUTO),
    "grid.t_count": ("int", 40),
    "window.nu_min": ("float?", _AUTO),
    "window.nu_max": ("float?", _AUTO),
    "output.format": ("format", "csv"),
    "output.digits": ("int", 12),
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated configuration.

    Optional floats hold None when the file said (or defaulted to)
    "auto"; accessor methods resolve them from context.
    """

    waveguide_a: float
    waveguide_b: float
    waveguide_eps: float
    waveguide_mu: float
    atom_x0: float
    atom_y0: float
    atom_z0: float
    atom_omega: float
    dipole: tuple
    dos: DensityModel
    radicand: RadicandModel
    max_mn: int
    box_length: float
    x_min: float | None
    x_max: float | None
    x_count: int
    z_min: float
    z_max: float
    z_count: int
    t_min: float | None
    t_max: float | None
    t_count: int
    nu_min: float | None
    nu_max: float | None
    out_format: str
    digits: int

    def waveguide_spec(self) -> WaveguideSpec:
        return WaveguideSpec(width=self.waveguide_a,
                             height=self.waveguide_b,
                             permittivity=self.waveguide_eps,
                             permeability=self.waveguide_mu)

    def atom(self) -> Atom:
        return Atom(position=(self.atom_x0, self.atom_y0, self.atom_z0),
                    dipole=self.dipole,
                    transition_frequency=self.atom_omega)

    def box(self) -> QuantizationBox:
        return QuantizationBox(length=self.box_length)

    def x_values(self) -> np.ndarray:
        if self.x_min is None or self.x_max is None:
            lo = self.atom_x0 if self.x_min is None else self.x_min
            hi = self.atom_x0 if self.x_max is None else self.x_max
        else:
            lo, hi = self.x_min, self.x_max
        return np.linspace(lo, hi, self.x_count)

    def z_values(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.z_count)

    def t_values(self, decay_rate: float) -> np.ndarray:
        """Time grid; auto bounds start just behind the far wavefront
        and span a few lifetimes."""
        if decay_rate <= 0.0:
            raise DomainError(
                "the auto time grid needs a positive decay rate")
        root = math.sqrt(self.waveguide_eps * self.waveguide_mu)
        lo = self.t_min
        if lo is None:
            lo = root * max(abs(self.z_min), abs(self.z_max)) \
                + 1.0 / decay_rate
        hi = self.t_max
        if hi is None:
            hi = lo + 4.0 / decay_rate
        if not hi > lo:
            raise ConfigError("time grid bounds must increase")
        return np.linspace(lo, hi, self.t_count)

    def shift_window(self, decay_rate: float | None = None) -> tuple:
        """Frequency window for the level shift integral.

        ``window.nu_min`` and ``window.nu_max`` win per side; the
        other side comes from ``emission.auto_shift_window`` with
        ``models.max_mn`` as the index bound.
        """
        auto_lo, auto_hi = auto_shift_window(
            self.waveguide_spec(), self.atom_omega, decay_rate,
            max_index=self.max_mn)
        lo = self.nu_min if self.nu_min is not None else auto_lo
        hi = self.nu_max if self.nu_max is not None else auto_hi
        if not 0.0 < lo < hi:
            raise ConfigError(
                "auto shift window collapsed; set window.nu_min and "
                "window.nu_max explicitly")
        return (lo, hi)

    def with_overrides(self, *, dos: str | None = None,
                       radicand: str | None = None,
                       max_mn: int | None = None,
                       out_format: str | None = None) -> "RunConfig":
        """Apply command line flag overrides on top of the file."""
        updates = {}
        if dos is not None:
            updates["dos"] = DOS_NAMES[dos]
        if radicand is not None:
            updates["radicand"] = RADICAND_NAMES[radicand]
        if max_mn is not None:
            if max_mn < 1:
                raise ConfigError("max_mn must be at least 1")
            updates["max_mn"] = max_mn
        if out_format is not None:
            updates["out_format"] = out_format
        return replace(self, **updates) if updates else self

    def effective_items(self) -> list:
        """Every schema key with its effective value, sorted, for the
        artifact envelope; unresolved autos stay spelled 'auto'."""
        rev_dos = {v: k for k, v in DOS_NAMES.items()}
        rev_rad = {v: k for k, v in RADICAND_NAMES.items()}
        vals = {
            "waveguide.a": self.waveguide_a,
            "waveguide.b": self.waveguide_b,
            "waveguide.eps": self.waveguide_eps,
            "waveguide.mu": self.waveguide_mu,
            "atom.x0": self.atom_x0,
            "atom.y0": self.atom_y0,
            "atom.z0": self.atom_z0,
            "atom.omega": self.atom_omega,
            "atom.dipole_x_re": self.dipole[0].real,
            "atom.dipole_x_im": self.dipole[0].imag,
            "atom.dipole_y_re": self.dipole[1].real,
            "atom.dipole_y_im": self.dipole[1].imag,
            "atom.dipole_z_re": self.dipole[2].real,
            "atom.dipole_z_im": self.dipole[2].imag,
            "models.dos": rev_dos[self.dos],
            "models.radicand": rev_rad[self.radicand],
            "models.max_mn": self.max_mn,
            "box.length": self.box_length,
            "grid.x_min": self.x_min,
            "grid.x_max": self.x_max,
            "grid.x_count": self.x_count,
            "grid.z_min": self.z_min,
            "grid.z_max": self.z_max,
            "grid.z_count": self.z_count,
            "grid.t_min": self.t_min,
            "grid.t_max": self.t_max,
            "grid.t_count": self.t_count,
            "window.nu_min": self.nu_min,
            "window.nu_max": self.nu_max,
            "output.format": self.out_format,
            "output.digits": self.digits,
        }
        out = []
        for key in sorted(vals):
            v = vals[key]
            out.append((key, "auto" if v is None else v))
        return out


def _convert(kind: str, raw: str, key: str, line_no: int):
    def bad(expected):
        return ConfigError(
            f"line {line_no}: key {key!r} expects {expected}, "
            f"got {raw!r}")

    if kind in ("float", "float?"):
        if kind == "float?" and raw == "auto":
            return None
        try:
            value = float(raw)
        except ValueError:
            raise bad("a real number") from None
        if not math.isfinite(value):
            raise bad("a finite real number")
        return value
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise bad("an integer") from None
    if kind == "dos":
        if raw not in DOS_NAMES:
            raise bad("one of " + "/".join(sorted(DOS_NAMES)))
        return DOS_NAMES[raw]
    if kind == "radicand":
        if raw not in RADICAND_NAMES:
            raise bad("one of " + "/".join(sorted(RADICAND_NAMES)))
        return RADICAND_NAMES[raw]
    if kind == "format":
        if raw not in ("csv", "json"):
            raise bad("csv or json")
        return raw
    raise AssertionError(kind)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Raises ConfigError with a line number for every syntactic problem
    and a consolidated message for missing required keys; physical
    inconsistencies (atom outside the guide, b > a) are also reported
    as configuration errors since they originate in the file.
    """
    seen = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {line_no}: expected 'key = value', got "
                f"{raw_line.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            hint = difflib.get_close_matches(key, SCHEMA, n=1)
            extra = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(
                f"line {line_no}: unknown key {key!r}{extra}")
        if key in seen:
            raise ConfigError(
                f"line {line_no}: duplicate key {key!r} (first set on "
                f"line {seen[key][1]})")
        if value == "":
            raise ConfigError(f"line {line_no}: empty value for "
                              f"{key!r}")
        seen[key] = (value, line_no)

    missing = [k for k, (_, default) in SCHEMA.items()
               if default is _REQUIRED and k not in seen]
    if missing:
        raise ConfigError("missing required keys: "
                          + ", ".join(sorted(missing)))

    values = {}
    for key, (kind, default) in SCHEMA.items():
        if key in seen:
            raw, line_no = seen[key]
            values[key] = _convert(kind, raw, key, line_no)
        else:
            values[key] = None if default is _AUTO else default

    dipole = tuple(
        complex(values[f"atom.dipole_{ax}_re"],
                values[f"atom.dipole_{ax}_im"])
        for ax in ("x", "y", "z"))

    config = RunConfig(
        waveguide_a=values["waveguide.a"],
        waveguide_b=values["waveguide.b"],
        waveguide_eps=values["waveguide.eps"],
        waveguide_mu=values["waveguide.mu"],
        atom_x0=values["atom.x0"],
        atom_y0=values["atom.y0"],
        atom_z0=values["atom.z0"],
        atom_omega=values["atom.omega"],
        dipole=dipole,
        dos=values["models.dos"],
        radicand=values["models.radicand"],
        max_mn=values["models.max_mn"],
        box_length=values["box.length"],
        x_min=values["grid.x_min"],
        x_max=values["grid.x_max"],
        x_count=values["grid.x_count"],
        z_min=values["grid.z_min"],
        z_max=values["grid.z_max"],
        z_count=values["grid.z_count"],
        t_min=values["grid.t_min"],
        t_max=values["grid.t_max"],
        t_count=values["grid.t_count"],
        nu_min=values["window.nu_min"],
        nu_max=values["window.nu_max"],
        out_format=values["output.format"],
        digits=values["output.digits"],
    )
    _validate(config)
    return config


def _validate(config: RunConfig):
    if config.max_mn < 1:
        raise ConfigError("models.max_mn must be at least 1")
    if config.box_length <= 0.0:
        raise ConfigError("box.length must be positive")
    for name, count in (("x", config.x_count), ("z", config.z_count),
                        ("t", config.t_count)):
        if count < 1:
            raise ConfigError(f"grid.{name}_count must be at least 1")
    points = config.x_count * config.z_count * config.t_count
    if points > MAX_GRID_POINTS:
        raise ConfigError(
            f"grid.x_count * grid.z_count * grid.t_count = {points} "
            f"exceeds the limit of {MAX_GRID_POINTS} grid points")
    if not 3 <= config.digits <= 17:
        raise ConfigError("output.digits must lie in [3, 17]")
    if config.nu_min is not None and config.nu_max is not None \
            and not 0.0 < config.nu_min < config.nu_max:
        raise ConfigError("window must satisfy 0 < nu_min < nu_max")
    try:
        spec = config.waveguide_spec()
        config.atom().check_inside(spec)
    except DomainError as err:
        raise ConfigError(str(err)) from err


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") \
            from err
    return parse_config(text)
