"""Run configuration for the command line layer.

Configurations are plain text files of ``section.key = value`` lines.
Geometry and emitter keys are mandatory; model choices, grids, the
shift window and output policy all carry defaults. Unknown keys are a
hard error with a line number and a nearest-match hint, so a typo
cannot silently fall back to a default.

Each key is declared once, on its ``RunConfig`` field: file
spelling, parser kind, default and, for the four keys a command line
flag overrides, that flag. ``SCHEMA``, ``FLAGS``, the parser, the flag
overrides and the envelope echo all read that declaration. Keys that
default to "auto" are resolved late, once the quantities they depend
on (the emitter frequency, the fitted decay rate) are known.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields, replace
from enum import Enum

import numpy as np

from .detection import (MIN_FIT_CELLS, RadicandModel, correlation_grid,
                        solve_emitter)
from .emission import auto_shift_window
from .errors import ConfigError, DomainError
from .modes import WaveguideSpec
from .quantize import Atom, DensityModel, QuantizationBox

_REQUIRED = object()

FORMATS = ("csv", "json")

# largest x * z * t correlation grid a run may ask for; its rows
# stream a block at a time, so a run peaks at ~47 MB resident on a
# 4 x 250 x 1000 grid (CPython 3.11, numpy 2.4)
MAX_GRID_POINTS = 1_000_000


def _key(key: str, kind=float, default=_REQUIRED, flag=None):
    """Declare a field's file key, its parser kind, its default and the
    command line flag that overrides it, if one does.

    ``kind`` is ``float``, ``int``, an Enum whose values are the file
    spellings, or a tuple of allowed strings. ``_REQUIRED`` means the
    file must set the key; a default of None means "resolved
    downstream" and is spelled "auto" in files.
    """
    return field(metadata={"key": key, "kind": kind, "default": default,
                           "flag": flag})


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated configuration, one field per file key.

    Optional floats hold None when the file said (or defaulted to)
    "auto"; accessor methods resolve them from context.
    """

    waveguide_a: float = _key("waveguide.a")
    waveguide_b: float = _key("waveguide.b")
    waveguide_eps: float = _key("waveguide.eps")
    waveguide_mu: float = _key("waveguide.mu")
    atom_x0: float = _key("atom.x0")
    atom_y0: float = _key("atom.y0")
    atom_z0: float = _key("atom.z0")
    atom_omega: float = _key("atom.omega")
    dipole_x_re: float = _key("atom.dipole_x_re")
    dipole_x_im: float = _key("atom.dipole_x_im")
    dipole_y_re: float = _key("atom.dipole_y_re")
    dipole_y_im: float = _key("atom.dipole_y_im")
    dipole_z_re: float = _key("atom.dipole_z_re")
    dipole_z_im: float = _key("atom.dipole_z_im")
    dos: DensityModel = _key("models.dos", DensityModel,
                             DensityModel.PHASE_VELOCITY, flag="--dos")
    radicand: RadicandModel = _key("models.radicand", RadicandModel,
                                   RadicandModel.SINGLE_INDEX,
                                   flag="--radicand")
    max_mn: int = _key("models.max_mn", int, 8, flag="--max-mn")
    box_length: float = _key("box.length", float, 1.0)
    x_min: float | None = _key("grid.x_min", float, None)
    x_max: float | None = _key("grid.x_max", float, None)
    x_count: int = _key("grid.x_count", int, 1)
    z_min: float = _key("grid.z_min", float, 1.0)
    z_max: float = _key("grid.z_max", float, 20.0)
    z_count: int = _key("grid.z_count", int, 40)
    t_min: float | None = _key("grid.t_min", float, None)
    t_max: float | None = _key("grid.t_max", float, None)
    t_count: int = _key("grid.t_count", int, 40)
    nu_min: float | None = _key("window.nu_min", float, None)
    nu_max: float | None = _key("window.nu_max", float, None)
    out_format: str = _key("output.format", FORMATS, "csv", flag="--format")
    digits: int = _key("output.digits", int, 12)

    def waveguide_spec(self) -> WaveguideSpec:
        return WaveguideSpec(width=self.waveguide_a,
                             height=self.waveguide_b,
                             permittivity=self.waveguide_eps,
                             permeability=self.waveguide_mu)

    def atom(self) -> Atom:
        return Atom(position=(self.atom_x0, self.atom_y0, self.atom_z0),
                    dipole=(complex(self.dipole_x_re, self.dipole_x_im),
                            complex(self.dipole_y_re, self.dipole_y_im),
                            complex(self.dipole_z_re, self.dipole_z_im)),
                    transition_frequency=self.atom_omega)

    def box(self) -> QuantizationBox:
        return QuantizationBox(length=self.box_length)

    def x_values(self) -> np.ndarray:
        lo = self.atom_x0 if self.x_min is None else self.x_min
        hi = self.atom_x0 if self.x_max is None else self.x_max
        return np.linspace(lo, hi, self.x_count)

    def z_values(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.z_count)

    def t_values(self, decay_rate: float) -> np.ndarray:
        """Time grid; auto bounds start just behind the front at the
        axial sample farthest from the atom and span a few lifetimes."""
        if decay_rate <= 0.0:
            raise DomainError(
                "the auto time grid needs a positive decay rate")
        lo = self.t_min
        if lo is None:
            reach = max(abs(self.z_min - self.atom_z0),
                        abs(self.z_max - self.atom_z0))
            lo = (self.waveguide_spec().refractive_index * reach
                  + 1.0 / decay_rate)
        hi = self.t_max
        if hi is None:
            hi = lo + 4.0 / decay_rate
        self._check_t_range(lo, hi)
        return np.linspace(lo, hi, self.t_count)

    def _bound_names(self, *keys):
        # a bound left unset is named as the automatic one
        return (("the automatic " if getattr(self, SCHEMA[key].name) is None
                 else "") + key for key in keys)

    def _check_t_range(self, lo, hi):
        if not hi > lo:
            start, end = self._bound_names("grid.t_min", "grid.t_max")
            raise ConfigError(
                f"corr needs {end} above {start}; got {lo!r} and {hi!r}")

    def _check_window(self, lo, hi):
        if not 0.0 < lo < hi:
            low, high = self._bound_names("window.nu_min", "window.nu_max")
            raise ConfigError(f"the shift window needs 0 < {low} < {high}; "
                              f"got {lo!r} and {hi!r}")

    def shift_window(self, decay_rate: float) -> tuple:
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
        self._check_window(lo, hi)
        return (lo, hi)

    def correlation(self):
        """The correlation map that ``corr`` writes and ``validate``
        checks: the emitter chain, then the map on the configured grid.
        Before the chain, a ConfigError refuses a grid the fits cannot
        use: too few distinct |z - atom.z0| or times, explicit time
        bounds that do not increase, or x bounds outside [0, a]."""
        # the axial fit runs against |z - z0|, so mirrored samples count
        # once; np.unique would import numpy.ma into every run
        distances = np.sort(np.abs(self.z_values() - self.atom_z0))
        distinct = 1 + int(np.count_nonzero(distances[1:] != distances[:-1]))
        if min(distinct, self.t_count) < MIN_FIT_CELLS:
            raise ConfigError(
                f"corr needs at least {MIN_FIT_CELLS} distinct axial "
                f"distances |z - atom.z0| and grid.t_count of at least "
                f"{MIN_FIT_CELLS} to fit its two rates; got {distinct} and "
                f"{self.t_count}")
        if self.t_min is not None and self.t_max is not None:
            self._check_t_range(self.t_min, self.t_max)
        outside = [x for x in (self.x_min, self.x_max)
                   if x is not None and not 0.0 <= x <= self.waveguide_a]
        if outside:
            raise ConfigError(
                f"corr needs grid.x_min and grid.x_max inside [0, "
                f"waveguide.a] = [0, {self.waveguide_a!r}]; got "
                f"{outside[0]!r}")
        spec, atom = self.waveguide_spec(), self.atom()
        sol = solve_emitter(spec, atom, self.box(), self.dos,
                            self.radicand, max_index=self.max_mn,
                            window=self.shift_window)
        return correlation_grid(spec, atom, sol.pole, self.x_values(),
                                self.z_values(),
                                self.t_values(sol.decay.total),
                                dos=self.dos, max_index=self.max_mn)

    def with_overrides(self, **overrides) -> "RunConfig":
        """Apply command line flag overrides, keyed by field name, on
        top of the file; None leaves a field as the file set it. A
        refused value is named by its flag and its key."""
        updates = {name: _convert(FLAGS[name], value,
                                  f"flag {FLAGS[name].metadata['flag']}")
                   for name, value in overrides.items()
                   if value is not None}
        config = replace(self, **updates)
        _validate(config)
        return config

    def effective_items(self) -> list:
        """Every key with its effective value, sorted, for the artifact
        envelope; models echo their file spelling and unresolved autos
        stay spelled 'auto'."""
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, Enum):
                v = v.value
            out.append((f.metadata["key"], "auto" if v is None else v))
        return sorted(out)


SCHEMA = {f.metadata["key"]: f for f in fields(RunConfig)}
# the fields a command line flag overrides, by field name
FLAGS = {f.name: f for f in fields(RunConfig) if f.metadata["flag"]}


def _convert(f: Field, raw, where: str):
    kind, key = f.metadata["kind"], f.metadata["key"]

    def bad(expected):
        return ConfigError(
            f"{where}: key {key!r} expects {expected}, got {raw!r}")

    if kind is float:
        if raw == "auto" and f.metadata["default"] is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise bad("a real number") from None
        if not math.isfinite(value):
            raise bad("a finite real number")
        return value
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise bad("an integer") from None
    if isinstance(kind, tuple):
        if raw not in kind:
            raise bad(" or ".join(kind))
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise bad("one of " + "/".join(sorted(m.value for m in kind))) \
            from None


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
            # imported here: its only use, and a clean run never needs it
            import difflib
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

    missing = [k for k, f in SCHEMA.items()
               if f.metadata["default"] is _REQUIRED and k not in seen]
    if missing:
        raise ConfigError("missing required keys: "
                          + ", ".join(sorted(missing)))

    values = {}
    for key, f in SCHEMA.items():
        if key in seen:
            raw, line_no = seen[key]
            values[f.name] = _convert(f, raw, f"line {line_no}")
        else:
            values[f.name] = f.metadata["default"]
    config = RunConfig(**values)
    _validate(config)
    return config


def _validate(config: RunConfig):
    if config.max_mn < 1:
        raise ConfigError("models.max_mn must be at least 1")
    # the one-quantum amplitude scales as box.length**-0.5 and the
    # state density as box.length; far outside this range their
    # intermediate products overflow or underflow
    if not 1e-100 <= config.box_length <= 1e100:
        raise ConfigError("box.length must lie in [1e-100, 1e100]")
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
    if config.nu_min is not None and config.nu_max is not None:
        config._check_window(config.nu_min, config.nu_max)
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
