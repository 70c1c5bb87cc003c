"""Self-check battery behind the ``validate`` command.

Each check replays one of the library's invariants on the configured
geometry and reports a measured number against a fixed tolerance.
Checks that cannot run on the given configuration (an emitter below
every cutoff has no correlation map, for instance) fail with a
diagnostic rather than crashing or silently passing.

The ``fault`` hook deliberately corrupts one internal constant so the
battery can be shown to actually bite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import RadicandModel, correlation_grid, pole, solve_emitter
from .emission import (
    amplitudes_ode_oracle,
    build_bins,
    decay_rate,
    modes_below,
)
from .errors import ConfigError, WgError
from .modes import (
    Branch,
    ModeIndex,
    Polarization,
    cutoff_frequency,
    dispersion,
    field_at,
    mode_divergence_residual,
    mode_helmholtz_residual,
)
from .numerics import _gl_nodes, principal_csqrt, pv_integrate
from .quantize import (
    HBAR,
    DensityModel,
    QuantizationBox,
    mode_overlap,
    normalize,
)

_FAULTS = ("normalization",)
_SEED = 20260822


@dataclass(frozen=True)
class CheckResult:
    """One named invariant with its measured value."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _probe_modes(spec):
    # one mode per polarization, plus a higher pattern, probed on both
    # sides of cutoff where the pattern supports it
    listing = [(ModeIndex(Polarization.TE, 1, 0), 1.7, 0.6),
               (ModeIndex(Polarization.TM, 1, 1), 1.5, 0.7),
               (ModeIndex(Polarization.TE, 2, 1), 1.3, 0.8)]
    for mode, up, down in listing:
        nu_c = cutoff_frequency(spec, mode)
        yield mode, up * nu_c
        yield mode, down * nu_c


def _check_residual(name, fn, config, tolerance=1e-5):
    spec = config.waveguide_spec()
    point = (0.37 * spec.width, 0.41 * spec.height, 0.23)
    worst = 0.0
    for mode, freq in _probe_modes(spec):
        worst = max(worst, fn(spec, mode, freq, point))
    return CheckResult(name=name, passed=worst < tolerance,
                       measured=worst, tolerance=tolerance)


def _gauss_nodes(lo, hi, count):
    x, w = _gl_nodes(count)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _energy_by_quadrature(spec, mode, freq, box, amplitude):
    # traveling profiles carry a z-uniform density, so one transverse
    # plane integrated over the cross-section and scaled by the box
    # length gives the stored energy
    xs, wxs = _gauss_nodes(0.0, spec.width, 48)
    ys, wys = _gauss_nodes(0.0, spec.height, 48)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx, gy, np.full_like(gx, 0.1)], axis=-1)
    f = field_at(spec, mode, freq, pts, amplitude=amplitude)
    density = 0.5 * (
        spec.permittivity * np.sum(np.abs(f.electric) ** 2, axis=-1)
        + spec.permeability * np.sum(np.abs(f.magnetic) ** 2, axis=-1))
    return box.length * float(np.einsum("i,j,ij->", wxs, wys, density))


def _check_energy(config, fault):
    spec = config.waveguide_spec()
    box = QuantizationBox(length=1.0)
    tolerance = 1e-10
    worst = 0.0
    for mode in (ModeIndex(Polarization.TE, 1, 0),
                 ModeIndex(Polarization.TM, 1, 1)):
        freq = 1.7 * cutoff_frequency(spec, mode)
        amp = normalize(spec, mode, freq, box)
        if fault == "normalization":
            amp *= 1.0 + 5e-4
        energy = _energy_by_quadrature(spec, mode, freq, box, amp)
        worst = max(worst, abs(energy - HBAR * freq) / (HBAR * freq))
    return CheckResult(name="energy_normalization",
                       passed=worst < tolerance, measured=worst,
                       tolerance=tolerance)


def _check_orthogonality(config):
    spec = config.waveguide_spec()
    pairs = [(ModeIndex(Polarization.TE, 1, 0),
              ModeIndex(Polarization.TE, 2, 0)),
             (ModeIndex(Polarization.TE, 1, 0),
              ModeIndex(Polarization.TM, 1, 1)),
             (ModeIndex(Polarization.TM, 1, 1),
              ModeIndex(Polarization.TM, 2, 1))]
    tolerance = 1e-10
    worst = 0.0
    for mode_a, mode_b in pairs:
        freq = 1.5 * max(cutoff_frequency(spec, mode_a),
                         cutoff_frequency(spec, mode_b))
        cross = abs(mode_overlap(spec, mode_a, mode_b, freq))
        self_a = abs(mode_overlap(spec, mode_a, mode_a, freq))
        self_b = abs(mode_overlap(spec, mode_b, mode_b, freq))
        if not self_a * self_b:
            return CheckResult(
                name="mode_orthogonality", passed=False, measured=math.inf,
                tolerance=tolerance, detail="self-overlaps underflow to zero")
        worst = max(worst, cross / math.sqrt(self_a * self_b))
    return CheckResult(name="mode_orthogonality",
                       passed=worst < tolerance, measured=worst,
                       tolerance=tolerance)


def _pole_samples(config, count=200):
    rng = np.random.default_rng(_SEED)
    spec = config.waveguide_spec()
    models = list(RadicandModel)
    for k in range(count):
        omega = float(rng.uniform(0.05, 30.0))
        rate = float(rng.uniform(1e-4, 3.0))
        yield spec, omega, rate, models[k % 2]


def _check_pole_identity(config):
    tolerance = 1e-12
    worst = 0.0
    signs_ok = True
    for spec, omega, rate, model in _pole_samples(config):
        res = pole(spec, omega, rate, model)
        beta = complex(res.beta_r, res.beta_i)
        worst = max(worst, abs(beta ** 2 - res.radicand)
                    / abs(res.radicand))
        signs_ok = signs_ok and res.beta_r > 0.0 and res.beta_i <= 0.0
    return CheckResult(
        name="pole_identity", passed=worst < tolerance and signs_ok,
        measured=worst, tolerance=tolerance,
        detail="" if signs_ok else "sign convention violated")


def _check_pole_principal_root(config):
    tolerance = 1e-12
    worst = 0.0
    for spec, omega, rate, model in _pole_samples(config):
        res = pole(spec, omega, rate, model)
        ref = principal_csqrt(res.radicand)
        worst = max(worst,
                    abs(complex(res.beta_r, res.beta_i) - ref)
                    / abs(ref))
    return CheckResult(name="pole_principal_root",
                       passed=worst < tolerance, measured=worst,
                       tolerance=tolerance)


def _check_box_invariance(config):
    spec = config.waveguide_spec()
    atom = config.atom()
    tolerance = 1e-14
    worst, detail = 0.0, ""
    try:
        for model in DensityModel:
            totals = [decay_rate(spec, atom, QuantizationBox(length=length),
                                 model, max_index=config.max_mn).total
                      for length in (1.0, 7.0)]
            scale = max(abs(totals[0]), abs(totals[1]), 1e-300)
            worst = max(worst, abs(totals[0] - totals[1]) / scale)
    except WgError as err:
        worst, detail = math.inf, str(err)
    return CheckResult(name="box_length_invariance",
                       passed=worst < tolerance, measured=worst,
                       tolerance=tolerance, detail=detail)


def _check_pv_cancellation(config):
    # PV of 1/(x - 1) over [0, 3]: the parts on [0, 2] cancel about
    # the pole, leaving ln 2 from [2, 3]. The numerator carries an
    # extra (x - 1) cos(pi x / 3), which integrates to zero over the
    # window, so the regular quadrature is exercised as well
    del config
    tolerance = 1e-9
    value = pv_integrate(
        lambda x: 1.0 + (x - 1.0) * np.cos(math.pi * x / 3.0),
        1.0, 0.0, 3.0)
    measured = abs(value - math.log(2.0))
    return CheckResult(name="pv_oddpart_cancellation",
                       passed=measured < tolerance, measured=measured,
                       tolerance=tolerance)


def _check_correlation(config):
    tolerance = 1e-12
    spec = config.waveguide_spec()
    atom = config.atom()
    try:
        sol = solve_emitter(spec, atom, config.box(), config.dos,
                            config.radicand, max_index=config.max_mn,
                            window=config.shift_window)
        grid = correlation_grid(
            spec, atom, sol.pole, config.x_values(), config.z_values(),
            config.t_values(sol.decay.total), dos=config.dos,
            max_index=config.max_mn)
    except WgError as err:
        return CheckResult(name="correlation_consistency",
                           passed=False, measured=math.inf,
                           tolerance=tolerance, detail=str(err))
    measured = grid.metadata.consistency_max_rel
    return CheckResult(name="correlation_consistency",
                       passed=measured < tolerance, measured=measured,
                       tolerance=tolerance)


def _check_markov_oracle(config):
    """Exact discretized-continuum evolution against the golden-rule
    exponential above cutoff, or against the no-leak bound below."""
    spec = config.waveguide_spec()
    atom = config.atom()
    box = config.box()
    omega = atom.transition_frequency
    try:
        decay = decay_rate(spec, atom, box, config.dos,
                           max_index=config.max_mn)
        if not decay.oscillatory:
            rate = decay.total
            modes = [m for _, m in modes_below(spec, omega,
                                               max_index=config.max_mn)]
            span = 25.0 * rate
            window = (omega - span, omega + span)
            bins = build_bins(spec, atom, box, config.dos,
                              window=window, count=160, modes=modes)
            times = np.linspace(0.0, 2.0 / rate, 17)
            c_a, _ = amplitudes_ode_oracle(times, bins, omega)
            measured = float(np.max(np.abs(
                np.abs(c_a) ** 2 - np.exp(-rate * times))))
            tolerance = 0.05
            detail = "traveling-channel decay against the exponential"
        else:
            # WaveguideSpec keeps height <= width, so TE(1,0) is a
            # lowest pattern, square guides included
            lowest = ModeIndex(Polarization.TE, 1, 0)
            nu_c = cutoff_frequency(spec, lowest)
            window = (0.4 * omega, 0.98 * nu_c)
            bins = build_bins(spec, atom, box, config.dos,
                              window=window, count=120, modes=[lowest])
            times = np.linspace(0.0, 10.0 / omega, 15)
            c_a, _ = amplitudes_ode_oracle(times, bins, omega)
            measured = float(1.0 - np.min(np.abs(c_a) ** 2))
            tolerance = 0.5
            detail = "below-cutoff excitation stays on the atom"
    except WgError as err:
        return CheckResult(name="markov_oracle", passed=False,
                           measured=math.inf, tolerance=math.nan,
                           detail=str(err))
    return CheckResult(name="markov_oracle",
                       passed=measured < tolerance, measured=measured,
                       tolerance=tolerance, detail=detail)


def run_checks(config, fault: str | None = None) -> tuple:
    """Run every named check once and return the results in a fixed
    order. ``fault`` selects a deliberate corruption, for proving the
    battery detects what it claims to."""
    if fault is not None and fault not in _FAULTS:
        raise ConfigError(
            f"unknown fault {fault!r}; known: {', '.join(_FAULTS)}")
    raw = (
        _check_residual("helmholtz_residual", mode_helmholtz_residual,
                        config),
        _check_residual("divergence_residual",
                        mode_divergence_residual, config),
        _check_orthogonality(config),
        _check_energy(config, fault),
        _check_pole_identity(config),
        _check_pole_principal_root(config),
        _check_box_invariance(config),
        _check_pv_cancellation(config),
        _check_correlation(config),
        _check_markov_oracle(config),
    )
    # strip numpy scalar types so artifacts serialize uniformly
    results = tuple(
        CheckResult(name=r.name, passed=bool(r.passed),
                    measured=float(r.measured),
                    tolerance=float(r.tolerance), detail=r.detail)
        for r in raw)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    return results
