"""Self-check battery behind the ``validate`` command.

Each check replays one of the library's invariants on the configured
geometry and reports a measured number against a fixed tolerance.
Checks that cannot run on the given configuration (an emitter below
every cutoff has no correlation map, for instance) fail with a
diagnostic rather than crashing or silently passing, and a
measurement that overflows or underflows fails with a detail that says so.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .detection import RadicandModel, pole
from .emission import (
    amplitudes_ode_oracle,
    auto_shift_window,
    build_bins,
    decay_rate,
)
from .errors import WgError
from .modes import (
    TE10,
    ModeIndex,
    Polarization,
    cutoff_frequency,
    field_at,
    mode_divergence_residual,
    mode_helmholtz_residual,
)
from .numerics import principal_csqrt, pv_integrate
from .quantize import (
    HBAR,
    DensityModel,
    QuantizationBox,
    _cross_section_rule,
    mode_overlap,
    normalize,
)

_SEED = 20260822
_TM11 = ModeIndex(Polarization.TM, 1, 1)


class CheckResult(NamedTuple):
    """One named invariant with its measured value."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _result(name, measured, tolerance, detail="", ok=True):
    """Every row: plain floats, passed if ``ok`` and ``measured <
    tolerance``. A non-finite measurement says so in its detail unless
    the check failed it for its own reason (``ok=False``)."""
    measured = float(measured)
    if ok and not math.isfinite(measured):
        detail = f"the measurement is not finite ({measured!r})"
    return CheckResult(name=name, passed=bool(ok and measured < tolerance),
                       measured=measured, tolerance=float(tolerance),
                       detail=detail)


def _probe_modes(spec):
    # one mode per polarization, plus a higher pattern, probed on both
    # sides of cutoff where the pattern supports it
    listing = [(TE10, 1.7, 0.6), (_TM11, 1.5, 0.7),
               (ModeIndex(Polarization.TE, 2, 1), 1.3, 0.8)]
    for mode, up, down in listing:
        nu_c = cutoff_frequency(spec, mode)
        yield mode, up * nu_c
        yield mode, down * nu_c


def _check_residual(name, tolerance, fn, config):
    spec = config.waveguide_spec()
    # the axial offset and the stencil step in units of the inverse
    # TE(1,0) transverse wavenumber, so both scale with the guide
    unit = spec.width / math.pi
    point = (0.37 * spec.width, 0.41 * spec.height, 0.23 * unit)
    worst = 0.0
    for mode, freq in _probe_modes(spec):
        worst = max(worst, fn(spec, mode, freq, point, 1e-3 * unit))
    return _result(name, worst, tolerance)


def _energy_by_quadrature(spec, mode, freq, box, amplitude):
    # traveling profiles carry a z-uniform density, so one transverse
    # plane integrated over the cross-section and scaled by the box
    # length gives the stored energy
    pts, wxs, wys = _cross_section_rule(spec, 48, 0.1)
    f = field_at(spec, mode, freq, pts, amplitude=amplitude)
    density = 0.5 * (
        spec.permittivity * np.sum(np.abs(f.electric) ** 2, axis=-1)
        + spec.permeability * np.sum(np.abs(f.magnetic) ** 2, axis=-1))
    return box.length * float(np.einsum("i,j,ij->", wxs, wys, density))


def _check_energy(name, tolerance, config):
    spec = config.waveguide_spec()
    box = QuantizationBox(length=1.0)
    worst = 0.0
    for mode in (TE10, _TM11):
        freq = 1.7 * cutoff_frequency(spec, mode)
        amp = normalize(spec, mode, freq, box)
        energy = _energy_by_quadrature(spec, mode, freq, box, amp)
        if not energy:
            return _result(name, math.inf, tolerance,
                           "the field energy underflows to zero", ok=False)
        worst = max(worst, abs(energy - HBAR * freq) / (HBAR * freq))
    return _result(name, worst, tolerance)


def _check_orthogonality(name, tolerance, config):
    spec = config.waveguide_spec()
    pairs = [(TE10, ModeIndex(Polarization.TE, 2, 0)), (TE10, _TM11),
             (_TM11, ModeIndex(Polarization.TM, 2, 1))]
    worst = 0.0
    for mode_a, mode_b in pairs:
        freq = 1.5 * max(cutoff_frequency(spec, mode_a),
                         cutoff_frequency(spec, mode_b))
        cross = abs(mode_overlap(spec, mode_a, mode_b, freq))
        self_a = abs(mode_overlap(spec, mode_a, mode_a, freq))
        self_b = abs(mode_overlap(spec, mode_b, mode_b, freq))
        if not self_a * self_b:
            return _result(name, math.inf, tolerance,
                           "self-overlaps underflow to zero", ok=False)
        worst = max(worst, cross / math.sqrt(self_a * self_b))
    return _result(name, worst, tolerance)


def _pole_samples(config, count=200) -> list:
    # seeded (frequency, rate) draws; both pole checks read these poles
    rng = np.random.default_rng(_SEED)
    spec = config.waveguide_spec()
    models = list(RadicandModel)
    samples = []
    for k in range(count):
        omega = float(rng.uniform(0.05, 30.0))
        rate = float(rng.uniform(1e-4, 3.0))
        samples.append(pole(spec, omega, rate, models[k % 2]))
    return samples


def _check_pole_identity(name, tolerance, samples):
    worst = 0.0
    signs_ok = True
    for res in samples():
        beta = complex(res.beta_r, res.beta_i)
        worst = max(worst, abs(beta ** 2 - res.radicand)
                    / abs(res.radicand))
        signs_ok = signs_ok and res.beta_r > 0.0 and res.beta_i <= 0.0
    return _result(name, worst, tolerance,
                   "" if signs_ok else "sign convention violated",
                   ok=signs_ok)


def _check_pole_principal_root(name, tolerance, samples):
    worst = 0.0
    for res in samples():
        ref = principal_csqrt(res.radicand)
        worst = max(worst,
                    abs(complex(res.beta_r, res.beta_i) - ref)
                    / abs(ref))
    return _result(name, worst, tolerance)


def _check_box_invariance(name, tolerance, config):
    spec = config.waveguide_spec()
    atom = config.atom()
    worst = 0.0
    for model in DensityModel:
        totals = [decay_rate(spec, atom, QuantizationBox(length=length),
                             model, max_index=config.max_mn).total
                  for length in (1.0, 7.0)]
        if not any(totals):
            return _result(name, math.inf, tolerance, "both decay totals "
                           "are zero; there is no rate to compare",
                           ok=False)
        scale = max(abs(totals[0]), abs(totals[1]), 1e-300)
        worst = max(worst, abs(totals[0] - totals[1]) / scale)
    return _result(name, worst, tolerance)


def _check_pv_cancellation(name, tolerance):
    # PV of 1/(x - 1) over [0, 3]: the parts on [0, 2] cancel about
    # the pole, leaving ln 2 from [2, 3]. The numerator carries an
    # extra (x - 1) cos(pi x / 3), which integrates to zero over the
    # window, so the regular quadrature is exercised as well
    value = pv_integrate(
        lambda x: 1.0 + (x - 1.0) * np.cos(math.pi * x / 3.0),
        1.0, 0.0, 3.0)
    return _result(name, abs(value - math.log(2.0)), tolerance)


def _check_correlation(name, tolerance, config):
    # the run ``corr`` writes, so its discrepancy is what this checks
    return _result(name, config.correlation().metadata.consistency_max_rel,
                   tolerance)


def _check_markov_oracle(name, tolerance, config):
    """Exact discretized-continuum evolution against the golden-rule
    exponential above cutoff (tolerance 0.05), on cells over
    ``auto_shift_window`` whatever window the config sets, or against
    the no-leak bound below (0.5); ``tolerance`` is the failed row's."""
    spec = config.waveguide_spec()
    atom = config.atom()
    box = config.box()
    omega = atom.transition_frequency
    decay = decay_rate(spec, atom, box, config.dos, max_index=config.max_mn)
    if not decay.oscillatory:
        rate = decay.total
        if rate <= 0.0:
            return _result(name, math.inf, 0.05, "the decay rate is zero; "
                           "there is no exponential to compare", ok=False)
        # the traveling modes, each listed once per direction
        modes = list(dict.fromkeys(ch.mode for ch in decay.channels))
        window = auto_shift_window(spec, omega, rate,
                                   max_index=config.max_mn)
        cells = build_bins(spec, atom, box, config.dos,
                           window=window, count=160, modes=modes)
        times = np.linspace(0.0, 2.0 / rate, 17)
        c_a, _ = amplitudes_ode_oracle(times, cells, omega)
        return _result(name, np.max(np.abs(
            np.abs(c_a) ** 2 - np.exp(-rate * times))), 0.05,
            "traveling-channel decay against the exponential")
    nu_c = cutoff_frequency(spec, TE10)
    cells = build_bins(spec, atom, box, config.dos,
                       window=(0.4 * omega, 0.98 * nu_c), count=120,
                       modes=[TE10])
    times = np.linspace(0.0, 10.0 / omega, 15)
    c_a, _ = amplitudes_ode_oracle(times, cells, omega)
    return _result(name, 1.0 - np.min(np.abs(c_a) ** 2), 0.5,
                   "below-cutoff excitation stays on the atom")


def _run(name, tolerance, check, *args) -> CheckResult:
    """``check(name, tolerance, *args)``; a WgError raised in it fails
    the row, with the refusal as the detail."""
    try:
        return check(name, tolerance, *args)
    except WgError as err:
        return _result(name, math.inf, tolerance, str(err), ok=False)


def run_checks(config) -> tuple:
    """Run every named check once, each with its tolerance, and return
    the results in a fixed order."""
    # overflow and underflow show in the rows, not as warnings
    with np.errstate(all="ignore"):
        # drawn in the first pole row, so a refused draw fails the rows
        poles = functools.cache(functools.partial(_pole_samples, config))
        results = tuple(_run(*check) for check in (
            ("helmholtz_residual", 1e-5, _check_residual,
             mode_helmholtz_residual, config),
            ("divergence_residual", 1e-5, _check_residual,
             mode_divergence_residual, config),
            ("mode_orthogonality", 1e-10, _check_orthogonality, config),
            ("energy_normalization", 1e-10, _check_energy, config),
            ("pole_identity", 1e-12, _check_pole_identity, poles),
            ("pole_principal_root", 1e-12, _check_pole_principal_root,
             poles),
            ("box_length_invariance", 1e-14, _check_box_invariance,
             config),
            ("pv_oddpart_cancellation", 1e-9, _check_pv_cancellation),
            ("correlation_consistency", 1e-12, _check_correlation, config),
            ("markov_oracle", math.nan, _check_markov_oracle, config)))
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    return results
