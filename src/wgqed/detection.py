"""Far-field signature of the emitted photon.

Once a single traveling channel dominates, the detection amplitude at
a point down the guide follows from the resonance pole of the emitted
spectrum. The pole sits at the shifted line center minus half the
decay rate in the imaginary direction; continuing the axial dispersion
relation to that complex frequency splits the propagation constant
into an oscillation part and a negative imaginary part. Inside the
causal cone the squared amplitude then decays exponentially in two
separate ways:

* along the time axis at the emission rate;
* along the guide axis at twice the magnitude of the imaginary
  propagation constant.

The two rates generally differ, and their magnitude ratio crosses the
front-speed index at one special line-center frequency. Fixing the
imaginary part of the pole at that ratio solves the pole equation in
closed form, so ``omega_d`` states the crossing exactly, or the
condition under which none exists, with no scan.

Two analytic-continuation conventions are supported for the radicand
of the complex propagation constant, differing in the power of the
medium index that multiplies the squared frequency. They coincide in
vacuum and are tagged on every result.

``brute_force_amplitude`` recomputes the same object without any pole
algebra: the exact resonance envelope in time multiplies a direct
numerical quadrature over the real axial wavenumber line that
assembles the spatial profile from the Lorentzian spectrum, with an
asymptotic closure for the truncated tails. It anchors both the
spatial rate pair and the constant in front of the amplitude.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoCrossingError
from .quantize import Atom, DensityModel, QuantizationBox
from .modes import TE10, WaveguideSpec, transverse_wavenumber
from .emission import (
    DecayResult,
    ShiftResult,
    auto_shift_window,
    decay_rate,
    dominant_channel,
    level_shift,
)
from .numerics import principal_csqrt


class RadicandModel(Enum):
    """Coefficient of the squared complex frequency when the axial
    dispersion relation is continued off the real frequency axis.

    SINGLE_INDEX
        One power of the medium index sqrt(eps*mu); reproduces the
        phase-velocity state counting.
    INDEX_SQUARED
        The full eps*mu of the real dispersion relation
        beta^2 = eps*mu*nu^2 - h^2.
    """

    SINGLE_INDEX = "paper"
    INDEX_SQUARED = "consistent"

    def coefficient(self, spec: WaveguideSpec) -> float:
        if self is RadicandModel.SINGLE_INDEX:
            return spec.refractive_index
        return spec.permittivity * spec.permeability


class PoleResult(NamedTuple):
    """Complex axial propagation constant at the emission pole.

    beta_r is the oscillation wavenumber (positive), beta_i the
    imaginary part (never positive); their square reassembles
    ``radicand``. The line center and decay rate that produced the
    pole ride along for downstream consumers.
    """

    beta_r: float
    beta_i: float
    radicand: complex
    shifted_frequency: float
    decay_rate: float
    model: RadicandModel

    @property
    def spatial_rate(self) -> float:
        """Signed axial rate 2*beta_i, never positive.

        Its magnitude is the exponential rate at which the squared
        detection amplitude falls with axial distance from the source
        inside the causal cone at fixed time.
        """
        return 2.0 * self.beta_i


def pole(spec: WaveguideSpec, shifted_frequency: float,
         decay_rate: float,
         model: RadicandModel = RadicandModel.SINGLE_INDEX) -> PoleResult:
    """Continue the fundamental channel's axial constant to the
    complex line center.

    Solves (beta_r + i*beta_i)^2 = c*(w - i*rate/2)^2 - (pi/width)^2
    with the branch beta_r > 0, beta_i <= 0, using cancellation-free
    forms on both sides of the sign change of the real part.
    """
    if not (math.isfinite(shifted_frequency)
            and math.isfinite(decay_rate)):
        raise DomainError("line center and decay rate must be finite")
    if shifted_frequency <= 0.0:
        raise DomainError("line center must be positive")
    if decay_rate < 0.0:
        raise DomainError("decay rate must be nonnegative")
    c = model.coefficient(spec)
    p = transverse_wavenumber(spec, TE10) ** 2
    try:
        a_part = c * (shifted_frequency ** 2 - 0.25 * decay_rate ** 2) - p
    except OverflowError:
        a_part = math.inf
    b_part = 0.5 * c * shifted_frequency * decay_rate
    if b_part == 0.0:
        if a_part <= 0.0:
            raise DomainError(
                "zero decay rate below the fundamental cutoff leaves "
                "no oscillating part to propagate")
        beta_r, beta_i = math.sqrt(a_part), 0.0
        radicand = complex(a_part, 0.0)
    else:
        r = math.hypot(a_part, 2.0 * b_part)
        # the component along the sign of a_part is the large one; the
        # small one is b over it, since beta_r*beta_i = -b, taken from
        # the large one when 2/(r + |a|) overflows on a subnormal r
        large = math.sqrt(0.5 * (r + abs(a_part)))
        small = b_part * math.sqrt(2.0 / (r + abs(a_part)))
        if math.isinf(small):
            small = b_part / large
        beta_r, beta_i = ((large, -small) if a_part >= 0.0
                          else (small, -large))
        radicand = complex(a_part, -2.0 * b_part)
    # an overflow anywhere above (the radicand or its modulus) ends in
    # a non-finite constant
    if not (math.isfinite(beta_r) and math.isfinite(beta_i)):
        raise DomainError(
            f"line center {shifted_frequency!r} and decay rate "
            f"{decay_rate!r} overflow the pole arithmetic")
    return PoleResult(beta_r=beta_r, beta_i=beta_i, radicand=radicand,
                      shifted_frequency=shifted_frequency,
                      decay_rate=decay_rate, model=model)


class EmitterSolution(NamedTuple):
    """One emitter through the weak-coupling chain: golden-rule decay,
    windowed level shift (the window rides on ``shift``) and the
    emission pole at the shifted line center."""

    decay: DecayResult
    shift: ShiftResult
    pole: PoleResult


def solve_emitter(spec: WaveguideSpec, atom: Atom, box: QuantizationBox,
                  dos: DensityModel,
                  radicand: RadicandModel = RadicandModel.SINGLE_INDEX,
                  *, max_index: int = 12,
                  window=None) -> EmitterSolution:
    """Decay rate, then shift window, level shift and complex pole.

    ``window`` maps the decay rate to the (low, high) shift window;
    None selects ``emission.auto_shift_window``. The DomainErrors of
    ``DecayResult.traveling_total`` and ``level_shift`` pass through.
    """
    decay = decay_rate(spec, atom, box, dos, max_index=max_index)
    total = decay.traveling_total()
    if window is None:
        bounds = auto_shift_window(spec, atom.transition_frequency,
                                   total, max_index=max_index)
    else:
        bounds = window(total)
    shift = level_shift(spec, atom, box, dos, window=bounds,
                        max_index=max_index)
    return EmitterSolution(decay=decay, shift=shift, pole=pole(
        spec, atom.transition_frequency - shift.value, decay.total,
        radicand))


def _pole_weight(spec: WaveguideSpec, dos: DensityModel,
                 nu_pole: complex) -> complex:
    """State-density factor of the residue, continued to the complex
    pole frequency.

    The phase-velocity model contributes the bulk index; the
    group-velocity model the physical dispersion Jacobian, which
    requires the channel to actually propagate at the line center.
    """
    if dos is DensityModel.PHASE_VELOCITY:
        return complex(spec.refractive_index)
    eps_mu = spec.permittivity * spec.permeability
    beta_true_sq = (eps_mu * nu_pole ** 2
                    - transverse_wavenumber(spec, TE10) ** 2)
    if beta_true_sq.imag == 0.0 and beta_true_sq.real <= 0.0:
        raise DomainError(
            "group-velocity weighting is undefined at a line center "
            "below the fundamental cutoff")
    return eps_mu * nu_pole / principal_csqrt(beta_true_sq)


def _transverse_profile(spec: WaveguideSpec, x) -> np.ndarray:
    return np.sin(math.pi * np.asarray(x, dtype=float) / spec.width)


def _check_finite(axial, time):
    for name, samples in (("axial", axial), ("time", time)):
        if not np.isfinite(samples).all():
            raise DomainError(f"{name} samples must be finite")


def _complex_pole_frequency(pole_result: PoleResult) -> complex:
    return complex(pole_result.shifted_frequency,
                   -0.5 * pole_result.decay_rate)


def _amplitude_constant(spec: WaveguideSpec, atom: Atom,
                        pole_result: PoleResult,
                        dos: DensityModel) -> complex:
    # the 1/hbar of the coupling cancels the hbar of the squared
    # field normalization, so no quantum of action survives here;
    # frequency and weight are taken at the complex pole, exactly
    nu_p = _complex_pole_frequency(pole_result)
    u = _pole_weight(spec, dos, nu_p)
    dipole_y = complex(atom.dipole[1])
    area = spec.cross_section_area
    return (2.0j * nu_p * u * np.conj(dipole_y)
            / (spec.permittivity * area))


def _residue_factors(spec: WaveguideSpec, const, x, x0,
                     pole_result: PoleResult, dz, t):
    """The residue amplitude's transverse, axial and temporal factors:
    const*P(x)*P(x0), with P the fundamental transverse profile at the
    detector x and the source x0, the oscillation at beta_r damped at
    |beta_i| (beta_i <= 0) along |z - z0|, and the complex resonance
    envelope in time. Their product is the amplitude inside the light
    cone: ``correlation_amplitude`` takes it, ``correlation_grid``
    measures its real map against the factors and
    ``brute_force_amplitude`` takes its time envelope from them."""
    return (const * (_transverse_profile(spec, x)
                     * _transverse_profile(spec, x0)),
            np.exp((1j * pole_result.beta_r + pole_result.beta_i) * dz),
            np.exp(-(1j * pole_result.shifted_frequency
                     + 0.5 * pole_result.decay_rate) * t))


def alternative_prefactor_ratio(spec: WaveguideSpec,
                                pole_result: PoleResult,
                                dos: DensityModel) -> float:
    """Magnitude ratio of the residue-derived amplitude constant to
    the algebraically reduced candidate
    omega^2 sqrt(eps mu) / (pi^2 eps S sqrt(|p - omega^2|)).

    The two reductions of the same contour integral disagree; the
    amplitude here uses the residue form, whose square the direct
    integration oracle confirms, and this ratio quantifies the
    alternative. Infinite when the line center sits exactly at the
    fundamental transverse wavenumber, where the candidate diverges.
    """
    omega = pole_result.shifted_frequency
    p = transverse_wavenumber(spec, TE10) ** 2
    gap = math.sqrt(abs(p - omega ** 2))
    if gap == 0.0:
        return math.inf
    nu_p = _complex_pole_frequency(pole_result)
    mine = 2.0 * abs(nu_p) * abs(_pole_weight(spec, dos, nu_p))
    candidate = (omega ** 2 * spec.refractive_index
                 / (math.pi ** 2 * gap))
    return mine / candidate


def correlation_amplitude(spec: WaveguideSpec, atom: Atom,
                          pole_result: PoleResult, point, time: float, *,
                          dos: DensityModel = DensityModel.PHASE_VELOCITY
                          ) -> complex:
    """Detection amplitude of the emitted photon at one spacetime
    point.

    Zero before the wavefront arrives (front speed: one axial unit per
    refractive-index time units); afterwards exponentially damped in
    both the axial distance from the atom and the elapsed time,
    carried on the fundamental channel's transverse profile.
    """
    spec.check_in_cross_section("detection point", point)
    z, t = float(point[2]), float(time)
    _check_finite(z, t)
    dz = abs(z - float(atom.position[2]))
    if not t >= spec.refractive_index * dz:
        return 0j
    transverse, axial, temporal = _residue_factors(
        spec, _amplitude_constant(spec, atom, pole_result, dos), point[0],
        atom.position[0], pole_result, dz, t)
    return complex(transverse * axial * temporal)


class CorrelationGrid(NamedTuple):
    """First-order correlation sampled on an (x, z, t) lattice, with
    the pole it was drawn from and its discrepancies.

    ``values`` has shape (len(x), len(z), len(t)) and holds the
    squared detection amplitude; ``inside_cone`` marks the causal
    (z, t) cells. ``consistency_max_rel`` checks the real map against
    the squared complex residue amplitude, factor by factor on the
    axes: the sum, over the transverse, axial and temporal factors, of
    the worst relative gap where the real factor is positive. The map
    is their product, so the sum bounds its own gap to first order.
    """

    x_values: np.ndarray
    z_values: np.ndarray
    t_values: np.ndarray
    values: np.ndarray
    inside_cone: np.ndarray
    pole: PoleResult
    source_position: tuple
    front_speed_factor: float
    consistency_max_rel: float
    alternative_prefactor_ratio: float


def correlation_grid(spec: WaveguideSpec, atom: Atom,
                     pole_result: PoleResult, x_values, z_values,
                     t_values, *,
                     dos: DensityModel = DensityModel.PHASE_VELOCITY,
                     max_index: int = 12) -> CorrelationGrid:
    """Sample the squared detection amplitude on a grid.

    Requires the line center to sit in the single-channel window (the
    fundamental pattern propagating alone) and the dipole to have a
    transverse-y component to feed it. The map is the closed-form
    double exponential in real arithmetic; its agreement with the
    complex amplitude is measured on the axes, never on the grid.
    """
    dominant_channel(spec, pole_result.shifted_frequency,
                     max_index=max_index)
    if atom.dipole[1] == 0:
        raise DomainError(
            "the fundamental channel couples through the y dipole "
            "component, which is zero")
    atom.check_inside(spec)
    x = np.asarray(x_values, dtype=float).reshape(-1)
    z = np.asarray(z_values, dtype=float).reshape(-1)
    t = np.asarray(t_values, dtype=float).reshape(-1)
    outside = np.flatnonzero(~((x >= 0.0) & (x <= spec.width)))
    if outside.size:
        # raises, naming the first x outside the cross section
        spec.check_in_cross_section("detection point", (x[outside[0]], 0.0))
    _check_finite(z, t)
    dz = np.abs(z - float(atom.position[2]))
    front = spec.refractive_index
    const = _amplitude_constant(spec, atom, pole_result, dos)
    x0 = atom.position[0]
    # a range near DBL_MAX overflows the light front and the residue
    # factors; those cells fall outside the cone and outside ``live``
    # below, so the refusal is the fit's, never a warning
    with np.errstate(over="ignore", invalid="ignore"):
        inside = t[np.newaxis, :] >= front * dz[:, np.newaxis]
        factors = _residue_factors(spec, const, x, x0, pole_result, dz, t)

    # real arithmetic throughout; the signed spatial rate is
    # nonpositive, so both exponentials damp
    x_sq = abs(const) ** 2 * (_transverse_profile(spec, x) ** 2
                              * _transverse_profile(spec, x0) ** 2)
    decay = np.exp(
        pole_result.spatial_rate * dz[np.newaxis, :, np.newaxis]
        - pole_result.decay_rate * t[np.newaxis, np.newaxis, :])
    closed = x_sq[:, np.newaxis, np.newaxis] * decay
    closed *= inside

    gaps = []
    for amp, real in zip(factors, (x_sq,
                                   np.exp(pole_result.spatial_rate * dz),
                                   np.exp(-pole_result.decay_rate * t))):
        live = real > 0.0
        gaps.append(np.max(
            np.abs(np.abs(amp[live]) ** 2 - real[live]) / real[live],
            initial=0.0))
    return CorrelationGrid(
        x_values=x, z_values=z, t_values=t, values=closed,
        inside_cone=inside, pole=pole_result,
        source_position=tuple(float(v) for v in atom.position),
        front_speed_factor=front, consistency_max_rel=math.fsum(gaps),
        alternative_prefactor_ratio=alternative_prefactor_ratio(
            spec, pole_result, dos))


class RateFit(NamedTuple):
    """Log-linear decay rates read back off a correlation grid."""

    temporal_rate: float
    spatial_rate: float
    rate_ratio: float
    cone_ratio: float
    max_log_residual: float


# causal cells each log-linear fit of ``fit_decay_rates`` needs, along
# t on one axial sample and along z at the latest time
MIN_FIT_CELLS = 8


def _refuse_fit(rate, causal, message):
    # with ``causal`` >= MIN_FIT_CELLS cells inside the cone the fit
    # lacks cells because they underflowed to +0.0, and a later or
    # longer time range would only underflow more of them
    if causal >= MIN_FIT_CELLS:
        message = (f"too few causal cells are above zero to fit the "
                   f"{rate} rate: the rest underflowed; use an earlier "
                   f"or shorter time range")
    raise DomainError(message)


def _log_fit(x, y, mask):
    """Slope of log(y[mask]) against x[mask], and the worst residual."""
    x, log_y = x[mask], np.log(y[mask])
    line = np.polyfit(x, log_y, 1)
    return (float(line[0]),
            float(np.max(np.abs(np.polyval(line, x) - log_y))))


def fit_decay_rates(grid: CorrelationGrid) -> RateFit:
    """Fit the two exponential rates from a sampled grid.

    The time fit runs along the first axial sample with at least
    MIN_FIT_CELLS causal cells; the axial fit along the latest time
    sample, which needs as many, and against the distance |z - z0|
    from the source plane, in which the map decays on both sides.
    Returns
    the unsigned rates, their ratio, and the ratio rescaled by the
    front speed (temporal*index/spatial), plus the worst log-space fit
    residual.
    """
    # the transverse profile factors out of every row; use the row
    # with the strongest signal so log() stays well away from zero
    x_idx = int(np.argmax(np.max(grid.values, axis=(1, 2))))
    values = grid.values[x_idx]
    dz = np.abs(grid.z_values - grid.source_position[2])
    live = grid.inside_cone & (values > 0.0)
    rows = np.flatnonzero(np.count_nonzero(live, axis=1) >= MIN_FIT_CELLS)
    if not rows.size:
        _refuse_fit("temporal", grid.inside_cone.sum(axis=1).max(),
                    "no axial sample has enough causal cells to fit a "
                    "temporal rate; widen the time range")
    t_slope, t_resid = _log_fit(grid.t_values, values[rows[0]], live[rows[0]])

    z_mask = live[:, -1]
    if np.count_nonzero(z_mask) < MIN_FIT_CELLS:
        _refuse_fit("spatial", np.count_nonzero(grid.inside_cone[:, -1]),
                    "not enough causal axial samples at the latest time "
                    "to fit a spatial rate; extend the time range or "
                    "shrink the axial range")
    z_slope, z_resid = _log_fit(dz, values[:, -1], z_mask)

    temporal, spatial = -t_slope, abs(z_slope)
    ratio = spatial / temporal
    cone = temporal * grid.front_speed_factor / spatial
    return RateFit(temporal_rate=temporal, spatial_rate=spatial,
                   rate_ratio=ratio, cone_ratio=cone,
                   max_log_residual=max(t_resid, z_resid))


# half-width of ``brute_force_amplitude``'s axial wavenumber window, in
# units of the pole's oscillation wavenumber
SPAN_FACTOR = 20.0


def brute_force_amplitude(spec: WaveguideSpec, atom: Atom,
                          pole_result: PoleResult, point, time: float, *,
                          dos: DensityModel = DensityModel.PHASE_VELOCITY,
                          samples: int = 200000,
                          tail_correction: bool = True) -> complex:
    """Detection amplitude with no pole algebra: the exact resonance
    envelope in time times a direct quadrature over the real axial
    wavenumber line that assembles the spatial profile from the
    Lorentzian spectrum.

    The quadrature is a midpoint rule over
    [-SPAN_FACTOR*beta_r, +SPAN_FACTOR*beta_r] with exactly rounded
    summation, plus an asymptotic closure of the two truncated
    oscillatory tails (the integrand tends to a nonzero constant, so
    plain truncation would leave a boundary artifact). The result has
    no sharp wavefront; the step of the residue form is an
    idealization, so comparisons belong well inside the causal cone.
    The spatial phase here winds opposite to the residue form (the two
    use conjugate axial conventions); moduli agree up to the spectral
    background the residue form drops, which falls off with axial
    separation.
    """
    spec.check_in_cross_section("detection point", point)
    delta_z = abs(float(point[2]) - float(atom.position[2]))
    if delta_z <= 0.0:
        raise DomainError(
            "the axial tail closure needs a positive separation from "
            "the source plane")
    if samples < 1000:
        raise DomainError("use at least 1000 integration points")
    if pole_result.decay_rate <= 0.0:
        raise DomainError(
            "a positive decay rate is required; at zero width the "
            "spectral line pinches the integration path")
    eps, mu = spec.permittivity, spec.permeability
    eps_mu = eps * mu
    c_r = pole_result.model.coefficient(spec)
    p = transverse_wavenumber(spec, TE10) ** 2
    omega = pole_result.shifted_frequency
    half_rate = 0.5 * pole_result.decay_rate
    area = spec.cross_section_area

    def transfer(beta):
        """Spectral density over the Lorentzian denominator."""
        beta = np.abs(np.asarray(beta, dtype=float))
        nu = np.sqrt((beta ** 2 + p) / c_r)
        if dos is DensityModel.PHASE_VELOCITY:
            density = (spec.refractive_index * beta
                       / (math.pi * eps * area * c_r))
        else:
            # eps*mu*nu^2 - p rearranged so the matched-continuation
            # case reduces to beta^2 exactly, with no cancellation
            ratio = eps_mu / c_r
            beta_true_sq = ratio * beta ** 2 + p * (ratio - 1.0)
            if np.any(beta_true_sq <= 0.0):
                raise DomainError(
                    "group-velocity weighting hits an evanescent "
                    "frequency on the integration path; pair it with "
                    "the index-squared continuation instead")
            density = (eps_mu * nu * beta
                       / (math.pi * eps * area * c_r
                          * np.sqrt(beta_true_sq)))
        return density / ((nu - omega) + 1j * half_rate)

    # detector and source transverse factors, and the raw dipole;
    # hbar cancels between coupling and field just as in the residue.
    # The time envelope is the residue form's own temporal factor
    pref, _, envelope = _residue_factors(
        spec, -np.conj(complex(atom.dipole[1])), point[0], atom.position[0],
        pole_result, delta_z, time)

    span = SPAN_FACTOR * pole_result.beta_r
    if span <= 0.0:
        raise DomainError("span must be positive; is the pole "
                          "oscillatory at all?")
    step = 2.0 * span / samples
    beta = -span + (np.arange(samples) + 0.5) * step
    terms = transfer(beta) * np.exp(1j * beta * delta_z)
    total = complex(math.fsum(terms.real), math.fsum(terms.imag)) * step

    if tail_correction:
        # imported here: scipy would dominate the CLI start-up
        from scipy.special import sici

        # Richardson fit of transfer ~ t_inf + q/|beta| at the edge
        b1 = max(span, 1.0) * 1.0e6
        b2 = 2.0 * b1
        tr1, tr2 = complex(transfer(b1)), complex(transfer(b2))
        q = (tr1 - tr2) / (1.0 / b1 - 1.0 / b2)
        t_inf = tr1 - q / b1
        m_dz = span * delta_z
        _, cos_int = sici(m_dz)
        # the constant part of both tails integrates to a sine
        # boundary artifact, the 1/|beta| part to a cosine integral
        total += (t_inf * (-2.0 * math.sin(m_dz) / delta_z)
                  + q * (-2.0 * cos_int))

    return complex(pref * envelope * total)


def closed_form_crossing(spec: WaveguideSpec, decay_rate: float) -> float:
    """The paper's quartic candidate for the line center where the
    axial and temporal rates cross the front-speed ratio.

    Kept for comparison with the exact crossing of ``omega_d``, which
    the pole algebra gives and this does not reproduce: with
    x = eps*mu*rate^2 and p = (pi/width)^2 it is
    sqrt((x^2 + 12xp + 4p^2) / (8 eps*mu (x + 2p))). It is h/(2n),
    half the fundamental cutoff h/n, at zero rate and reaches the
    cutoff only at rate sqrt(2)*h/n, so below that it lies where no
    channel propagates. Evaluated as
    hypot(rate/sqrt(8), h*sqrt((10 - 16p/(x + 2p)) / (8 eps*mu))),
    which overflows only where the candidate itself does.
    """
    if decay_rate <= 0.0:
        raise DomainError("decay rate must be positive")
    eps_mu = spec.permittivity * spec.permeability
    p = transverse_wavenumber(spec, TE10) ** 2
    x = eps_mu * decay_rate * decay_rate
    tail = (10.0 - 16.0 * p / (x + 2.0 * p)) / (8.0 * eps_mu)
    return math.hypot(decay_rate / math.sqrt(8.0),
                      math.sqrt(p) * math.sqrt(tail))


class OmegaDReport(NamedTuple):
    """Where the axial decay rate equals front speed times the
    temporal one."""

    closed_form: float
    root_found: float
    discrepancy: float


def omega_d(spec: WaveguideSpec, decay_rate: float,
            model: RadicandModel = RadicandModel.SINGLE_INDEX
            ) -> OmegaDReport:
    """The line center where |spatial rate| / decay rate equals the
    refractive index n, in closed form.

    With beta_i = -n*rate/2 the pole equation forces beta_r = c*w/n
    and leaves w^2 * c*(1 - c/n^2) = h^2 + (c - n^2)*rate^2/4, with c
    the radicand coefficient and h = pi/width. Under ``paper`` (c = n)
    that is w^2 = h^2/(n - 1) - n*rate^2/4, a crossing when n > 1 and
    h^2/(n - 1) > n*rate^2/4. Under ``consistent`` (c = n^2) it asks
    h^2 = 0: the axial rate tends to rate/v_g, and the group velocity
    v_g stays below 1/n. Without a crossing NoCrossingError names the
    failed condition and carries, as ``value_range``, the rate ratio
    at the two ends of [1e-3, 1e4] * sqrt(h^2/c), its extremes there.
    The report sets the quartic ``closed_form_crossing`` beside the
    exact root.
    """
    if not (math.isfinite(decay_rate) and decay_rate > 0.0):
        raise DomainError("decay rate must be finite and positive")
    n = spec.refractive_index
    p = transverse_wavenumber(spec, TE10) ** 2
    if model is RadicandModel.INDEX_SQUARED:
        reason = ("the 'consistent' continuation never crosses: its "
                  "axial rate 2|beta_i| tends to rate/v_g, above "
                  "n*rate at every line center")
    elif not n > 1.0:
        reason = (f"the 'paper' continuation crosses only in a guide "
                  f"of index n > 1, and here n = {n!r}")
    else:
        lead = p / (n - 1.0)
        rate_term = 0.25 * n * decay_rate * decay_rate
        if lead > rate_term:
            root = math.sqrt(lead - rate_term)
            if root == math.inf:
                raise DomainError("the crossing line center overflows")
            closed = closed_form_crossing(spec, decay_rate)
            return OmegaDReport(closed_form=closed, root_found=root,
                                discrepancy=abs(closed - root) / root)
        reason = (f"the 'paper' continuation crosses only where "
                  f"h^2/(n - 1) > n*rate^2/4, and here {lead!r} <= "
                  f"{rate_term!r}")
    nu_ref = math.sqrt(p / model.coefficient(spec))
    ratios = [(abs(pole(spec, w, decay_rate, model).spatial_rate)
               / decay_rate - n) + n
              for w in (1.0e-3 * nu_ref, 1.0e4 * nu_ref)]
    raise NoCrossingError(reason, value_range=(min(ratios), max(ratios)))
