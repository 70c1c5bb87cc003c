"""Tests for decay, level shift and the discretized-continuum oracle.

Independent oracles anchor this module: the golden rule of a long
cavity's textbook modes, per channel (checks the rate's mode
normalization and state density with no code in common); the exact
evolution of the discretized continuum (checks the golden-rule rate
normalization end to end), itself checked against the closed-form
two-level Rabi solution and against scipy's DOP853 integration
written out here; and a subtraction-based trapezoid principal value
and QUADPACK's Cauchy-weight rule, both in plain frequency (check the
axial-variable shift integrals).
"""

import cmath
import dataclasses
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import dense_oracle
import golden_rule_oracle

from wgqed.config import load_config
from wgqed.errors import DomainError
from wgqed.emission import (
    ContinuumCells,
    MarkovParameters,
    amplitudes_ode_oracle,
    build_bins,
    decay_rate,
    dominant_channel,
    level_shift,
    photon_bin_amplitudes,
)
from wgqed.modes import (
    ModeIndex,
    Polarization,
    WaveguideSpec,
    cutoff_frequency,
    modes_below,
)
from wgqed.quantize import (
    Atom,
    Channels,
    DensityModel,
    QuantizationBox,
    continuum_weight,
    coupling_at,
    couplings,
)

DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo.conf"
GUIDE = WaveguideSpec(width=math.pi, height=math.pi / 2.0)
BOX = QuantizationBox(length=1.0)
TE10 = ModeIndex(Polarization.TE, 1, 0)
TM11 = ModeIndex(Polarization.TM, 1, 1)
TE20 = ModeIndex(Polarization.TE, 2, 0)


def make_atom(freq, dip_y, x0=0.7, z0=0.0):
    return Atom(position=(x0, 0.5, z0), dipole=(0.0, dip_y, 0.0),
                transition_frequency=freq)


def single_channel_expected(spec, freq, dip_y, x0):
    # 2pi * 2 directions * weight * |g|^2 collapses to this for the
    # lowest channel under the PHASE_VELOCITY state count
    root = spec.refractive_index
    return (4.0 * root * freq * dip_y ** 2
            * math.sin(math.pi * x0 / spec.width) ** 2
            / (spec.permittivity * spec.cross_section_area))


class TestDecayRate:
    def test_single_channel_value(self):
        atom = make_atom(1.6, 0.25)
        res = decay_rate(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY)
        assert len(res.channels) == 2
        assert res.total == pytest.approx(
            single_channel_expected(GUIDE, 1.6, 0.25, 0.7), rel=1e-12)

    def test_single_channel_value_filled_guide(self):
        filled = WaveguideSpec(width=math.pi, height=math.pi / 2.0,
                               permittivity=2.0, permeability=1.2)
        atom = make_atom(1.0, 0.4, x0=1.1)
        res = decay_rate(filled, atom, BOX, DensityModel.PHASE_VELOCITY)
        assert res.total == pytest.approx(
            single_channel_expected(filled, 1.0, 0.4, 1.1), rel=1e-12)

    def test_group_velocity_ratio(self):
        atom = make_atom(1.6, 0.25)
        phase = decay_rate(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY)
        group = decay_rate(GUIDE, atom, BOX, DensityModel.GROUP_VELOCITY)
        from wgqed.modes import dispersion
        beta = dispersion(GUIDE, TE10, 1.6).axial_wavenumber
        root = GUIDE.refractive_index
        assert group.total / phase.total == pytest.approx(
            root * 1.6 / beta, rel=1e-12)

    def test_position_dependence(self):
        ref = decay_rate(GUIDE, make_atom(1.6, 0.25, x0=GUIDE.width / 2),
                         BOX, DensityModel.PHASE_VELOCITY).total
        for x0 in (0.3, 0.9, 2.0):
            val = decay_rate(GUIDE, make_atom(1.6, 0.25, x0=x0), BOX,
                             DensityModel.PHASE_VELOCITY).total
            assert val / ref == pytest.approx(
                math.sin(math.pi * x0 / GUIDE.width) ** 2, rel=1e-12)

    def test_below_all_cutoffs(self):
        res = decay_rate(GUIDE, make_atom(0.5, 0.25), BOX,
                         DensityModel.PHASE_VELOCITY)
        assert res.total == 0.0
        assert res.channels == ()
        assert res.oscillatory

    def test_oscillatory_flag_clear_above_cutoff(self):
        res = decay_rate(GUIDE, make_atom(1.5, 0.25), BOX,
                         DensityModel.PHASE_VELOCITY)
        assert not res.oscillatory

    def test_box_length_invariance(self):
        for model in DensityModel:
            vals = [decay_rate(GUIDE, make_atom(1.6, 0.25),
                               QuantizationBox(length=length),
                               model).total
                    for length in (1.0, 2.7)]
            assert vals[0] == pytest.approx(vals[1], rel=1e-13)

    def test_multichannel_additivity_and_order(self):
        atom = Atom(position=(0.9, 0.4, 0.0), dipole=(0.2, 0.3, 0.15j),
                    transition_frequency=3.0)
        res = decay_rate(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY)
        # 7 propagating patterns below 3, two directions each
        assert len(res.channels) == 14
        assert res.channels[0].mode == TE10
        assert res.total == pytest.approx(
            sum(c.rate for c in res.channels), rel=1e-14)
        assert all(c.rate >= 0.0 for c in res.channels)


class TestBulkLimit:
    """A guide many wavelengths wide emits like the bulk medium, up to
    each density model's constant: Gamma / Gamma_bulk with
    Gamma_bulk = omega^3 |d|^2 n mu / (3 pi), hbar = eps0 = c = 1.

    ``paper`` counts axial states with the bulk index, which weighs
    each plane wave by |cos theta| to the axis: 2 <|cos theta|> over
    the dipole pattern is 9/8 for a transverse dipole and 3/4 for an
    axial one. ``dispersion`` is isotropic and reads 2. The average
    over 21 frequencies smooths the cutoff peaks of ``dispersion``,
    whose single frequencies scatter by several percent."""

    SPEC = WaveguideSpec(width=math.pi * 24.0,
                         height=math.pi / 2.0 * 24.0 * 1.13,
                         permittivity=1.0, permeability=1.44)

    @pytest.mark.parametrize("model,axis,limit,rel", [
        (DensityModel.PHASE_VELOCITY, 0, 9.0 / 8.0, 1e-2),
        (DensityModel.PHASE_VELOCITY, 1, 9.0 / 8.0, 1e-2),
        (DensityModel.PHASE_VELOCITY, 2, 3.0 / 4.0, 1e-2),
        (DensityModel.GROUP_VELOCITY, 0, 2.0, 5e-2),
        (DensityModel.GROUP_VELOCITY, 1, 2.0, 5e-2),
        (DensityModel.GROUP_VELOCITY, 2, 2.0, 5e-2)])
    def test_rate_over_bulk_rate(self, model, axis, limit, rel):
        spec = self.SPEC
        dip = 0.01
        ratios = []
        for omega in np.linspace(1.45, 1.55, 21):
            atom = Atom(position=(0.37 * spec.width, 0.41 * spec.height,
                                  0.0),
                        dipole=tuple(dip * np.eye(3)[axis]),
                        transition_frequency=float(omega))
            rate = decay_rate(spec, atom, BOX, model, max_index=400).total
            bulk = (omega ** 3 * dip ** 2 * spec.refractive_index
                    * spec.permeability / (3.0 * math.pi))
            ratios.append(rate / bulk)
        assert np.mean(ratios) == pytest.approx(limit, rel=rel)


# the decay rate over the textbook golden rule on every channel: the
# modes of quantize are normalized to (1/2) * integral(eps |E|^2 +
# mu |H|^2) = hbar omega, where the textbook expansion takes the
# integral itself equal to hbar omega (ROADMAP item 15)
CONVENTION = 2.0


def _oracle_cases():
    # configs/demo.conf: TE10 alone
    yield ("demo", WaveguideSpec(width=math.pi, height=math.pi / 2.0,
                                 permeability=1.44),
           (math.pi / 2.0, math.pi / 4.0, 0.0), (0.0, 0.124, 0.0), 1.45)
    rng = np.random.default_rng(2351)
    for case in range(12):
        width = rng.uniform(1.0, 3.0)
        height = width * rng.uniform(0.3, 1.0)
        eps, mu = rng.uniform(1.0, 3.0), rng.uniform(1.0, 2.0)
        omega = (rng.uniform(1.05, 3.0) * rng.uniform(1.0, 1.8) * math.pi
                 / (width * math.sqrt(eps * mu)))
        position = (rng.uniform(0.02, 0.98) * width,
                    rng.uniform(0.02, 0.98) * height, rng.uniform(-1.0, 1.0))
        dipole = tuple(complex(*rng.normal(size=2)) for _ in range(3))
        yield (f"seeded_{case}",
               WaveguideSpec(width=width, height=height, permittivity=eps,
                             permeability=mu), position, dipole, omega)


class TestGoldenRuleOracle:
    """Per channel, both directions summed, the decay rate is
    CONVENTION times a long cavity's textbook golden rule under
    ``dispersion``, and that times beta / (n omega), the cosine of the
    channel's angle to the axis, under ``paper``. The oracle shares no
    code with quantize: closed-form fields, no quadrature, no box."""

    @pytest.mark.parametrize("model", list(DensityModel),
                             ids=lambda model: model.value)
    @pytest.mark.parametrize(
        "name, spec, position, dipole, omega",
        list(_oracle_cases()), ids=[case[0] for case in _oracle_cases()])
    def test_rate_per_channel(self, model, name, spec, position, dipole,
                              omega):
        atom = Atom(position=position, dipole=dipole,
                    transition_frequency=omega)
        result = decay_rate(spec, atom, BOX, model, max_index=40)
        rates = {}
        for ch in result.channels:
            key = (ch.mode.polarization.value, ch.mode.m, ch.mode.n)
            rates[key] = rates.get(key, 0.0) + ch.rate
        oracle = golden_rule_oracle.channel_rates(
            spec.width, spec.height, spec.permittivity, spec.permeability,
            position, dipole, omega)
        assert rates.keys() == oracle.keys()
        assert 1 <= len(oracle) <= 20
        n = spec.refractive_index
        for key, (rate, beta) in oracle.items():
            cosine = (1.0 if model is DensityModel.GROUP_VELOCITY
                      else beta / (n * omega))
            assert rates[key] == pytest.approx(CONVENTION * cosine * rate,
                                               rel=1e-13, abs=0.0), key


def trapezoid_pv_oracle(f, omega, lo, hi, n=60001):
    """PV integral of f(nu)/(omega - nu) by singularity subtraction on
    a uniform grid plus the analytic log of the subtracted pole. ``f``
    maps an array of frequencies to an array of values."""
    nu = np.linspace(lo, hi, n)
    f_pole = f(np.array([omega]))[0]
    at_pole = np.abs(nu - omega) < 1e-9
    vals = np.empty(n)
    vals[~at_pole] = (f(nu[~at_pole]) - f_pole) / (omega - nu[~at_pole])
    d = 1e-6
    f_plus, f_minus = f(np.array([omega + d, omega - d]))
    vals[at_pole] = -(f_plus - f_minus) / (2.0 * d)
    regular = np.trapezoid(vals, nu)
    return regular + f_pole * math.log((omega - lo) / (hi - omega))


class TestLevelShift:
    """The trapezoid oracles integrate in plain frequency on a uniform
    grid; ``level_shift`` integrates in the axial variable by
    Gauss-Legendre. Their integrand comes from the array coupling,
    which ``test_oracle_integrand_matches_pointwise_definition`` ties
    to the per-point ``coupling_at``."""

    WINDOW = (1.05, 1.93)

    @staticmethod
    def weight_coupling_sq(spec, mode, atom, box, model, nu):
        # continuum weight times |coupling|^2 summed over the
        # directions of travel above cutoff; unit weight and the
        # single decaying profile below it
        chans = Channels(spec, atom, [mode])
        g_sq = np.abs(couplings(chans, np.zeros(nu.size, int), nu, box)) ** 2
        above = nu > cutoff_frequency(spec, mode)
        out = g_sq[0]
        out[above] = (continuum_weight(chans, np.zeros(above.sum(), int),
                                       nu[above], box, model)
                      * (g_sq[0][above] + g_sq[1][above]))
        return out

    @staticmethod
    def pointwise_weight_coupling_sq(spec, mode, atom, box, model, nu):
        if nu > cutoff_frequency(spec, mode):
            w = float(continuum_weight(Channels(spec, atom, [mode]), [0],
                                       [nu], box, model)[0])
            return w * sum(
                abs(coupling_at(spec, mode, nu, atom, box,
                                direction=d)) ** 2 for d in (1, -1))
        return abs(coupling_at(spec, mode, nu, atom, box)) ** 2

    @pytest.mark.parametrize("mode", [TE10, TM11])
    def test_oracle_integrand_matches_pointwise_definition(self, mode):
        # the 200 grid nodes closest to the pole, half on each side
        atom = make_atom(1.5, 0.8)
        model = DensityModel.PHASE_VELOCITY
        grid = np.linspace(*self.WINDOW, 60001)
        j = int(np.searchsorted(grid, 1.5))
        nodes = np.concatenate((grid[j - 100:j + 100], [1.5]))
        assert np.count_nonzero(nodes < 1.5) == 100
        array = self.weight_coupling_sq(GUIDE, mode, atom, BOX, model,
                                        nodes)
        pointwise = [self.pointwise_weight_coupling_sq(
            GUIDE, mode, atom, BOX, model, float(v)) for v in nodes]
        np.testing.assert_allclose(array, pointwise, rtol=1e-14, atol=0.0)

    def test_against_trapezoid_oracle_single_mode(self):
        atom = make_atom(1.5, 0.8)
        res = level_shift(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY,
                          window=self.WINDOW)

        def f(nu):
            return self.weight_coupling_sq(
                GUIDE, TE10, atom, BOX, DensityModel.PHASE_VELOCITY, nu)

        oracle = -trapezoid_pv_oracle(f, 1.5, *self.WINDOW)
        assert res.value == pytest.approx(oracle, rel=1e-6)

    def test_against_trapezoid_oracle_with_localized_channel(self):
        # the window sits below the second cutoff, so that channel
        # contributes through its decaying branch, pole included
        atom = make_atom(1.5, 0.8)
        res = level_shift(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY,
                          window=self.WINDOW, modes=[TE10, TM11])
        assert len(res.contributions) == 2

        def f(nu):
            return sum(self.weight_coupling_sq(
                GUIDE, mode, atom, BOX, DensityModel.PHASE_VELOCITY, nu)
                for mode in (TE10, TM11))

        oracle = -trapezoid_pv_oracle(f, 1.5, *self.WINDOW)
        assert res.value == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("model", list(DensityModel))
    @pytest.mark.parametrize("modes", [[TE10], [TE10, TM11],
                                       [TE10, TE20]],
                             ids=["TE10", "TE10+TM11", "TE10+TE20"])
    def test_against_frequency_space_cauchy_rule(self, model, modes):
        # QUADPACK's QAWC on the plain frequency integrand: another
        # variable, another rule and the library's own continuum
        # weight. TM11 and TE20 decay throughout the window, pole
        # included; a y dipole misses TM11 but not TE20
        atom = make_atom(1.5, 0.8)
        window = (1.05, 1.93)
        res = level_shift(GUIDE, atom, BOX, model, window=window,
                          modes=modes)

        def f(nu):
            return sum(self.pointwise_weight_coupling_sq(
                GUIDE, mode, atom, BOX, model, nu) for mode in modes)

        # PV of f/(nu - omega) is minus the PV of f/(omega - nu)
        oracle, _ = quad(f, *window, weight="cauchy", wvar=1.5,
                         epsabs=0.0, epsrel=1e-12, limit=200)
        assert res.value == pytest.approx(oracle, rel=1e-11)

    def test_pole_free_windows_have_definite_signs(self):
        atom = make_atom(1.5, 0.3)
        below = level_shift(GUIDE, atom, BOX,
                            DensityModel.PHASE_VELOCITY,
                            window=(1.05, 1.4))
        above = level_shift(GUIDE, atom, BOX,
                            DensityModel.PHASE_VELOCITY,
                            window=(1.6, 1.95))
        assert below.value < 0.0
        assert above.value > 0.0

    def test_window_additivity_group_model(self):
        # seam check across the split, near-cutoff endpoint included;
        # the frequency-space state density diverges at the low edge
        # but the transformed integral stays well behaved
        atom = make_atom(1.5, 0.3)
        model = DensityModel.GROUP_VELOCITY
        whole = level_shift(GUIDE, atom, BOX, model,
                            window=(1.0001, 1.8))
        left = level_shift(GUIDE, atom, BOX, model,
                           window=(1.0001, 1.3))
        right = level_shift(GUIDE, atom, BOX, model, window=(1.3, 1.8))
        assert whole.value == pytest.approx(left.value + right.value,
                                            rel=1e-8)

    def test_grows_with_window_top(self):
        atom = make_atom(1.5, 0.3)
        values = [level_shift(GUIDE, atom, BOX,
                              DensityModel.PHASE_VELOCITY,
                              window=(1.05, hi), modes=[TE10]).value
                  for hi in (3.0, 5.0, 8.0, 12.0)]
        assert values[0] < values[1] < values[2] < values[3]
        # asymptotically linear growth in the window top
        slope_a = (values[1] - values[0]) / 2.0
        slope_b = (values[3] - values[2]) / 4.0
        assert slope_b / slope_a == pytest.approx(1.0, abs=0.3)

    @staticmethod
    def window_law_ratios(model, factors):
        # the demo shift over omega +- K * rate against the first-order
        # term of a symmetric window, (K * rate / pi) * d(rate)/d(omega),
        # with the derivative a central difference of step 1e-4
        config = load_config(str(DEMO))
        spec, atom, box = config.waveguide_spec(), config.atom(), config.box()
        omega = atom.transition_frequency

        def rate(nu):
            return decay_rate(spec, dataclasses.replace(
                atom, transition_frequency=nu), box, model,
                max_index=config.max_mn).total

        h = 1e-4
        total = rate(omega)
        slope = (rate(omega + h) - rate(omega - h)) / (2.0 * h)
        return [level_shift(spec, atom, box, model, window=(
            omega - k * total, omega + k * total),
            max_index=config.max_mn).value
            / (k * total / math.pi * slope) for k in factors]

    def test_shift_is_the_window_constant_times_the_rate_slope(self):
        # under the phase-velocity count the law holds at every window
        # width, up to 25 linewidths
        for ratio in self.window_law_ratios(DensityModel.PHASE_VELOCITY,
                                            (0.25, 1.0, 5.0, 10.0, 25.0)):
            assert ratio == pytest.approx(1.0, rel=1e-9)

    def test_window_law_is_the_narrow_limit_under_dispersion(self):
        # the group-velocity rate curves, so the law holds as K -> 0
        narrow, unit = self.window_law_ratios(DensityModel.GROUP_VELOCITY,
                                              (0.25, 1.0))
        assert abs(1.0 - unit) < 1e-3
        assert abs(1.0 - narrow) < abs(1.0 - unit)

    def test_endpoint_collision_guard(self):
        atom = make_atom(1.5, 0.3)
        with pytest.raises(DomainError):
            level_shift(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY,
                        window=(1.2, 1.5))

    def test_invalid_window(self):
        atom = make_atom(1.5, 0.3)
        with pytest.raises(DomainError):
            level_shift(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY,
                        window=(1.9, 1.2))

    def test_line_center_at_or_below_zero_refused(self):
        # below every cutoff no decay rate bounds the couplings, and a
        # 1e60 dipole shifts demo.conf's 0.5 by 5.485e119
        cfg = dataclasses.replace(
            load_config(str(Path(__file__).resolve().parent.parent
                            / "configs" / "demo.conf")),
            atom_omega=0.5, dipole_y_re=1e60)
        with pytest.raises(DomainError) as info:
            level_shift(cfg.waveguide_spec(), cfg.atom(), cfg.box(),
                        cfg.dos, window=cfg.shift_window(0.0),
                        max_index=cfg.max_mn)
        assert str(info.value) == (
            "line center -5.485005837988792e+119 is not positive: the "
            "level shift 5.485005837988792e+119 reaches the transition "
            "frequency 0.5")


def _dop853(times, cells, omega):
    # the interaction-picture equations stepped by DOP853, stacked
    # into real variables:
    #   dc_a/dt = -i sum_j g_j exp(+i (omega - nu_j) t) c_j
    #   dc_j/dt = -i conj(g_j) exp(-i (omega - nu_j) t) c_a
    g = cells.discrete_coupling
    detune = omega - cells.frequency
    n = len(detune)

    def rhs(t, y):
        c_a = y[0] + 1j * y[1]
        c_b = y[2:2 + n] + 1j * y[2 + n:]
        phase = np.exp(1j * detune * t)
        da = -1j * np.sum(g * phase * c_b)
        db = -1j * np.conj(g * phase) * c_a
        return np.concatenate(([da.real, da.imag], db.real, db.imag))

    y0 = np.zeros(2 + 2 * n)
    y0[0] = 1.0
    sol = solve_ivp(rhs, (0.0, float(times[-1])), y0, t_eval=times,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return (sol.y[0] + 1j * sol.y[1],
            sol.y[2:2 + n] + 1j * sol.y[2 + n:])


def _oracle_case(case):
    """(cells, times, omega) of a discretized continuum.

    ``demo`` is validate's markov_oracle set-up on configs/demo.conf,
    ``random_phases`` the same cells with random coupling phases, and
    ``below_cutoff`` criterion 9's decaying cells: a filled guide with
    the transition under the TE10 cutoff.
    """
    if case == "below_cutoff":
        spec = WaveguideSpec(width=math.pi, height=math.pi / 2.0,
                             permittivity=1.0, permeability=1.44)
        omega = 0.5
        atom = Atom(position=(spec.width / 2.0, spec.height / 4.0, 0.0),
                    dipole=(0.0, 0.124, 0.0), transition_frequency=omega)
        nu_c = cutoff_frequency(spec, TE10)
        cells = build_bins(spec, atom, BOX, DensityModel.PHASE_VELOCITY,
                           window=(0.4 * omega, 0.98 * nu_c), count=160,
                           modes=[TE10])
        assert np.all(cells.direction == 0)
        return cells, np.linspace(0.0, 10.0 / omega, 21), omega
    config = load_config(str(DEMO))
    spec, atom, box = config.waveguide_spec(), config.atom(), config.box()
    omega = atom.transition_frequency
    rate = decay_rate(spec, atom, box, config.dos,
                      max_index=config.max_mn).total
    modes = modes_below(spec, omega, max_index=config.max_mn)
    cells = build_bins(spec, atom, box, config.dos,
                       window=(omega - 25.0 * rate, omega + 25.0 * rate),
                       count=160, modes=modes)
    if case == "random_phases":
        rng = np.random.default_rng(20261018)
        phases = rng.uniform(0.0, 2.0 * math.pi, len(cells.coupling))
        cells = cells._replace(coupling=cells.coupling * (
            np.cos(phases) + 1j * np.sin(phases)))
    return cells, np.linspace(0.0, 2.0 / rate, 17), omega


class TestDiscretizedContinuum:
    def test_bin_layout_across_cutoff(self):
        atom = make_atom(1.5, 0.1)
        width = (2.4 - 1.8) / 6
        centers = 1.8 + (np.arange(6) + 0.5) * width
        cut = math.sqrt(5.0)
        for model in DensityModel:
            cells = build_bins(GUIDE, atom, BOX, model, window=(1.8, 2.4),
                               count=6, modes=[TE10, TM11])
            # cutoff of TM11 is sqrt(5); its centers below it give one
            # decaying cell, centers above give a direction pair, +1
            # first; TE10 propagates over the whole window
            assert cells.modes == (TE10, TM11) and cells.width == width
            assert cells.row.tolist() == [0] * 12 + [1] * 8
            assert cells.direction.tolist() == (
                [1, -1] * 6 + [0, 0, 0, 0, 1, -1, 1, -1])
            assert cells.frequency.tolist() == centers[
                [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5,
                 0, 1, 2, 3, 4, 4, 5, 5]].tolist()
            below = cells.direction == 0
            assert np.all(cells.frequency[below] < cut)
            assert np.all(cells.frequency[cells.row == 1][4:] > cut)
            # each cell's discrete coupling, bit for bit, against the
            # per-cell rule sqrt(weight * width) * coupling
            want = np.array([cmath.sqrt(w * cells.width) * g for w, g in
                             zip(cells.weight.tolist(),
                                 cells.coupling.tolist())])
            assert cells.discrete_coupling.tobytes() == want.tobytes()
            again = build_bins(GUIDE, atom, BOX, model, window=(1.8, 2.4),
                               count=6, modes=[TE10, TM11])
            for field in ContinuumCells._fields:
                assert np.array_equal(getattr(again, field),
                                      getattr(cells, field)), field

    def test_unitarity_and_markov_decay(self):
        # exact integration of the discretized model against the
        # golden-rule exponential; this pins the 2*pi normalization of
        # the rate, since a factor-of-two slip would show up as decay
        # at twice or half the predicted speed
        omega = 1.45
        rate_target = 0.0145
        dip = math.sqrt(rate_target * GUIDE.cross_section_area
                        / (4.0 * omega))
        atom = make_atom(omega, dip, x0=GUIDE.width / 2.0)
        res = decay_rate(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY)
        assert res.total == pytest.approx(rate_target, rel=1e-12)
        half_span = 25.0 * rate_target
        window = (omega - half_span, omega + half_span)
        cells = build_bins(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY,
                           window=window, count=200, modes=[TE10])
        times = np.linspace(0.0, 2.0 / rate_target, 25)
        c_a, c_b = amplitudes_ode_oracle(times, cells, omega)
        norm = np.abs(c_a) ** 2 + np.sum(np.abs(c_b) ** 2, axis=0)
        assert np.max(np.abs(norm - 1.0)) < 1e-7
        deviation = np.max(np.abs(np.abs(c_a) ** 2
                                  - np.exp(-rate_target * times)))
        assert deviation < 0.04

        shift = level_shift(GUIDE, atom, BOX,
                            DensityModel.PHASE_VELOCITY, window=window,
                            modes=[TE10])
        params = MarkovParameters(decay_total=res.total,
                                  level_shift=shift.value,
                                  transition_frequency=omega)
        predicted = photon_bin_amplitudes(float(times[-1]), cells, params)
        scale = np.max(np.abs(c_b[:, -1]))
        assert np.max(np.abs(np.abs(c_b[:, -1]) - np.abs(predicted))) \
            < 0.05 * scale

    def test_single_cell_matches_rabi_closed_form(self):
        # one cell is a two-level system: with detuning d = nu - omega
        # and W = sqrt(d^2/4 + |g|^2),
        #   c_a = exp(-i d t/2) (cos Wt + i d/(2W) sin Wt)
        #   c_b = exp(+i d t/2) (-i conj(g)/W) sin Wt
        omega, nu = 1.5, 1.52
        g = 0.03 * complex(math.cos(0.7), math.sin(0.7))
        cell = ContinuumCells(modes=(TE10,), row=np.array([0]),
                              direction=np.array([1]),
                              frequency=np.array([nu]),
                              coupling=np.array([g]),
                              weight=np.array([1.0]), width=1.0)
        times = np.linspace(0.0, 400.0, 41)
        c_a, c_b = amplitudes_ode_oracle(times, cell, omega)
        d = nu - omega
        w = math.sqrt(0.25 * d * d + abs(g) ** 2)
        want_a = np.exp(-0.5j * d * times) * (
            np.cos(w * times) + 0.5j * d / w * np.sin(w * times))
        want_b = (np.exp(0.5j * d * times) * (-1j * g.conjugate() / w)
                  * np.sin(w * times))
        assert c_b.shape == (1, len(times))
        assert np.max(np.abs(c_a - want_a)) < 1e-12
        assert np.max(np.abs(c_b[0] - want_b)) < 1e-12

    @pytest.mark.parametrize("case", ["demo", "random_phases",
                                      "below_cutoff"])
    def test_matches_dop853(self, case):
        cells, times, omega = _oracle_case(case)
        c_a, c_b = amplitudes_ode_oracle(times, cells, omega)
        ref_a, ref_b = _dop853(times, cells, omega)
        assert np.max(np.abs(c_a - ref_a)) < 1e-10
        assert np.max(np.abs(c_b - ref_b)) < 1e-10
        norm = np.abs(c_a) ** 2 + np.sum(np.abs(c_b) ** 2, axis=0)
        assert np.max(np.abs(norm - 1.0)) < 1e-12

    def test_couplings_whose_squares_overflow(self):
        # couplings and detunings times 2**600, times over 2**600: the
        # same evolution, though every |g|^2 overflows
        cells, times, omega = _oracle_case("demo")
        c_a, c_b = amplitudes_ode_oracle(times, cells, omega)
        up = 2.0 ** 600
        big = cells._replace(frequency=cells.frequency * up,
                             coupling=cells.coupling * up)
        assert np.abs(big.discrete_coupling).min() > 2.0 ** 512
        big_a, big_b = amplitudes_ode_oracle(times / up, big, omega * up)
        assert np.max(np.abs(big_a - c_a)) < 1e-12
        assert np.max(np.abs(big_b - c_b)) < 1e-12

    def test_bins_need_a_positive_count(self):
        with pytest.raises(DomainError) as info:
            build_bins(GUIDE, make_atom(1.5, 0.1), BOX,
                       DensityModel.PHASE_VELOCITY, window=(1.4, 1.6),
                       count=0, modes=[TE10])
        assert str(info.value) == "need at least one bin"

    def test_ode_needs_zero_start(self):
        atom = make_atom(1.5, 0.1)
        cells = build_bins(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY,
                           window=(1.4, 1.6), count=3, modes=[TE10])
        with pytest.raises(DomainError):
            amplitudes_ode_oracle(np.linspace(1.0, 2.0, 5), cells, 1.5)

    def test_closed_form_needs_decay(self):
        params = MarkovParameters(decay_total=0.0, level_shift=0.0,
                                  transition_frequency=1.5)
        with pytest.raises(DomainError):
            photon_bin_amplitudes(1.0, (), params)


class TestDeflatedOracle:
    """One bright cell per frequency against the dense arrowhead over
    every cell, kept in ``dense_oracle``."""

    @staticmethod
    def assert_matches_dense(times, cells, omega):
        c_a, c_b = amplitudes_ode_oracle(times, cells, omega)
        ref_a, ref_b = dense_oracle.amplitudes_ode_oracle(times, cells,
                                                          omega)
        assert c_b.shape == ref_b.shape
        assert np.max(np.abs(c_a - ref_a)) <= 1e-13
        assert np.max(np.abs(c_b - ref_b)) <= 1e-13
        return c_b

    def test_degenerate_multimode_cells(self):
        # eight traveling patterns, TE/TM pairs among them, and a
        # degenerate decaying pair share every center: groups of 18
        omega = 3.3
        atom = Atom(position=(0.7, 0.5, 0.0),
                    dipole=(0.02, complex(0.03, 0.01), 0.015),
                    transition_frequency=omega)
        modes = modes_below(GUIDE, 3.1)
        modes += [ModeIndex(Polarization.TE, 3, 1),
                  ModeIndex(Polarization.TM, 3, 1)]
        cells = build_bins(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY,
                           window=(3.1, 3.5), count=40, modes=modes)
        assert len(modes) == 10 and len(cells.frequency) == 720
        assert len(np.unique(cells.frequency)) == 40
        self.assert_matches_dense(np.linspace(0.0, 300.0, 13), cells,
                                  omega)

    def test_zero_coupling_group(self, recwarn):
        # the group at 1.50 couples not at all, the one at 1.52 only
        # through one of its cells; the cells come unsorted
        cells = ContinuumCells(
            modes=(TE10,), row=np.zeros(7, dtype=int),
            direction=np.ones(7, dtype=int),
            frequency=np.array([1.52, 1.50, 1.49, 1.50, 1.51, 1.52,
                                1.48]),
            coupling=np.array([0.015, 0.0, 0.01 + 0.002j, 0.0, -0.02j,
                               0.0, 0.004]),
            weight=np.ones(7), width=1.0)
        c_b = self.assert_matches_dense(np.linspace(0.0, 400.0, 21),
                                        cells, 1.505)
        assert not np.any(c_b[[1, 3, 5]])
        assert len(recwarn) == 0

    def test_validate_on_a_many_mode_guide(self, tmp_path, child_env):
        # 237 traveling patterns and 75,840 cells: the dense arrowhead
        # asked for 42.9 GiB. The small dipole keeps omega - 25*rate
        # above zero, so the window reaches the oracle
        conf = tmp_path / "many.conf"
        kept = [line for line in DEMO.read_text(encoding="utf-8")
                .splitlines() if not line.startswith(
                    ("waveguide.eps", "models.max_mn", "atom.dipole_y_re"))]
        conf.write_text("\n".join(kept + [
            "waveguide.eps = 100", "models.max_mn = 40",
            "atom.dipole_y_re = 0.01"]) + "\n", encoding="utf-8")
        out = tmp_path / "validate.csv"
        script = (
            "import sys\n"
            "from wgqed.cli import main\n"
            "main(['validate', '--config', sys.argv[1], '--out', "
            "sys.argv[2]])\n"
            "assert 'numpy.ma' not in sys.modules\n")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", script, str(conf), str(out)],
            capture_output=True, text=True, env=child_env,
            preexec_fn=limit_memory, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        rows = {line.split(",")[0]: line.split(",")[1] for line in
                out.read_text(encoding="utf-8").splitlines()
                if not line.startswith("#")}
        assert rows["markov_oracle"] == "true"
        assert elapsed < 10.0


class TestPhotonState:
    def build(self, modes, window=(1.25, 1.75), count=2000):
        omega = 1.5
        dip = math.sqrt(1e-3 * GUIDE.cross_section_area / (4.0 * omega))
        atom = make_atom(omega, dip, x0=GUIDE.width / 2.0)
        res = decay_rate(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY)
        shift = level_shift(GUIDE, atom, BOX,
                            DensityModel.PHASE_VELOCITY, window=window,
                            modes=[TE10])
        params = MarkovParameters(decay_total=res.total,
                                  level_shift=shift.value,
                                  transition_frequency=omega)
        cells = build_bins(GUIDE, atom, BOX, DensityModel.PHASE_VELOCITY,
                           window=window, count=count, modes=modes)
        # a thousand lifetimes out the decay has completed
        amps = photon_bin_amplitudes(1000.0 / res.total, cells, params)
        return cells, np.abs(amps) ** 2

    def test_norm_close_to_unity(self):
        # window spans 250 linewidths each way; the Lorentzian mass
        # outside it is about 1.3e-3
        cells, prob = self.build([TE10], count=20000)
        assert set(cells.direction.tolist()) == {1, -1}
        assert math.fsum(prob.tolist()) == pytest.approx(1.0, abs=5e-3)

    def test_kind_filtering(self):
        cells, _ = self.build([TE10, TM11])
        # TE10 propagates over the whole window, TM11 nowhere in it
        te10 = cells.row == cells.modes.index(TE10)
        assert set(cells.direction[te10].tolist()) == {1, -1}
        assert set(cells.direction[~te10].tolist()) == {0}
        assert len(cells.frequency) == 3 * 2000

    def test_localized_share_is_small_on_resonance(self):
        cells, prob = self.build([TE10, TM11])
        traveling = cells.direction != 0
        prop_mass = math.fsum(prob[traveling].tolist())
        loc_mass = math.fsum(prob[~traveling].tolist())
        assert loc_mass < 1e-3 * prop_mass


class TestDominantChannel:
    def test_single_channel_region(self):
        assert dominant_channel(GUIDE, 1.5) == TE10

    def test_multimode_region_raises(self):
        with pytest.raises(DomainError,
                           match="^5 modes propagate at frequency 2.5$"):
            dominant_channel(GUIDE, 2.5)

    def test_evanescent_region_raises(self):
        with pytest.raises(DomainError,
                           match="^no mode propagates at frequency 0.5$"):
            dominant_channel(GUIDE, 0.5)
