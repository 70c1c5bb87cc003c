"""Tests for the complex propagation pole, correlation maps and the
wavenumber-quadrature oracle.

Two independent anchors: an exact crossing frequency for the
rate-ratio scan, obtained by eliminating the pole components by hand
(set the imaginary part to the target, solve the resulting pair of
real equations), and a direct Lorentzian-spectrum quadrature over the
axial wavenumber line that checks the amplitude constant and both
exponential rates with no residue algebra involved.
"""

import cmath
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from wgqed import detection, emission
from wgqed.config import load_config
from wgqed.detection import (
    PoleResult,
    RadicandModel,
    alternative_prefactor_ratio,
    brute_force_amplitude,
    closed_form_crossing,
    correlation_amplitude,
    correlation_grid,
    fit_decay_rates,
    omega_d,
    pole,
    solve_emitter,
)
from wgqed.emission import MarkovParameters, decay_rate, level_shift
from wgqed.errors import DomainError, NoCrossingError
from wgqed.modes import WaveguideSpec
from wgqed.numerics import principal_csqrt
from wgqed.quantize import Atom, DensityModel, QuantizationBox

import photon_ledger
from crossing_oracle import scanned_crossing

DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo.conf"
FILLED = WaveguideSpec(width=math.pi, height=math.pi / 2.0,
                       permittivity=1.0, permeability=1.44)
# single-channel window of FILLED runs from 0.8333 to 1.6667
CENTER = 1.336
RATE = 0.05


def filled_atom(dip_y=0.124):
    return Atom(position=(math.pi / 2.0, math.pi / 4.0, 0.0),
                dipole=(0.0, dip_y, 0.0), transition_frequency=CENTER)


def _ledger_cases():
    """(name, spec, atom): configs/demo.conf's emitter, then seeded
    guides with b <= a/2, so that TE10 travels alone below twice its
    cutoff, the line at 1.3 to 1.85 times that cutoff, the source plane
    at z = 0 and a y dipole of random phase scaled to Gamma/omega
    between 5e-4 and 1e-2 under ``dispersion``."""
    demo = load_config(str(DEMO))
    yield "demo", demo.waveguide_spec(), demo.atom()
    rng = np.random.default_rng(2602)
    box = QuantizationBox(length=1.0)
    for case in range(6):
        width = rng.uniform(1.0, 3.0)
        spec = WaveguideSpec(width=width, height=width * rng.uniform(0.2, 0.5),
                             permittivity=rng.uniform(1.0, 3.0),
                             permeability=rng.uniform(1.0, 2.0))
        omega = (rng.uniform(1.3, 1.85) * math.pi
                 / (width * spec.refractive_index))
        position = (rng.uniform(0.1, 0.9) * width,
                    rng.uniform(0.1, 0.9) * spec.height, 0.0)
        phase = cmath.exp(2j * math.pi * rng.uniform())
        unit = decay_rate(spec, Atom(position=position,
                                     dipole=(0.0, phase, 0.0),
                                     transition_frequency=omega),
                          box, DensityModel.GROUP_VELOCITY).total
        strength = math.sqrt(10.0 ** rng.uniform(-3.3, -2.0) * omega / unit)
        yield (f"seeded_{case}", spec,
               Atom(position=position, dipole=(0.0, strength * phase, 0.0),
                    transition_frequency=omega))


LEDGER_CASES = list(_ledger_cases())


def guide_strategy():
    widths = st.floats(min_value=0.5, max_value=5.0)
    fracs = st.floats(min_value=0.2, max_value=1.0)
    mats = st.floats(min_value=0.25, max_value=4.0)
    return st.builds(
        lambda w, f, e, m: WaveguideSpec(width=w, height=w * f,
                                         permittivity=e, permeability=m),
        widths, fracs, mats, mats)


class TestPole:
    @given(guide_strategy(),
           st.floats(min_value=0.05, max_value=50.0),
           st.floats(min_value=1e-6, max_value=5.0),
           st.sampled_from(list(RadicandModel)))
    def test_square_reassembles_radicand(self, spec, omega, rate, model):
        res = pole(spec, omega, rate, model)
        beta = complex(res.beta_r, res.beta_i)
        c = model.coefficient(spec)
        expected = (c * complex(omega, -0.5 * rate) ** 2
                    - (math.pi / spec.width) ** 2)
        assert res.beta_r > 0.0
        assert res.beta_i <= 0.0
        assert abs(res.radicand - expected) <= 1e-12 * abs(expected)
        assert abs(beta ** 2 - res.radicand) <= 1e-12 * abs(res.radicand)

    @given(guide_strategy(),
           st.floats(min_value=0.05, max_value=50.0),
           st.floats(min_value=1e-6, max_value=5.0),
           st.sampled_from(list(RadicandModel)))
    def test_agrees_with_principal_root(self, spec, omega, rate, model):
        res = pole(spec, omega, rate, model)
        beta = complex(res.beta_r, res.beta_i)
        ref = principal_csqrt(res.radicand)
        assert abs(beta - ref) <= 1e-12 * abs(ref)

    def test_zero_rate_above_cutoff_is_real(self):
        res = pole(FILLED, 2.0, 0.0, RadicandModel.SINGLE_INDEX)
        assert res.beta_i == 0.0
        assert res.spatial_rate == 0.0
        assert res.beta_r == pytest.approx(math.sqrt(1.2 * 4.0 - 1.0),
                                           rel=1e-15)

    def test_zero_rate_below_cutoff_raises(self):
        with pytest.raises(DomainError, match="zero decay rate below the "
                           "fundamental cutoff"):
            pole(FILLED, 0.5, 0.0, RadicandModel.SINGLE_INDEX)

    def test_input_validation(self):
        with pytest.raises(DomainError, match="line center must be "
                           "positive"):
            pole(FILLED, -1.0, 0.1)
        with pytest.raises(DomainError):
            pole(FILLED, 0.0, 0.1)
        with pytest.raises(DomainError):
            pole(FILLED, 1.0, -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_refused(self, bad):
        # a NaN line center gave beta = nan + nan i
        with pytest.raises(DomainError, match="must be finite"):
            pole(FILLED, bad, 0.02)
        with pytest.raises(DomainError, match="must be finite"):
            pole(FILLED, 1.0, bad)

    @pytest.mark.parametrize("center,rate", [
        (1e154, 0.02),   # gave beta_r = inf
        (1e200, 0.02),   # raised a bare OverflowError
        (1.0, 1e200)])
    def test_overflowing_pole_refused(self, center, rate):
        with pytest.raises(DomainError, match="overflow the pole"):
            pole(FILLED, center, rate)

    def test_subnormal_radicand_at_cutoff_solved(self):
        # on the vacuum guide's cutoff 1.0 the radicand's modulus is
        # subnormal and its reciprocal overflows; beta_i comes from
        # beta_r*beta_i = -b instead
        vacuum = WaveguideSpec(width=math.pi, height=math.pi / 2.0)
        res = pole(vacuum, 1.0, 1e-310)
        want = principal_csqrt(res.radicand)
        assert 0.0 < res.beta_r and res.beta_i < 0.0
        assert abs(complex(res.beta_r, res.beta_i) - want) <= (
            1e-12 * abs(want))
        assert res.beta_r == pytest.approx(7.0710678118654755e-156,
                                           rel=1e-12)
        assert res.beta_i == pytest.approx(-7.0710678118654755e-156,
                                           rel=1e-12)

    @pytest.mark.parametrize("model", list(RadicandModel))
    def test_narrow_line_ratio_is_dispersion_slope(self, model):
        # for a narrow line the signed axial rate divided by the
        # temporal one tends to c*w / sqrt(c*w^2 - p)
        rate = 1e-8
        res = pole(FILLED, CENTER, rate, model)
        c = model.coefficient(FILLED)
        slope = c * CENTER / math.sqrt(c * CENTER ** 2 - 1.0)
        assert abs(res.spatial_rate) / rate == pytest.approx(slope,
                                                             rel=1e-9)

    @pytest.mark.parametrize("model,limit", [
        (RadicandModel.SINGLE_INDEX, 1.44 ** 0.25),
        (RadicandModel.INDEX_SQUARED, 1.2),
    ])
    def test_high_frequency_asymptote_depends_on_model(self, model,
                                                       limit):
        res = pole(FILLED, 1e6, 0.1, model)
        assert abs(res.spatial_rate) / 0.1 == pytest.approx(limit,
                                                            rel=1e-9)

    @pytest.mark.parametrize("model", list(RadicandModel))
    def test_ratio_stays_above_asymptote(self, model):
        floor = math.sqrt(model.coefficient(FILLED))
        for omega in (0.2, 0.9, 1.3, 2.0, 7.0, 40.0):
            res = pole(FILLED, omega, 0.1, model)
            assert abs(res.spatial_rate) / 0.1 > floor


class TestSolveEmitter:
    BOX = QuantizationBox(length=1.0)

    def atom(self, omega):
        return Atom(position=(math.pi / 2.0, math.pi / 4.0, 0.0),
                    dipole=(0.0, 0.124, 0.0), transition_frequency=omega)

    def test_demo_emitter_matches_hand_built_chain(self):
        atom = self.atom(1.45)
        dos = DensityModel.PHASE_VELOCITY
        dec = decay_rate(FILLED, atom, self.BOX, dos)
        bare = (1.45 - 25.0 * dec.total, 1.45 + 25.0 * dec.total)
        shift = level_shift(FILLED, atom, self.BOX, dos, window=bare)
        params = MarkovParameters(decay_total=dec.total,
                                  level_shift=shift.value,
                                  transition_frequency=1.45)
        res = pole(FILLED, params.shifted_frequency, dec.total)
        sol = solve_emitter(FILLED, atom, self.BOX, dos)
        assert sol.shift.window == bare
        assert sol.decay == dec
        assert sol.shift == shift
        assert sol.pole == res

    def test_window_callable_gets_the_decay_rate(self):
        seen = []

        def window(rate):
            seen.append(rate)
            return (1.3, 1.6)

        sol = solve_emitter(FILLED, self.atom(1.45), self.BOX,
                            DensityModel.PHASE_VELOCITY, window=window)
        assert seen == [sol.decay.total]
        assert sol.shift.window == (1.3, 1.6)

    def test_policy_window_clamps_near_cutoff(self):
        # the bare window reaches below zero frequency here
        omega = 0.88
        atom = self.atom(omega)
        dos = DensityModel.GROUP_VELOCITY
        sol = solve_emitter(FILLED, atom, self.BOX, dos)
        assert sol.shift.window[0] == 0.02 * omega
        assert math.isfinite(sol.shift.value)
        rate = sol.decay.total
        with pytest.raises(DomainError):
            level_shift(FILLED, atom, self.BOX, dos,
                        window=(omega - 25.0 * rate,
                                omega + 25.0 * rate))

    def test_below_cutoff_has_no_traveling_channel(self):
        with pytest.raises(DomainError, match="traveling"):
            solve_emitter(FILLED, self.atom(0.5), self.BOX,
                          DensityModel.PHASE_VELOCITY)

    def test_line_center_at_or_below_zero_refused(self):
        # vacuum 1 x 1 guide at pi * 1.01: the group-velocity shift
        # reaches the transition frequency, and level_shift says so
        # before pole's bare refusal
        vacuum = WaveguideSpec(width=1.0, height=1.0, permittivity=1.0,
                               permeability=1.0)
        atom = Atom(position=(0.5, 0.25, 0.0), dipole=(0.0, 0.124, 0.0),
                    transition_frequency=3.173008580125691)
        with pytest.raises(DomainError) as info:
            solve_emitter(vacuum, atom, self.BOX,
                          DensityModel.GROUP_VELOCITY, max_index=8)
        assert str(info.value) == (
            "line center -31.315267937537783 is not positive: the level "
            "shift 34.48827651766347 reaches the transition frequency "
            "3.173008580125691")

    def count_demo_chain_calls(self, monkeypatch, dos):
        cfg = load_config(DEMO)
        calls = []
        couplings = emission.couplings

        def counted(*args, **kwargs):
            calls.append(args)
            return couplings(*args, **kwargs)

        monkeypatch.setattr(emission, "couplings", counted)
        solve_emitter(cfg.waveguide_spec(), cfg.atom(), cfg.box(), dos,
                      cfg.radicand, max_index=cfg.max_mn,
                      window=cfg.shift_window)
        return len(calls)

    @pytest.mark.parametrize("dos,limit", [
        (DensityModel.PHASE_VELOCITY, 16), (DensityModel.GROUP_VELOCITY, 17)])
    def test_demo_chain_coupling_calls(self, monkeypatch, dos, limit):
        # each quadrature opening once made one couplings call per
        # direction; the demo chain stays within that budget
        assert self.count_demo_chain_calls(monkeypatch, dos) <= limit

    @pytest.mark.parametrize("dos", list(DensityModel))
    def test_demo_chain_stacked_coupling_calls(self, monkeypatch, dos):
        # the decay rate takes every channel from one stacked couplings
        # call, and the level shift one per refinement level of all its
        # segments together (two calls on the demo emitter)
        assert self.count_demo_chain_calls(monkeypatch, dos) <= 3


class TestOmegaD:
    def exact_crossing(self, spec, rate):
        # eliminate the pole by hand: fixing the imaginary part at
        # -s*rate/2 forces the real part to the line center, and the
        # remaining real equation solves in closed form
        s = spec.refractive_index
        p = (math.pi / spec.width) ** 2
        return math.sqrt((p - s * (s - 1.0) * rate ** 2 / 4.0)
                         / (s - 1.0))

    def test_crossing_against_exact_algebra(self):
        report = omega_d(FILLED, 0.1, RadicandModel.SINGLE_INDEX)
        assert report.root_found == pytest.approx(
            self.exact_crossing(FILLED, 0.1), rel=1e-9)
        assert report.root_found == pytest.approx(2.2353971, rel=1e-7)
        at_root = pole(FILLED, report.root_found, 0.1,
                       RadicandModel.SINGLE_INDEX)
        assert abs(at_root.spatial_rate) / 0.1 == pytest.approx(
            1.2, rel=1e-9)

    @given(guide_strategy(), st.floats(min_value=1e-6, max_value=5.0))
    def test_crossing_matches_exact_algebra(self, spec, rate):
        s = spec.refractive_index
        assume(s > 1.0)
        # the exact crossing is real
        assume((math.pi / spec.width) ** 2 > s * (s - 1.0) * rate ** 2 / 4.0)
        report = omega_d(spec, rate, RadicandModel.SINGLE_INDEX)
        assert report.root_found == pytest.approx(
            self.exact_crossing(spec, rate), rel=1e-9)

    @given(guide_strategy(), st.floats(min_value=1e-6, max_value=5.0),
           st.sampled_from(list(RadicandModel)))
    def test_scan_flips_sign_at_most_once(self, spec, rate, model):
        # with beta_i = -n*rate/2 the pole equation forces
        # beta_r = c*w/n and leaves w^2 * c*(1 - c/n^2) =
        # p + (c - n^2)*rate^2/4: one positive root when both sides
        # can be positive, none otherwise
        n = spec.refractive_index
        c = model.coefficient(spec)
        p = (math.pi / spec.width) ** 2
        lo, hi = 1e-3 * math.sqrt(p / c), 1e4 * math.sqrt(p / c)
        numer = p + (c - n * n) * rate ** 2 / 4.0
        denom = c * (1.0 - c / (n * n))
        crossing = None
        if denom > 0.0 and numer > 0.0:
            crossing = math.sqrt(numer / denom)
            assume(not lo / 1.01 < crossing < 1.01 * lo)
            assume(not hi / 1.01 < crossing < 1.01 * hi)
        excess = np.array([
            abs(pole(spec, float(w), rate, model).spatial_rate) / rate - n
            for w in np.geomspace(lo, hi, 600)])
        flips = np.count_nonzero(np.sign(excess[:-1])
                                 * np.sign(excess[1:]) < 0)
        inside = crossing is not None and lo < crossing < hi
        assert flips == (1 if inside else 0)

    def test_root_stable_under_scan_refinement(self):
        # the oracle's root at 600 and at 2,400 scan samples
        root = omega_d(FILLED, 0.1).root_found
        for samples in (600, 2400):
            assert scanned_crossing(FILLED, 0.1, samples=samples) \
                == pytest.approx(root, rel=1e-12)

    def test_scan_oracle_on_seeded_guides(self, rng):
        # 150 guides x 2 rates x 2 models: one rate drawn over
        # [1e-6, 0.3], one within 25% of the rate above which the
        # 'paper' crossing vanishes, so every refusal condition shows
        counts = {"crossing": 0, "consistent": 0, "index": 0, "rate": 0}
        for _ in range(150):
            width = float(np.exp(rng.uniform(0.0, math.log(60.0))))
            spec = WaveguideSpec(
                width=width, height=width * rng.uniform(0.2, 1.0),
                permittivity=rng.uniform(0.6, 2.5),
                permeability=rng.uniform(0.6, 2.5))
            n = spec.refractive_index
            p = (math.pi / width) ** 2
            rates = [float(10.0 ** rng.uniform(-6.0, math.log10(0.3)))]
            if n > 1.0:
                edge = 2.0 * math.sqrt(p / (n * (n - 1.0)))
                rates.append(min(max(edge * rng.uniform(0.8, 1.25), 1e-6),
                                 0.3))
            for rate in rates:
                for model in RadicandModel:
                    try:
                        root = scanned_crossing(spec, rate, model)
                    except NoCrossingError as err:
                        with pytest.raises(NoCrossingError) as mine:
                            omega_d(spec, rate, model)
                        assert mine.value.value_range == err.value_range
                        if model is RadicandModel.INDEX_SQUARED:
                            counts["consistent"] += 1
                        elif n <= 1.0:
                            counts["index"] += 1
                        else:
                            assert p / (n - 1.0) <= n * rate ** 2 / 4.0
                            counts["rate"] += 1
                        continue
                    assert model is RadicandModel.SINGLE_INDEX
                    found = omega_d(spec, rate, model).root_found
                    assert abs(found - root) <= 1e-12 * root
                    counts["crossing"] += 1
        assert min(counts.values()) >= 10, counts

    def test_index_squared_never_crosses(self):
        with pytest.raises(NoCrossingError,
                           match="'consistent' continuation never "
                                 "crosses") as err:
            omega_d(FILLED, 0.1, RadicandModel.INDEX_SQUARED)
        lo, hi = err.value.value_range
        # the ratio approaches the target from above and never meets it
        assert 1.2 < lo < 1.21
        assert hi > 10.0

    def test_vacuum_never_crosses(self):
        empty = WaveguideSpec(width=math.pi, height=math.pi / 2.0)
        with pytest.raises(NoCrossingError, match=r"index n > 1, and "
                                                  r"here n = 1\.0$"):
            omega_d(empty, 0.1, RadicandModel.SINGLE_INDEX)

    def test_fast_decay_never_crosses(self):
        # h^2/(n - 1) = 5 on FILLED, so the crossing ends at rate 4.08
        with pytest.raises(NoCrossingError, match=r"h\^2/\(n - 1\) > "
                                                  r"n\*rate\^2/4, and here "
                                                  r"5\.0\d* <= 5\.04"):
            omega_d(FILLED, 4.1)
        # w^2 = 5 - 4.8 cancels: the two forms round ~25 ulps apart
        assert omega_d(FILLED, 4.0).root_found == pytest.approx(
            self.exact_crossing(FILLED, 4.0), rel=1e-13)

    def test_closed_form_candidate_value(self):
        assert closed_form_crossing(FILLED, 0.1) == pytest.approx(
            0.4240585, rel=1e-6)

    @pytest.mark.parametrize("rate", [1e-300, 1e-6, 0.1, 10.0, 1e80,
                                      1e152, 1e300])
    def test_closed_form_candidate_against_quartic(self, rate):
        # the quartic in exact rationals; the library's form never
        # raises a power of the rate above the second
        eps_mu = Fraction(FILLED.permittivity * FILLED.permeability)
        p = Fraction((math.pi / FILLED.width) ** 2)
        x = eps_mu * Fraction(rate) ** 2
        square = ((x * x + 12 * x * p + 4 * p * p)
                  / (8 * eps_mu * (x + 2 * p)))
        # scaled so that the float of the square stays in range
        scale = max(rate, 1.0)
        exact = scale * math.sqrt(square / Fraction(scale) ** 2)
        assert closed_form_crossing(FILLED, rate) == pytest.approx(
            exact, rel=1e-15)

    def test_closed_form_candidate_lies_below_cutoff(self):
        # h/(2n), half the TE(1,0) cutoff h/n, at zero rate; the cutoff
        # itself at rate sqrt(2)*h/n
        cutoff = 1.0 / FILLED.refractive_index
        assert closed_form_crossing(FILLED, 1e-12) == pytest.approx(
            0.5 * cutoff, rel=1e-15)
        assert 0.5 * cutoff < closed_form_crossing(FILLED, 0.1) \
            < 0.51 * cutoff
        assert closed_form_crossing(FILLED, math.sqrt(2.0) * cutoff) \
            == pytest.approx(cutoff, rel=1e-15)

    def test_closed_form_disagreement_is_reported(self):
        report = omega_d(FILLED, 0.1)
        assert report.closed_form == pytest.approx(
            closed_form_crossing(FILLED, 0.1), rel=1e-15)
        assert report.discrepancy == pytest.approx(
            abs(report.closed_form - report.root_found)
            / report.root_found, rel=1e-12)
        assert report.discrepancy > 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            omega_d(FILLED, 0.0)
        with pytest.raises(DomainError):
            closed_form_crossing(FILLED, 0.0)

    def test_overflowing_crossing_refused(self):
        # h^2/(n - 1) overflows: a narrow guide with n one ulp above 1
        spec = WaveguideSpec(width=1e-150, height=1e-150,
                             permittivity=1.0 + 4.5e-16)
        assert spec.refractive_index > 1.0
        with pytest.raises(DomainError, match="crossing line center "
                                              "overflows"):
            omega_d(spec, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rate_refused(self, bad):
        # a NaN rate scanned every line center and found no crossing
        with pytest.raises(DomainError, match="must be finite"):
            omega_d(FILLED, bad)

    def test_crossing_calls_no_pole(self, monkeypatch):
        # a crossing is closed form; no crossing reads the ratio at
        # the two ends of [1e-3, 1e4] * sqrt(h^2/c)
        calls = []
        real_pole = detection.pole

        def counting_pole(*args):
            calls.append(args[1])
            return real_pole(*args)

        monkeypatch.setattr(detection, "pole", counting_pole)
        omega_d(FILLED, 0.1)
        assert calls == []
        with pytest.raises(NoCrossingError):
            omega_d(FILLED, 0.1, RadicandModel.INDEX_SQUARED)
        nu_ref = 1.0 / 1.2
        assert calls == [1e-3 * nu_ref, 1e4 * nu_ref]


class TestGroupVelocityLaw:
    """The axial rate of the emission pole is the temporal rate over
    the group velocity v_g = beta_c/(eps*mu*w) of the guide at the line
    center w, to second order in rate/w.

    Continuing beta^2 = c*(w - i*rate/2)^2 - h^2 to first order gives
    2|beta_i| = c*w*rate/beta_0 with beta_0 = sqrt(c*w^2 - h^2): rate/v_g
    under ``consistent`` (c = eps*mu, beta_0 = beta_c) and
    (beta_c/(n*beta_p)) * rate/v_g under ``paper`` (c = n,
    beta_0 = beta_p). The next order leaves a relative gap of about
    s*(s - 1)/8 * (rate/w)^2 with s = c*w^2/beta_0^2. Line centers sit
    at least 1.2 times above the larger of the two cutoffs h/n and
    h/sqrt(n), where s <= 3.27 and s*(s - 1)/8 <= 0.93: C = 1 bounds
    the gap. Over these draws C measures 0.06 to 0.91 (about 0.1 to
    0.25 on the demo guide), plus a rounding floor below 27 ulps at
    the smallest rates.
    """

    C = 1.0
    ROUNDING = 64 * np.finfo(float).eps

    def draws(self, rng):
        for _ in range(60):
            width = rng.uniform(0.5, 5.0)
            spec = WaveguideSpec(
                width=width, height=width * rng.uniform(0.2, 0.5),
                permittivity=rng.uniform(1.0, 2.5),
                permeability=rng.uniform(0.6, 1.5))
            n = spec.refractive_index
            h = math.pi / width
            # a >= 2b: the band holds TE(1,0) alone up to 2h/n
            omega = rng.uniform(1.2 * max(h / n, h / math.sqrt(n)),
                                1.9 * h / n)
            beta_c = math.sqrt(n * n * omega * omega - h * h)
            beta_p = math.sqrt(n * omega * omega - h * h)
            for x in 10.0 ** rng.uniform(-10.0, -2.0, 6):
                yield spec, omega, x * omega, x, beta_c, beta_p

    def bound(self, x):
        return self.C * x * x + self.ROUNDING

    def test_consistent_axial_rate_is_rate_over_group_velocity(self, rng):
        for spec, omega, rate, x, beta_c, _ in self.draws(rng):
            n = spec.refractive_index
            v_g = beta_c / (n * n * omega)
            res = pole(spec, omega, rate, RadicandModel.INDEX_SQUARED)
            assert abs(2.0 * abs(res.beta_i) * v_g / rate - 1.0) \
                <= self.bound(x)
            # v_g < 1/n: the ratio stays above n, so no crossing
            assert abs(res.spatial_rate) / rate > n

    def test_paper_axial_rate_is_off_by_the_radicand_ratio(self, rng):
        for spec, omega, rate, x, beta_c, beta_p in self.draws(rng):
            n = spec.refractive_index
            v_g = beta_c / (n * n * omega)
            law = beta_c / (n * beta_p) * rate / v_g
            res = pole(spec, omega, rate, RadicandModel.SINGLE_INDEX)
            assert abs(2.0 * abs(res.beta_i) / law - 1.0) <= self.bound(x)


class TestCorrelationAmplitude:
    POLE = pole(FILLED, CENTER, RATE, RadicandModel.SINGLE_INDEX)

    def test_causal_gate(self):
        atom = filled_atom()
        dz = 10.0
        edge = FILLED.refractive_index * dz
        pt = (1.0, 0.5, dz)
        before = correlation_amplitude(FILLED, atom, self.POLE, pt,
                                       edge - 1e-9)
        at = correlation_amplitude(FILLED, atom, self.POLE, pt, edge)
        after = correlation_amplitude(FILLED, atom, self.POLE, pt,
                                      edge + 1.0)
        assert before == 0.0
        assert at != 0.0
        assert abs(after) < abs(at)

    def test_two_exponential_rates(self):
        atom = filled_atom()
        base = (1.0, 0.5, 5.0)
        t0 = 30.0
        g0 = abs(correlation_amplitude(FILLED, atom, self.POLE, base,
                                       t0)) ** 2
        g_dz = abs(correlation_amplitude(FILLED, atom, self.POLE,
                                         (1.0, 0.5, 8.0), t0)) ** 2
        g_dt = abs(correlation_amplitude(FILLED, atom, self.POLE, base,
                                         t0 + 4.0)) ** 2
        assert g_dz / g0 == pytest.approx(
            math.exp(self.POLE.spatial_rate * 3.0), rel=1e-12)
        assert g_dt / g0 == pytest.approx(
            math.exp(-self.POLE.decay_rate * 4.0), rel=1e-12)

    def test_transverse_profile(self):
        atom = filled_atom()
        t = 40.0
        a1 = correlation_amplitude(FILLED, atom, self.POLE,
                                   (0.7, 0.5, 5.0), t)
        a2 = correlation_amplitude(FILLED, atom, self.POLE,
                                   (1.9, 0.5, 5.0), t)
        assert abs(a1) / abs(a2) == pytest.approx(
            math.sin(0.7) / math.sin(1.9), rel=1e-12)

    def test_height_coordinate_does_not_matter(self):
        atom = filled_atom()
        a1 = correlation_amplitude(FILLED, atom, self.POLE,
                                   (1.0, 0.1, 5.0), 40.0)
        a2 = correlation_amplitude(FILLED, atom, self.POLE,
                                   (1.0, 1.5, 5.0), 40.0)
        assert a1 == a2

    def test_slope_along_the_cone_edge(self):
        # sampling exactly on the wavefront trades axial damping
        # against temporal damping; the log slope against time is
        # -(rate + |spatial|/index)
        atom = filled_atom()
        root = FILLED.refractive_index
        vals = []
        for dz in (6.0, 16.0):
            t = root * dz
            g = abs(correlation_amplitude(FILLED, atom, self.POLE,
                                          (1.0, 0.5, dz), t)) ** 2
            vals.append((t, math.log(g)))
        slope = (vals[1][1] - vals[0][1]) / (vals[1][0] - vals[0][0])
        expected = -(self.POLE.decay_rate
                     + abs(self.POLE.spatial_rate) / root)
        assert slope == pytest.approx(expected, rel=1e-12)

    def test_outside_cross_section_rejected(self):
        atom = filled_atom()
        with pytest.raises(DomainError):
            correlation_amplitude(FILLED, atom, self.POLE,
                                  (4.0, 0.5, 5.0), 40.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_refused(self, bad):
        # each returned 0j, as if the point lay before the front
        atom = filled_atom()
        with pytest.raises(DomainError, match="time samples must be finite"):
            correlation_amplitude(FILLED, atom, self.POLE,
                                  (1.0, 0.5, 5.0), bad)
        with pytest.raises(DomainError,
                           match="axial samples must be finite"):
            correlation_amplitude(FILLED, atom, self.POLE,
                                  (1.0, 0.5, bad), 40.0)


class TestCorrelationGrid:
    POLE = pole(FILLED, CENTER, RATE, RadicandModel.SINGLE_INDEX)

    def make_grid(self, **kw):
        atom = filled_atom()
        x = np.linspace(0.4, 2.6, 5)
        z = np.linspace(1.0, 20.0, 12)
        t = np.linspace(40.0, 60.0, 12)
        return correlation_grid(FILLED, atom, self.POLE, x, z, t, **kw)

    def test_two_paths_agree(self):
        grid = self.make_grid()
        assert grid.consistency_max_rel <= 1e-12

    @pytest.mark.parametrize("dos", list(DensityModel))
    @pytest.mark.parametrize("radicand", list(RadicandModel))
    def test_amplitude_squared_is_the_map(self, dos, radicand):
        # the complex residue factors and the real double exponential,
        # cell by cell on a grid that straddles the light front
        atom = filled_atom()
        res = pole(FILLED, CENTER, RATE, radicand)
        x = np.linspace(0.4, 2.6, 2)
        z = np.linspace(-6.0, 20.0, 6)
        t = np.linspace(0.5, 30.0, 6)
        grid = correlation_grid(FILLED, atom, res, x, z, t, dos=dos)
        assert 0 < grid.inside_cone.sum() < grid.inside_cone.size
        for i, j, k in np.ndindex(grid.values.shape):
            amp = correlation_amplitude(FILLED, atom, res,
                                        (x[i], 0.5, z[j]), t[k], dos=dos)
            want = grid.values[i, j, k]
            if grid.inside_cone[j, k]:
                assert want > 0.0
                assert abs(abs(amp) ** 2 - want) <= 1e-12 * want
            else:
                assert amp == 0j and want == 0.0

    def test_matches_fresh_array_expressions(self):
        # on a grid that straddles the light front: the map equals the
        # closed form, one fresh array per step, byte for byte; the
        # consistency figure equals a fresh per-axis expression bit for
        # bit; and the grid-wide complex amplitude, kept here as the
        # oracle, agrees with the map within validate's tolerance
        from wgqed import detection

        atom = filled_atom()
        x = np.linspace(0.4, 2.6, 3)
        z = np.linspace(-6.0, 20.0, 14)
        t = np.linspace(0.5, 60.0, 17)
        grid = correlation_grid(FILLED, atom, self.POLE, x, z, t)
        assert 0 < grid.inside_cone.sum() < grid.inside_cone.size

        p = self.POLE
        dz = np.abs(z - atom.position[2])
        inside = t[None, :] >= FILLED.refractive_index * dz[:, None]
        const = detection._amplitude_constant(
            FILLED, atom, p, DensityModel.PHASE_VELOCITY)
        envelope = np.exp(
            (1j * p.beta_r + p.beta_i) * dz[None, :, None]
            - (1j * p.shifted_frequency + 0.5 * p.decay_rate)
            * t[None, None, :])
        profile = (detection._transverse_profile(FILLED, x[:, None, None])
                   * detection._transverse_profile(FILLED,
                                                   atom.position[0]))
        amp = np.where(inside, const * profile * envelope, 0.0 + 0.0j)
        squared = np.abs(amp) ** 2
        profile_sq = (detection._transverse_profile(FILLED, x) ** 2
                      * detection._transverse_profile(
                          FILLED, atom.position[0]) ** 2)
        closed = (abs(const) ** 2 * profile_sq[:, None, None]
                  * np.exp(p.spatial_rate * dz[None, :, None]
                           - p.decay_rate * t[None, None, :])
                  * inside[None, :, :])
        live = closed > 0.0
        assert grid.values.tobytes() == closed.tobytes()
        assert np.max(np.abs(squared[live] - closed[live])
                      / closed[live]) <= 1e-12

        def worst_gap(amp, real):
            on = real > 0.0
            return np.max(np.abs(np.abs(amp[on]) ** 2 - real[on])
                          / real[on], initial=0.0)

        axes = (
            worst_gap(const * profile[:, 0, 0], abs(const) ** 2
                      * profile_sq),
            worst_gap(np.exp((1j * p.beta_r + p.beta_i) * dz),
                      np.exp(p.spatial_rate * dz)),
            worst_gap(np.exp(-(1j * p.shifted_frequency
                               + 0.5 * p.decay_rate) * t),
                      np.exp(-p.decay_rate * t)))
        assert grid.consistency_max_rel == math.fsum(axes)

    def test_subnormal_cells_agree(self):
        # late cells of the demo map are subnormal; scaling one by
        # const^2 P^2 after its exponential rounded to a few bits made
        # the grid-wide figure read 6e-3 here, while each axis factor
        # rounds the same value both ways
        cfg = load_config(str(DEMO))
        spec, atom = cfg.waveguide_spec(), cfg.atom()
        sol = solve_emitter(spec, atom, cfg.box(), cfg.dos, cfg.radicand,
                            max_index=cfg.max_mn, window=cfg.shift_window)
        grid = correlation_grid(
            spec, atom, sol.pole, [atom.position[0]],
            np.linspace(1.0, 100.0, 17), np.linspace(32000.0, 34000.0, 17),
            dos=cfg.dos, max_index=cfg.max_mn)
        live = grid.values[grid.values > 0.0]
        assert live.size and live.min() < np.finfo(float).tiny
        assert grid.consistency_max_rel <= 1e-12

    def test_shapes_and_cone_mask(self):
        grid = self.make_grid()
        assert grid.values.shape == (5, 12, 12)
        assert grid.inside_cone.shape == (12, 12)
        # the chosen ranges keep every sampled cell causal
        assert np.all(grid.inside_cone)
        assert np.all(grid.values > 0.0)

    def test_fit_recovers_both_rates(self):
        fit = fit_decay_rates(self.make_grid())
        assert fit.temporal_rate == pytest.approx(RATE, rel=1e-9)
        assert fit.spatial_rate == pytest.approx(
            abs(self.POLE.spatial_rate), rel=1e-9)
        assert fit.rate_ratio == pytest.approx(
            abs(self.POLE.spatial_rate) / RATE, rel=1e-9)
        assert fit.cone_ratio == pytest.approx(
            FILLED.refractive_index * RATE
            / abs(self.POLE.spatial_rate), rel=1e-9)
        assert fit.max_log_residual < 1e-9

    def test_cone_ratio_value_at_reference_point(self):
        # this line center and width put the rescaled ratio at 0.8
        fit = fit_decay_rates(self.make_grid())
        assert fit.cone_ratio == pytest.approx(0.8, rel=1e-4)

    def test_metadata_records_models(self):
        grid = self.make_grid(dos=DensityModel.GROUP_VELOCITY)
        assert grid.pole is self.POLE
        assert grid.pole.model is RadicandModel.SINGLE_INDEX
        assert grid.front_speed_factor == pytest.approx(1.2)
        assert math.isfinite(grid.alternative_prefactor_ratio)
        assert grid.alternative_prefactor_ratio > 0.0

    def test_requires_transverse_dipole(self):
        atom = Atom(position=(1.0, 0.5, 0.0), dipole=(0.3, 0.0, 0.0),
                    transition_frequency=CENTER)
        with pytest.raises(DomainError):
            correlation_grid(FILLED, atom, self.POLE, [1.0], [5.0],
                             [40.0])

    def test_requires_single_channel_window(self):
        atom = filled_atom()
        crowded = pole(FILLED, 2.0, RATE)
        with pytest.raises(DomainError, match="modes propagate"):
            correlation_grid(FILLED, atom, crowded, [1.0], [5.0],
                             [40.0])
        dark = pole(FILLED, 0.5, RATE)
        with pytest.raises(DomainError, match="no mode propagates"):
            correlation_grid(FILLED, atom, dark, [1.0], [5.0], [40.0])

    @pytest.mark.parametrize("axis", ["z", "t"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_refused(self, axis, bad):
        # an infinite time passed as a causal cell of value zero
        samples = {"z": [1.0, 5.0], "t": [40.0, 50.0]}
        samples[axis][1] = bad
        with pytest.raises(DomainError, match="samples must be finite"):
            correlation_grid(FILLED, filled_atom(), self.POLE, [1.0],
                             samples["z"], samples["t"])

    def test_first_x_outside_is_named(self):
        with pytest.raises(DomainError) as exc:
            correlation_grid(FILLED, filled_atom(), self.POLE,
                             [1.0, 4.0, math.nan, -1.0], [5.0], [40.0])
        assert str(exc.value) == (
            "detection point (4.0, 0.0) lies outside the cross section")

    def test_fit_needs_enough_causal_cells(self):
        atom = filled_atom()
        x = [1.0]
        z = np.linspace(1.0, 4.0, 4)
        t = np.linspace(30.0, 40.0, 4)
        grid = correlation_grid(FILLED, atom, self.POLE, x, z, t)
        with pytest.raises(DomainError):
            fit_decay_rates(grid)

    def test_time_fit_row_matches_loop(self):
        # the far axial samples come first and hold too few causal
        # cells; the fit reads the first one with enough, as this loop
        grid = correlation_grid(FILLED, filled_atom(), self.POLE, [1.0],
                                np.linspace(-20.0, 20.0, 41),
                                np.linspace(10.0, 30.0, 20))
        values = grid.values[0]
        for j in range(len(grid.z_values)):
            mask = grid.inside_cone[j] & (values[j] > 0.0)
            if np.count_nonzero(mask) >= detection.MIN_FIT_CELLS:
                break
        assert j > 0
        slope = np.polyfit(grid.t_values[mask], np.log(values[j][mask]), 1)
        assert fit_decay_rates(grid).temporal_rate == -slope[0]

    @pytest.mark.parametrize("rate,t_values", [
        # every causal cell of every axial sample is below e^-745
        ("temporal", np.linspace(16000.0, 20000.0, 10)),
        # the latest time's cells are, while earlier times fit
        ("spatial", np.linspace(200.0, 20000.0, 20))])
    def test_fit_names_underflow(self, rate, t_values):
        # the message said to extend the time range, which only
        # underflows more cells
        grid = correlation_grid(FILLED, filled_atom(), self.POLE, [1.0],
                                np.linspace(1.0, 100.0, 20), t_values)
        assert grid.inside_cone.all()
        with pytest.raises(DomainError) as exc:
            fit_decay_rates(grid)
        assert str(exc.value) == (
            f"too few causal cells are above zero to fit the {rate} "
            "rate: the rest underflowed; use an earlier or shorter time "
            "range")


class TestPhotonLedger:
    """The map against ``photon_ledger``, whose closed forms share no
    formula with it (ROADMAP item 26). Its flux through the source
    plane carries the decay rate's photons, Gamma/2 per direction under
    ``dispersion`` and the channel's cosine beta/(n omega) of that under
    ``paper``; its photon count inside the cone follows its own form,
    exp(-Gamma t) (1 - exp(-2 |beta_i| t/n)) / (2 |beta_i|)."""

    BOX = QuantizationBox(length=1.0)
    # |flux / expected - 1| <= ORDER * (Gamma/omega)**2. These guides
    # read up to 2.4 under dispersion, and paper reads 25/pi - 1/4 =
    # 7.708 on every guide
    ORDER = 10.0

    @pytest.mark.parametrize("dos", list(DensityModel),
                             ids=lambda dos: dos.value)
    @pytest.mark.parametrize("name, spec, atom", LEDGER_CASES,
                             ids=[case[0] for case in LEDGER_CASES])
    def test_source_flux_is_the_decay_rate(self, dos, name, spec, atom):
        sol = solve_emitter(spec, atom, self.BOX, dos)
        gamma, omega = sol.decay.total, sol.pole.shifted_frequency
        # the map at the source plane at t = 0, on the profile's crest
        grid = correlation_grid(spec, atom, sol.pole, [spec.width / 2.0],
                                [atom.position[2]], [0.0], dos=dos)
        eps, mu = spec.permittivity, spec.permeability
        flux = photon_ledger.source_flux(grid.values[0, 0, 0], spec.width,
                                         spec.height, eps, mu, omega)
        cosine = (1.0 if dos is DensityModel.GROUP_VELOCITY else
                  photon_ledger.te10_wavenumber(spec.width, eps, mu, omega)
                  / (spec.refractive_index * omega))
        small = gamma / atom.transition_frequency
        assert 1e-4 < small < 2e-2
        deviation = flux / (0.5 * gamma * cosine) - 1.0
        assert abs(deviation) <= self.ORDER * small ** 2

    @pytest.mark.parametrize("dos", list(DensityModel),
                             ids=lambda dos: dos.value)
    @pytest.mark.parametrize("name, spec, atom", LEDGER_CASES,
                             ids=[case[0] for case in LEDGER_CASES])
    def test_count_in_the_cone_is_the_map_form(self, dos, name, spec, atom):
        sol = solve_emitter(spec, atom, self.BOX, dos)
        gamma, n = sol.decay.total, spec.refractive_index
        rate = 2.0 * abs(sol.pole.beta_i)
        # the source sits at z = 0. The nodes are uniform over 8
        # lifetimes of reach, and finer where the map falls along z:
        # under the paper radicand a guide with n > 1.7 can damp it
        # hundreds of times faster than the front moves a lifetime.
        # Each time of 0, 1, 2, 4 and 8 lifetimes puts the front on a
        # node, so the trapezoid over the causal cells ends where the
        # cone does
        steps = 4000
        lifetimes = np.linspace(0.0, 8.0 / (gamma * n), 8 * steps + 1)
        z = np.union1d(lifetimes, np.linspace(
            0.0, min(lifetimes[-1], 40.0 / rate), steps + 1))
        fronts = lifetimes[[0, steps, 2 * steps, 4 * steps, 8 * steps]]
        t = n * fronts
        grid = correlation_grid(spec, atom, sol.pole, [spec.width / 2.0],
                                z, t, dos=dos)
        values = grid.values[0]
        constant = values[0, 0]
        assert constant > 0.0
        for k in range(1, len(t)):
            inside = grid.inside_cone[:, k]
            assert np.flatnonzero(inside)[-1] == np.searchsorted(z, fronts[k])
            count = np.trapezoid(values[inside, k], z[inside])
            assert count == pytest.approx(
                constant * photon_ledger.map_count(t[k], gamma,
                                                   sol.pole.beta_i, n),
                rel=1e-5, abs=0.0)

    def test_counts_are_their_integrals(self):
        from scipy.integrate import quad

        gamma, beta_i, n, v_g = 0.02, -0.015, 1.2, 0.7
        for t in (0.5 / gamma, 3.0 / gamma):
            mapped = photon_ledger.map_count(t, gamma, beta_i, n)
            assert mapped == pytest.approx(quad(
                lambda dz: math.exp(2.0 * beta_i * dz - gamma * t),
                0.0, t / n)[0], rel=1e-12)
            retarded = photon_ledger.retarded_count(t, gamma, v_g)
            assert retarded == pytest.approx(quad(
                lambda dz: math.exp(-gamma * (t - dz / v_g)),
                0.0, v_g * t)[0], rel=1e-12)
            # with the source flux C v_g at gamma/2 the retarded form
            # holds (1 - e^{-gamma t})/2 photons per direction, as
            # conservation needs
            assert 0.5 * gamma / v_g * retarded == pytest.approx(
                -0.5 * math.expm1(-gamma * t), rel=1e-14)


class TestBruteForce:
    def place(self, dz, rate):
        t = FILLED.refractive_index * dz + 5.2 / rate
        return (math.pi / 2.0, math.pi / 4.0, dz), t

    def relative_g1(self, res, dos, dz, rate):
        atom = filled_atom()
        pt, t = self.place(dz, rate)
        direct = abs(brute_force_amplitude(FILLED, atom, res, pt, t,
                                           dos=dos)) ** 2
        closed = abs(correlation_amplitude(FILLED, atom, res, pt, t,
                                           dos=dos)) ** 2
        return abs(closed - direct) / direct

    def test_matches_residue_under_bulk_index_weighting(self):
        res = pole(FILLED, CENTER, 0.02, RadicandModel.SINGLE_INDEX)
        for dz in (100.0, 150.0):
            assert self.relative_g1(res, DensityModel.PHASE_VELOCITY,
                                    dz, 0.02) < 1e-3

    def test_matches_residue_under_dispersion_weighting(self):
        res = pole(FILLED, CENTER, 0.02, RadicandModel.INDEX_SQUARED)
        for dz in (60.0, 120.0):
            assert self.relative_g1(res, DensityModel.GROUP_VELOCITY,
                                    dz, 0.02) < 1e-3

    def test_background_falls_with_separation(self):
        # the spectrum's non-resonant part, absent from the residue
        # form, fades as the detector moves out
        res = pole(FILLED, CENTER, 0.02, RadicandModel.SINGLE_INDEX)
        near = self.relative_g1(res, DensityModel.PHASE_VELOCITY,
                                30.0, 0.02)
        far = self.relative_g1(res, DensityModel.PHASE_VELOCITY,
                               100.0, 0.02)
        assert far < near / 5.0

    def test_time_enters_as_exact_envelope(self):
        atom = filled_atom()
        res = pole(FILLED, CENTER, 0.02, RadicandModel.SINGLE_INDEX)
        pt = (math.pi / 2.0, math.pi / 4.0, 50.0)
        b1 = brute_force_amplitude(FILLED, atom, res, pt, 300.0,
                                   samples=2000)
        b2 = brute_force_amplitude(FILLED, atom, res, pt, 310.0,
                                   samples=2000)
        shift = cmath.exp(-(1j * CENTER + 0.01) * 10.0)
        assert b2 == pytest.approx(b1 * shift, rel=1e-13)

    def test_tail_closure_matters(self):
        atom = filled_atom()
        res = pole(FILLED, CENTER, 0.02, RadicandModel.SINGLE_INDEX)
        pt, t = self.place(120.0, 0.02)
        with_tail = brute_force_amplitude(FILLED, atom, res, pt, t)
        without = brute_force_amplitude(FILLED, atom, res, pt, t,
                                        tail_correction=False)
        assert abs(with_tail - without) / abs(with_tail) > 1e-3

    def test_guards(self):
        atom = filled_atom()
        res = pole(FILLED, CENTER, 0.02, RadicandModel.SINGLE_INDEX)
        with pytest.raises(DomainError):
            brute_force_amplitude(FILLED, atom, res,
                                  (1.0, 0.5, 0.0), 10.0)
        with pytest.raises(DomainError):
            brute_force_amplitude(FILLED, atom, res, (1.0, 0.5, 5.0),
                                  10.0, samples=10)
        quiet = pole(FILLED, CENTER, 0.0, RadicandModel.SINGLE_INDEX)
        with pytest.raises(DomainError):
            brute_force_amplitude(FILLED, atom, quiet,
                                  (1.0, 0.5, 5.0), 10.0)

    def test_span_needs_an_oscillating_pole(self):
        flat = PoleResult(beta_r=0.0, beta_i=-0.01, radicand=-1e-4j,
                          shifted_frequency=CENTER, decay_rate=0.02,
                          model=RadicandModel.SINGLE_INDEX)
        with pytest.raises(DomainError) as info:
            brute_force_amplitude(FILLED, filled_atom(), flat,
                                  (1.0, 0.5, 5.0), 10.0)
        assert str(info.value) \
            == "span must be positive; is the pole oscillatory at all?"

    def test_dispersion_weight_needs_matched_continuation(self):
        # a guide with index below one makes the single-index
        # continuation sweep through evanescent true frequencies
        thin = WaveguideSpec(width=math.pi, height=math.pi / 2.0,
                             permittivity=1.0, permeability=0.64)
        atom = Atom(position=(1.0, 0.5, 0.0), dipole=(0.0, 0.1, 0.0),
                    transition_frequency=1.6)
        res = pole(thin, 1.6, 0.02, RadicandModel.SINGLE_INDEX)
        with pytest.raises(DomainError):
            brute_force_amplitude(thin, atom, res, (1.0, 0.5, 5.0),
                                  20.0, dos=DensityModel.GROUP_VELOCITY)

    def test_alternative_prefactor_differs(self):
        res = pole(FILLED, CENTER, RATE, RadicandModel.SINGLE_INDEX)
        ratio = alternative_prefactor_ratio(
            FILLED, res, DensityModel.PHASE_VELOCITY)
        assert math.isfinite(ratio)
        assert ratio > 2.0

    def test_alternative_prefactor_degenerate_gap(self):
        res = pole(FILLED, 1.0, RATE, RadicandModel.SINGLE_INDEX)
        assert alternative_prefactor_ratio(
            FILLED, res, DensityModel.PHASE_VELOCITY) == math.inf

    def test_group_velocity_weight_refused_below_cutoff(self):
        # a real line center 0.5 below the fundamental cutoff 1/1.2
        below = PoleResult(beta_r=0.0, beta_i=-math.sqrt(0.7),
                           radicand=-0.7 + 0j,
                           shifted_frequency=0.5, decay_rate=0.0,
                           model=RadicandModel.SINGLE_INDEX)
        text = ("group-velocity weighting is undefined at a line center "
                "below the fundamental cutoff")
        for call in (
                lambda: alternative_prefactor_ratio(
                    FILLED, below, DensityModel.GROUP_VELOCITY),
                lambda: correlation_amplitude(
                    FILLED, filled_atom(), below, (1.0, 0.5, 0.0), 1.0,
                    dos=DensityModel.GROUP_VELOCITY)):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == text
