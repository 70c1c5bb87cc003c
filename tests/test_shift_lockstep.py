"""The lockstep level shift against the per-segment schedule it replaced.

``level_shift`` refines every (mode, branch) segment together, with one
``couplings`` call over its channel table per refinement level.
``_previous_level_shift`` below is the former implementation, kept as
the oracle: each segment its own ``integrate`` or ``pv_integrate``,
with one one-mode ``couplings`` call per direction of travel. Both
must give the same bits for every contribution, and raise the same
first error.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from wgqed import emission, numerics
from wgqed.config import load_config, parse_config
from wgqed.emission import (
    _ENDPOINT_GUARD,
    _split_by_cutoff,
    build_bins,
    decay_rate,
    level_shift,
)
from wgqed.errors import ConvergenceError, DomainError
from wgqed.modes import (
    CUTOFF_REL_TOL,
    Branch,
    ModeIndex,
    Polarization,
    cutoff_frequency,
    WaveguideSpec,
    modes_below,
    transverse_wavenumber,
)
from wgqed.numerics import integrate, pv_integrate
from wgqed.quantize import (
    Atom,
    Channels,
    DensityModel,
    QuantizationBox,
    _weight_times_t,
    continuum_weight,
    couplings,
)

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "configs" / "demo.conf"
# the emitter grid of the benchmark's sweep, all in the demo guide's
# single-channel band
SWEEP_GRID = tuple(np.linspace(0.86, 1.64, 8).tolist())
TE10 = ModeIndex(Polarization.TE, 1, 0)
TE20 = ModeIndex(Polarization.TE, 2, 0)


def _previous_level_shift(spec, atom, box, model, *, window, modes=None,
                          max_index=12):
    # level_shift as it was before the segments ran in lockstep
    lo, hi = window
    if not (0.0 < lo < hi):
        raise DomainError("window must satisfy 0 < low < high")
    atom.check_inside(spec)
    omega = atom.transition_frequency
    if modes is None:
        modes = modes_below(spec, hi, max_index=max_index)
    eps_mu = spec.permittivity * spec.permeability
    contributions = []
    for mode in modes:
        nu_c = cutoff_frequency(spec, mode)
        h = nu_c * spec.refractive_index
        band = 2.0 * CUTOFF_REL_TOL * nu_c
        for branch, s_lo, s_hi in _split_by_cutoff((lo, hi), nu_c):
            for edge in (s_lo, s_hi):
                if abs(omega - edge) < _ENDPOINT_GUARD * omega:
                    raise DomainError(
                        "window or cutoff edge collides with the "
                        "transition frequency; shift the window")
            s = 1.0 if branch is Branch.PROPAGATING else -1.0
            q = s * (eps_mu * omega * omega - h * h)
            directions = (1, -1) if branch is Branch.PROPAGATING else (1,)

            def numerator(t):
                nu = np.sqrt((h * h + s * t * t) / eps_mu)
                nu = np.where(np.abs(nu - nu_c) < band, nu_c + s * band, nu)
                csq = sum(np.abs(emission.couplings(
                    Channels(spec, atom, [mode]), np.zeros(nu.size, int),
                    nu, box)[(1, -1).index(d)]) ** 2 for d in directions)
                return (-_weight_times_t(spec, box, model,
                                         branch is Branch.PROPAGATING, nu, t)
                        * csq * (omega + nu) / nu)

            def t_of(nu):
                return math.sqrt(max(s * (eps_mu * nu * nu - h * h), 0.0))

            t_a, t_b = t_of(s_lo), t_of(s_hi)
            sign = 1.0
            if t_a > t_b:
                t_a, t_b, sign = t_b, t_a, -1.0
            try:
                if s_lo < omega < s_hi:
                    t0 = math.sqrt(q)
                    piece = pv_integrate(
                        lambda t: numerator(t) / (t + t0), t0, t_a, t_b)
                else:
                    piece, _ = integrate(
                        lambda t: numerator(t) / (t * t - q), t_a, t_b)
            except ConvergenceError as err:
                # the message names the segment and the change reached
                last, previous = err.last, err.previous
                change = abs(last - previous) / max(abs(last), abs(previous),
                                                    1e-300)
                raise ConvergenceError(
                    f"{err} on the {mode.polarization.value}"
                    f"({mode.m},{mode.n}) {branch.value} segment over nu in "
                    f"[{s_lo:.6g}, {s_hi:.6g}], relative change {change:.2g}",
                    last=last, previous=previous) from None
            contributions.append((mode, branch, (s_lo, s_hi),
                                  -sign * float(piece) + 0.0))
    return contributions


def _demo(**atom_fields):
    cfg = load_config(DEMO)
    atom = cfg.atom()
    fields = {"position": atom.position, "dipole": atom.dipole,
              "transition_frequency": atom.transition_frequency}
    fields.update(atom_fields)
    return cfg, Atom(**fields)


def _assert_same(spec, atom, box, model, **kwargs):
    want = _previous_level_shift(spec, atom, box, model, **kwargs)
    got = level_shift(spec, atom, box, model, **kwargs)
    assert [(c.mode, c.branch, c.window, c.value)
            for c in got.contributions] == want
    assert got.value == math.fsum(c[3] for c in want)
    return got


def _demo_text(omega, dos):
    # demo.conf with its emitter frequency and state density replaced
    lines = [line for line in DEMO.read_text(encoding="utf-8").splitlines()
             if not line.startswith(("atom.omega", "models.dos"))]
    return "\n".join(lines + [f"atom.omega = {omega!r}",
                               f"models.dos = {dos}"]) + "\n"


def _sweep_cases():
    for dos in ("paper", "dispersion"):
        for omega in SWEEP_GRID:
            yield pytest.param(_demo_text(omega, dos),
                               id=f"{dos}-{omega:.4f}")


class TestBitIdentity:
    @pytest.mark.parametrize("config_text", _sweep_cases())
    def test_sweep_grid(self, config_text):
        cfg = parse_config(config_text)
        spec, atom, box = cfg.waveguide_spec(), cfg.atom(), cfg.box()
        rate = decay_rate(spec, atom, box, cfg.dos, max_index=cfg.max_mn)
        _assert_same(spec, atom, box, cfg.dos,
                     window=cfg.shift_window(rate.total),
                     max_index=cfg.max_mn)

    @pytest.mark.parametrize("model", list(DensityModel))
    def test_demo_emitter(self, model):
        cfg, atom = _demo()
        _assert_same(cfg.waveguide_spec(), atom, cfg.box(), model,
                     window=(0.9, 1.95), max_index=cfg.max_mn)

    @pytest.mark.parametrize("model", list(DensityModel))
    def test_complex_dipole_off_axis(self, model):
        # x and z components couple to TM patterns, and the direction
        # of travel enters through the TM slope
        cfg, atom = _demo(position=(1.1, 0.6, 0.0),
                          dipole=(0.3 + 0.1j, 0.05, 0.2 - 0.4j))
        got = _assert_same(cfg.waveguide_spec(), atom, cfg.box(), model,
                           window=(0.9, 2.6), max_index=cfg.max_mn)
        assert any(c.mode.polarization is Polarization.TM and c.value
                   for c in got.contributions)

    def test_atom_off_the_source_plane(self):
        cfg, atom = _demo(position=(1.1, 0.6, 0.7),
                          dipole=(0.3 + 0.1j, 0.05, 0.2 - 0.4j))
        _assert_same(cfg.waveguide_spec(), atom, cfg.box(),
                     DensityModel.GROUP_VELOCITY, window=(0.9, 2.6),
                     max_index=cfg.max_mn)

    @pytest.mark.parametrize("model", list(DensityModel))
    def test_guide_with_two_transverse_wavenumbers(self, model):
        # on this filled guide the shift's nu_c * n and the couplings'
        # hypot(kx, ky) differ by an ulp for TE(2,1) and TM(2,1); the
        # t <-> nu map must keep the former
        spec = WaveguideSpec(width=3.0, height=1.4, permittivity=2.25,
                             permeability=1.0)
        split = {ModeIndex(pol, 2, 1) for pol in Polarization}
        for mode in split:
            assert (cutoff_frequency(spec, mode) * spec.refractive_index
                    != transverse_wavenumber(spec, mode))
        atom = Atom(position=(1.1, 0.6, 0.3),
                    dipole=(0.3 + 0.1j, 0.05, 0.2 - 0.4j),
                    transition_frequency=1.45)
        got = _assert_same(spec, atom, QuantizationBox(length=1.0), model,
                           window=(0.9, 2.6))
        assert split <= {c.mode for c in got.contributions if c.value}

    def test_decaying_patterns_only(self):
        # every cutoff above the window: localized segments alone
        cfg, atom = _demo(position=(1.1, 0.6, 0.3),
                          dipole=(0.2, 0.1j, 0.3))
        modes = [ModeIndex(Polarization.TE, 3, 0),
                 ModeIndex(Polarization.TM, 2, 1),
                 ModeIndex(Polarization.TE, 1, 2)]
        got = _assert_same(cfg.waveguide_spec(), atom, cfg.box(),
                           DensityModel.PHASE_VELOCITY, window=(1.2, 1.7),
                           modes=modes)
        assert {c.branch for c in got.contributions} == {Branch.LOCALIZED}

    def test_refining_segments(self):
        # the dispersion emitter at the band's foot refines segments
        # past their opening rule, by five, four and four levels
        cfg = parse_config(_demo_text(0.86, "dispersion"))
        spec, atom, box = cfg.waveguide_spec(), cfg.atom(), cfg.box()
        rate = decay_rate(spec, atom, box, cfg.dos, max_index=cfg.max_mn)
        window = cfg.shift_window(rate.total)
        _assert_same(spec, atom, box, cfg.dos, window=window,
                     max_index=cfg.max_mn)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return couplings(*args, **kwargs)

        counts = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(emission, "couplings", counted)
            for shift in (_previous_level_shift, level_shift):
                calls.clear()
                shift(spec, atom, box, cfg.dos, window=window,
                      max_index=cfg.max_mn)
                counts.append(len(calls))
        # one call per integrand call and direction before (23
        # integrand calls); one per level of the deepest segment now
        assert counts == [28, 6]

    @pytest.mark.parametrize("omega, dos", [
        (1.45, "paper"), (1.45, "dispersion"), (0.86, "dispersion")])
    def test_one_row_per_call(self, omega, dos, monkeypatch):
        # the demo shift, and the emitter at the band's foot whose
        # segments refine, with the quadrature's node budget at one
        # row: a call per interval and level, and the same bits
        cfg = parse_config(_demo_text(omega, dos))
        spec, atom, box = cfg.waveguide_spec(), cfg.atom(), cfg.box()
        model = cfg.dos
        rate = decay_rate(spec, atom, box, model, max_index=cfg.max_mn)
        window = cfg.shift_window(rate.total)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return couplings(*args, **kwargs)

        monkeypatch.setattr(emission, "couplings", counted)
        runs = []
        for budget in (numerics._LEVEL_NODES, 1):
            monkeypatch.setattr(numerics, "_LEVEL_NODES", budget)
            calls.clear()
            got = level_shift(spec, atom, box, model, window=window,
                              max_index=cfg.max_mn)
            runs.append((len(calls), float.hex(got.value), [
                (c.mode, c.branch, c.window, float.hex(c.value))
                for c in got.contributions]))
        (whole, *want), (rows, *got) = runs
        assert got == want
        # at least one opening call per contribution's interval
        assert rows > whole and rows >= len(want[1])


def _rough(modes):
    """``couplings`` times a factor with cusps in frequency on the
    listed modes, so their segments never meet the stopping test;
    a factor of the mode and frequency alone, whatever the stacking."""

    def rough(chans, rows, frequencies, box):
        on = np.isin(rows, [j for j, m in enumerate(chans.modes)
                            if m in modes])
        factor = 1.0 + np.abs(np.sin(40.0 * frequencies)) ** 0.3
        return (couplings(chans, rows, frequencies, box)
                * np.where(on, factor, 1.0))

    return rough


class TestSameFirstError:
    SPEC_ATOM = dict(position=(1.1, 0.6, 0.0), dipole=(0.2, 0.1, 0.3j))

    def outcome(self, fn, **kwargs):
        cfg, atom = _demo(**self.SPEC_ATOM, **kwargs.pop("atom", {}))
        try:
            fn(cfg.waveguide_spec(), atom, cfg.box(),
               DensityModel.GROUP_VELOCITY, **kwargs)
        except (ConvergenceError, DomainError) as err:
            return (type(err), str(err), getattr(err, "last", None),
                    getattr(err, "previous", None))
        raise AssertionError("no error raised")

    def same(self, monkeypatch, rough_modes, **kwargs):
        monkeypatch.setattr(emission, "couplings", _rough(rough_modes))
        want = self.outcome(_previous_level_shift, **dict(kwargs))
        assert self.outcome(level_shift, **kwargs) == want
        return want

    def test_convergence_error_of_the_first_failing_segment(
            self, monkeypatch):
        # TE20 fails on both branches, TE10 refines normally; the
        # localized TE20 segment comes first
        err = self.same(monkeypatch, {TE20}, window=(0.9, 1.95),
                        modes=[TE10, TE20], atom={"transition_frequency":
                                                  1.3})
        assert err[0] is ConvergenceError and err[2] != err[3]

    def test_failing_principal_value_half(self, monkeypatch):
        err = self.same(monkeypatch, {TE10}, window=(0.9, 1.95),
                        modes=[TE20, TE10], atom={"transition_frequency":
                                                  1.3})
        assert err[0] is ConvergenceError

    def test_refused_segment_after_a_good_one(self, monkeypatch):
        # the transition sits on the TE20 cutoff, an edge of both of
        # its segments; TE10 before it converges
        nu_c = cutoff_frequency(load_config(DEMO).waveguide_spec(), TE20)
        err = self.same(monkeypatch, set(), window=(0.9, 1.95),
                        modes=[TE10, TE20],
                        atom={"transition_frequency": nu_c})
        assert err[0] is DomainError

    def test_refusal_before_a_failing_segment(self, monkeypatch):
        # TE10 before the refused TE20 segments would not converge; the
        # collision is refused before any integrand node, so its
        # ConvergenceError never arises
        nu_c = cutoff_frequency(load_config(DEMO).waveguide_spec(), TE20)
        nodes = []

        def counted(chans, rows, frequencies, box):
            nodes.extend(np.atleast_1d(frequencies).tolist())
            return _rough({TE10})(chans, rows, frequencies, box)

        monkeypatch.setattr(emission, "couplings", counted)
        err = self.outcome(level_shift, window=(0.9, 1.95),
                           modes=[TE10, TE20],
                           atom={"transition_frequency": nu_c})
        assert err[0] is DomainError
        assert "collides with the transition frequency" in err[1]
        assert nodes == []


class TestStackedChannels:
    """``decay_rate`` and ``build_bins`` take every mode and both
    directions from one ``couplings`` call."""

    def atom(self, z0=0.4):
        return Atom(position=(1.1, 0.6, z0),
                    dipole=(0.3 + 0.1j, 0.05, 0.2 - 0.4j),
                    transition_frequency=2.3)

    @pytest.mark.parametrize("model", list(DensityModel))
    def test_decay_channels_are_the_array_couplings(self, model,
                                                    monkeypatch):
        cfg = load_config(DEMO)
        spec, box, atom = cfg.waveguide_spec(), cfg.box(), self.atom()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return couplings(*args, **kwargs)

        monkeypatch.setattr(emission, "couplings", counted)
        res = decay_rate(spec, atom, box, model)
        assert len(calls) == 1
        assert {c.mode.polarization for c in res.channels} == \
            set(Polarization)
        for c in res.channels:
            chans = Channels(spec, atom, [c.mode])
            g = complex(couplings(chans, [0], [2.3], box)[
                (1, -1).index(c.direction), 0])
            assert c.coupling == g
            assert c.weight == float(continuum_weight(chans, [0], [2.3], box,
                                                      model)[0])
            assert c.rate == 2.0 * math.pi * c.weight * abs(g) ** 2
        assert res.total == math.fsum(c.rate for c in res.channels)

    @pytest.mark.parametrize("z0", [0.0, 0.4])
    def test_bins_match_per_mode_calls(self, z0, monkeypatch):
        cfg = load_config(DEMO)
        spec, box, atom = cfg.waveguide_spec(), cfg.box(), self.atom(z0)
        modes = [TE10, ModeIndex(Polarization.TM, 1, 1), TE20]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return couplings(*args, **kwargs)

        monkeypatch.setattr(emission, "couplings", counted)
        cells = build_bins(spec, atom, box, DensityModel.GROUP_VELOCITY,
                           window=(0.9, 2.9), count=57, modes=modes)
        assert len(calls) == 1
        centers = 0.9 + (np.arange(57) + 0.5) * (2.0 / 57)
        want = {}
        for mode in modes:
            g = couplings(Channels(spec, atom, [mode]), np.zeros(57, int),
                          centers, box)
            for d, row in zip((1, -1), g.tolist()):
                want.update(((mode, d, nu), c) for nu, c in
                            zip(centers.tolist(), row))
        assert cells.modes == tuple(modes)
        for row, d, nu, c in zip(cells.row.tolist(),
                                 cells.direction.tolist(),
                                 cells.frequency.tolist(),
                                 cells.coupling.tolist()):
            assert c == want[modes[row], d or 1, nu]
