"""Tests for single-photon normalization and dipole coupling.

The load-bearing oracle here is a brute-force quadrature of the mode
energy functional over the quantization volume; the closed-form
amplitudes must reproduce one quantum for every polarization and
branch combination. The array coupling ``couplings`` over a
``Channels`` table is checked against ``coupling_at``, which
normalizes the mode and samples its field point by point.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from wgqed.errors import DomainError
from wgqed.modes import (
    CUTOFF_REL_TOL,
    Branch,
    ModeIndex,
    Polarization,
    WaveguideSpec,
    cutoff_frequency,
    dispersion,
    field_at,
    transverse_wavenumber,
    transverse_wavenumbers,
)
from wgqed.quantize import (
    HBAR,
    Atom,
    Channels,
    DensityModel,
    QuantizationBox,
    continuum_weight,
    coupling_at,
    couplings,
    mode_overlap,
    normalize,
)

GUIDE = WaveguideSpec(width=math.pi, height=math.pi / 2.0)
BOX = QuantizationBox(length=1.0)
TE10 = ModeIndex(Polarization.TE, 1, 0)
TM11 = ModeIndex(Polarization.TM, 1, 1)


def _axis_nodes(lo, hi, panels, order):
    g, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * g[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def energy_by_quadrature(spec, mode, frequency, box, amplitude, z0=0.0):
    """(1/2) integral of (eps |E|^2 + mu |H|^2) over the quantization
    volume, by tensor-product Gauss-Legendre quadrature."""
    disp = dispersion(spec, mode, frequency)
    gx, wt = np.polynomial.legendre.leggauss(32)
    x = 0.5 * spec.width * (gx + 1.0)
    wxs = wt * 0.5 * spec.width
    y = 0.5 * spec.height * (gx + 1.0)
    wys = wt * 0.5 * spec.height
    if disp.branch is Branch.PROPAGATING:
        z, wz = _axis_nodes(0.0, box.length, 1, 8)
    else:
        # 14 attenuation lengths truncate the tail below 1e-12
        reach = 14.0 / disp.attenuation
        z_lo, w_lo = _axis_nodes(z0 - reach, z0, 20, 10)
        z_hi, w_hi = _axis_nodes(z0, z0 + reach, 20, 10)
        z = np.concatenate([z_lo, z_hi])
        wz = np.concatenate([w_lo, w_hi])
    grid_x, grid_y, grid_z = np.meshgrid(x, y, z, indexing="ij")
    pts = np.stack([grid_x, grid_y, grid_z], axis=-1)
    f = field_at(spec, mode, frequency, pts, amplitude=amplitude,
                 source_plane=z0)
    density = 0.5 * (
        spec.permittivity * np.sum(np.abs(f.electric) ** 2, axis=-1)
        + spec.permeability * np.sum(np.abs(f.magnetic) ** 2, axis=-1))
    return float(np.einsum("i,j,k,ijk->", wxs, wys, wz, density))


class TestNormalization:
    @pytest.mark.parametrize("mode,freq,z0", [
        (TM11, 4.0, 0.0),                           # TM propagating
        (TM11, 1.0, 0.3),                           # TM localized
        (TE10, 2.0, 0.0),                           # TE propagating, n=0
        (ModeIndex(Polarization.TE, 2, 1), 6.0, 0.0),
        (ModeIndex(Polarization.TE, 0, 1), 1.0, -0.4),  # TE localized, m=0
        (ModeIndex(Polarization.TE, 1, 1), 1.5, 0.0),   # TE localized
    ])
    def test_one_quantum_by_quadrature(self, mode, freq, z0):
        amp = normalize(GUIDE, mode, freq, BOX)
        energy = energy_by_quadrature(GUIDE, mode, freq, BOX, amp, z0=z0)
        assert energy == pytest.approx(HBAR * freq, rel=1e-10)

    def test_one_quantum_with_filling(self):
        filled = WaveguideSpec(width=math.pi, height=math.pi / 2.0,
                               permittivity=2.0, permeability=1.5)
        for mode, freq in ((TM11, 3.0), (TE10, 1.5), (TM11, 0.8)):
            amp = normalize(filled, mode, freq, BOX)
            energy = energy_by_quadrature(filled, mode, freq, BOX, amp)
            assert energy == pytest.approx(HBAR * freq, rel=1e-10)

    def test_te10_amplitude_value(self):
        # h = 1, medium wavenumber 2, area pi^2/2, one zero index
        assert normalize(GUIDE, TE10, 2.0, BOX) == pytest.approx(
            math.sqrt(2.0) / math.pi, rel=1e-13)

    def test_tm11_localized_amplitude_value(self):
        # attenuation 2, area pi^2/2
        assert normalize(GUIDE, TM11, 1.0, BOX) == pytest.approx(
            4.0 / math.pi, rel=1e-13)

    def test_tm_propagating_quartet_form(self):
        # for propagating TM modes the amplitude collapses to
        # 4 h^2 / (eps^2 mu freq L area)
        for spec in (GUIDE, WaveguideSpec(2.0, 1.0, 3.0, 0.5)):
            for mode in (TM11, ModeIndex(Polarization.TM, 2, 1)):
                freq = 2.5 * cutoff_frequency(spec, mode)
                h2 = dispersion(spec, mode, freq).transverse_wavenumber ** 2
                expected = (4.0 * HBAR * h2
                            / (spec.permittivity ** 2 * spec.permeability
                               * freq * BOX.length
                               * spec.cross_section_area))
                assert normalize(spec, mode, freq, BOX) ** 2 \
                    == pytest.approx(expected, rel=1e-13)

    def test_box_length_scaling(self):
        long_box = QuantizationBox(length=2.0)
        assert normalize(GUIDE, TE10, 2.0, long_box) == pytest.approx(
            normalize(GUIDE, TE10, 2.0, BOX) / math.sqrt(2.0))
        # localized amplitudes never see the box
        assert normalize(GUIDE, TM11, 1.0, long_box) == \
            normalize(GUIDE, TM11, 1.0, BOX)


class TestOverlap:
    COMMON_FREQ = 4.0

    @pytest.mark.parametrize("other", [
        ModeIndex(Polarization.TE, 2, 0),
        ModeIndex(Polarization.TE, 1, 1),
        ModeIndex(Polarization.TM, 1, 1),
        ModeIndex(Polarization.TM, 2, 1),
    ])
    def test_distinct_modes_orthogonal(self, other):
        val = mode_overlap(GUIDE, TE10, other, self.COMMON_FREQ)
        assert abs(val) < 1e-10

    def test_te_tm_same_indices_orthogonal(self):
        val = mode_overlap(GUIDE, ModeIndex(Polarization.TE, 1, 1),
                           TM11, self.COMMON_FREQ)
        assert abs(val) < 1e-10

    def test_same_mode_positive(self):
        val = mode_overlap(GUIDE, TE10, TE10, self.COMMON_FREQ)
        assert abs(val.imag) < 1e-12
        assert val.real > 0.0


class TestCoupling:
    def make_atom(self, x0=0.7, y0=0.5, z0=0.0, dip=(0.0, 0.3, 0.0),
                  freq=2.0):
        return Atom(position=(x0, y0, z0), dipole=dip,
                    transition_frequency=freq)

    def test_te10_transverse_dipole_magnitude(self):
        # |g| = dip * sqrt(2 freq / (hbar eps L area)) * |sin(pi x0 / a)|
        x0 = 0.7
        atom = self.make_atom(x0=x0)
        g = coupling_at(GUIDE, TE10, 2.0, atom, BOX)
        expected = 0.3 * math.sqrt(
            2.0 * 2.0 / (HBAR * GUIDE.permittivity * BOX.length
                         * GUIDE.cross_section_area)) * abs(math.sin(x0))
        assert abs(g) == pytest.approx(expected, rel=1e-12)

    def test_te10_null_components(self):
        # the lowest TE pattern has only a y electric component
        for dip in ((0.5, 0.0, 0.0), (0.0, 0.0, 0.5)):
            atom = self.make_atom(dip=dip)
            assert coupling_at(GUIDE, TE10, 2.0, atom, BOX) == 0.0

    def test_tm_axial_dipole_couples(self):
        atom = self.make_atom(dip=(0.0, 0.0, 0.4), freq=4.0)
        assert abs(coupling_at(GUIDE, TM11, 4.0, atom, BOX)) > 0.0

    def test_linearity_without_conjugation(self):
        a1 = self.make_atom(dip=(0.2, 0.1, 0.0))
        a2 = self.make_atom(dip=(0.0, 0.3, 0.5))
        both = self.make_atom(dip=(0.2, 0.4, 0.5))
        g1 = coupling_at(GUIDE, TM11, 4.0, a1, BOX)
        g2 = coupling_at(GUIDE, TM11, 4.0, a2, BOX)
        gb = coupling_at(GUIDE, TM11, 4.0, both, BOX)
        assert gb == pytest.approx(g1 + g2, rel=1e-12)
        scaled = self.make_atom(dip=(0.2j, 0.1j, 0.0))
        gs = coupling_at(GUIDE, TM11, 4.0, scaled, BOX)
        assert gs == pytest.approx(1j * g1, rel=1e-12)

    def test_axial_position_phase(self):
        beta = dispersion(GUIDE, TE10, 2.0).axial_wavenumber
        g0 = coupling_at(GUIDE, TE10, 2.0, self.make_atom(z0=0.0), BOX)
        g1 = coupling_at(GUIDE, TE10, 2.0, self.make_atom(z0=0.8), BOX)
        assert g1 / g0 == pytest.approx(np.exp(-1j * beta * 0.8), rel=1e-12)
        g1_back = coupling_at(GUIDE, TE10, 2.0, self.make_atom(z0=0.8),
                              BOX, direction=-1)
        g0_back = coupling_at(GUIDE, TE10, 2.0, self.make_atom(z0=0.0),
                              BOX, direction=-1)
        assert g1_back / g0_back == pytest.approx(np.exp(1j * beta * 0.8),
                                                  rel=1e-12)

    def test_below_cutoff_kink_centered(self):
        # by default the decaying profile is centered on the atom, so
        # the coupling has no axial falloff or phase
        freq = 0.5
        g_here = coupling_at(GUIDE, TE10, freq, self.make_atom(z0=0.0),
                             BOX)
        g_there = coupling_at(GUIDE, TE10, freq, self.make_atom(z0=5.0),
                              BOX)
        assert g_there == pytest.approx(g_here, rel=1e-12)
        disp = dispersion(GUIDE, TE10, freq)
        amp = normalize(GUIDE, TE10, freq, BOX)
        expected = 0.3 * freq * GUIDE.permeability * amp * math.sin(0.7)
        assert abs(g_here) == pytest.approx(expected, rel=1e-12)

    def test_atom_outside_rejected(self):
        atom = Atom(position=(5.0, 0.5, 0.0), dipole=(0.0, 0.3, 0.0),
                    transition_frequency=2.0)
        with pytest.raises(DomainError):
            coupling_at(GUIDE, TE10, 2.0, atom, BOX)

    def test_atom_validation(self):
        with pytest.raises(DomainError):
            Atom(position=(1.0, 0.5), dipole=(0.0, 0.3, 0.0),
                 transition_frequency=2.0)
        with pytest.raises(DomainError):
            Atom(position=(1.0, 0.5, 0.0), dipole=(0.0, 0.3, 0.0),
                 transition_frequency=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_box_length_refused(self, bad):
        # an infinite box gave a NaN total decay rate; a NaN one was
        # refused only later, as a one-quantum amplitude not finite
        with pytest.raises(DomainError, match="must be finite"):
            QuantizationBox(length=bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_box_length_not_above_zero_refused(self, bad):
        with pytest.raises(DomainError) as info:
            QuantizationBox(bad)
        assert str(info.value) == "box length must be positive"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_transition_frequency_refused(self, bad):
        # NaN passed the positivity test and gave a zero decay rate
        with pytest.raises(DomainError, match="finite"):
            Atom(position=(1.0, 0.5, 0.0), dipole=(0.0, 0.3, 0.0),
                 transition_frequency=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["position", "dipole"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_position_and_dipole_refused(self, axis, field, bad):
        # z0 = nan or inf, or a nan dipole component, gave a nan total
        # decay rate, later blamed on the root finder's convergence
        parts = {"position": [1.0, 0.5, 0.0], "dipole": [0.0, 0.3, 0.0]}
        cases = [bad] if field == "position" else [bad, complex(0.2, bad)]
        for value in cases:
            parts[field][axis] = value
            with pytest.raises(DomainError, match=f"{field}.* finite"):
                Atom(position=tuple(parts["position"]),
                     dipole=tuple(parts["dipole"]), transition_frequency=2.0)


def filled_guides():
    widths = st.floats(min_value=0.5, max_value=5.0)
    fracs = st.floats(min_value=0.2, max_value=1.0)
    mats = st.floats(min_value=0.25, max_value=4.0).filter(
        lambda v: v != 1.0)
    return st.builds(
        lambda w, f, e, m: WaveguideSpec(width=w, height=w * f,
                                         permittivity=e, permeability=m),
        widths, fracs, mats, mats)


# TE and TM, with and without a zero index
MODES = [ModeIndex(Polarization.TE, m, n) for m, n in
         ((1, 0), (0, 1), (2, 0), (1, 1), (2, 3))] + \
        [ModeIndex(Polarization.TM, m, n) for m, n in
         ((1, 1), (2, 1), (1, 3))]

# frequencies relative to the cutoff: both branches, and the first
# points outside the degeneracy band on either side
CUTOFF_FRACTIONS = (0.05, 0.4, 0.9, 0.999, 1.0 - 3.0 * CUTOFF_REL_TOL,
                    1.0 + 3.0 * CUTOFF_REL_TOL, 1.001, 1.3, 2.5, 7.0)


def one_mode(spec, mode, frequencies, atom, box):
    """Both directions' couplings of one mode over a frequency array."""
    nu = np.asarray(frequencies, dtype=float).ravel()
    return couplings(Channels(spec, atom, [mode]), np.zeros(nu.size, int),
                     nu, box)


def weights(spec, mode, frequencies, box, model, atom=None):
    """Continuum weights of one mode over a frequency array."""
    atom = atom or Atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.0),
                        transition_frequency=1.0)
    nu = np.asarray(frequencies, dtype=float).ravel()
    return continuum_weight(Channels(spec, atom, [mode]),
                            np.zeros(nu.size, int), nu, box, model)


class TestCouplingsArray:
    @given(filled_guides(),
           st.sampled_from(MODES),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=-3.0, max_value=3.0).filter(
               lambda z: z != 0.0),
           st.lists(st.complex_numbers(min_magnitude=0.05,
                                       max_magnitude=2.0,
                                       allow_nan=False,
                                       allow_infinity=False),
                    min_size=3, max_size=3),
           st.floats(min_value=0.3, max_value=3.0))
    def test_matches_pointwise_definition(self, spec, mode, x_frac,
                                          y_frac, z0, dipole, box_length):
        atom = Atom(position=(x_frac * spec.width, y_frac * spec.height,
                              z0),
                    dipole=tuple(dipole), transition_frequency=1.0)
        box = QuantizationBox(length=box_length)
        nu = cutoff_frequency(spec, mode) * np.array(CUTOFF_FRACTIONS)
        got = one_mode(spec, mode, nu, atom, box)
        assert got.shape == (2, nu.size)
        for row, direction in zip(got, (1, -1)):
            want = np.array([coupling_at(spec, mode, float(f), atom, box,
                                         direction=direction)
                             for f in nu])
            scale = float(np.max(np.abs(want)))
            assert scale > 0.0
            assert np.max(np.abs(row - want)) <= 1e-13 * scale

    def test_scalar_frequency(self):
        # one node per channel, as the decay rate asks for them
        atom = Atom(position=(0.7, 0.5, 0.3), dipole=(0.1, 0.3j, 0.2),
                    transition_frequency=2.0)
        for freq in (0.5, 4.0):
            got = one_mode(GUIDE, TM11, [freq], atom, BOX)
            assert got.shape == (2, 1)
            for g, direction in zip(got[:, 0].tolist(), (1, -1)):
                assert g == pytest.approx(
                    coupling_at(GUIDE, TM11, freq, atom, BOX,
                                direction=direction), rel=1e-13)

    def test_frequency_in_degeneracy_band(self):
        atom = Atom(position=(0.7, 0.5, 0.0), dipole=(0.0, 0.3, 0.0),
                    transition_frequency=2.0)
        nu_c = cutoff_frequency(GUIDE, TE10)
        with pytest.raises(DomainError, match="degenerate with the cutoff"):
            one_mode(GUIDE, TE10, [0.5, nu_c * (1.0 + 0.5e-12), 2.0],
                     atom, BOX)
        # the message names the channel the node belongs to, past a
        # channel without nodes
        chans = Channels(GUIDE, atom, [TM11, TE10, TE10])
        with pytest.raises(DomainError, match=r"of TE\(1,0\)$"):
            couplings(chans, [0, 2, 2], [4.0, 2.0, nu_c], BOX)

    def test_overflowing_amplitude_names_its_mode(self):
        # permeability 1e-300 overflows hbar * nu / mu below cutoff;
        # the refusal names the channel past one without nodes, and no
        # NaN coupling or numpy warning comes first
        spec = WaveguideSpec(width=math.pi, height=math.pi / 2.0,
                             permeability=1e-300)
        atom = Atom(position=(1.5, 0.7, 0.0), dipole=(0.0, 0.3, 0.0),
                    transition_frequency=1.45)
        nu_c = cutoff_frequency(spec, TE10)
        chans = Channels(spec, atom, [TM11, TE10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match=r"amplitude of TE\(1,0\) is not "
                                     r"finite at frequency"):
                couplings(chans, [1, 1], [0.4 * nu_c, 0.9 * nu_c], BOX)

    @pytest.mark.parametrize("bad", [0.0, -1.5])
    def test_non_positive_frequency(self, bad):
        atom = Atom(position=(0.7, 0.5, 0.0), dipole=(0.0, 0.3, 0.0),
                    transition_frequency=2.0)
        with pytest.raises(DomainError, match="positive"):
            one_mode(GUIDE, TE10, [2.0, bad], atom, BOX)

    def test_atom_outside_rejected(self):
        atom = Atom(position=(5.0, 0.5, 0.0), dipole=(0.0, 0.3, 0.0),
                    transition_frequency=2.0)
        with pytest.raises(DomainError, match="outside"):
            Channels(GUIDE, atom, [TE10])

    @given(filled_guides(),
           st.lists(st.tuples(st.sampled_from(MODES),
                              st.integers(min_value=0, max_value=10)),
                    min_size=1, max_size=5),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=-3.0, max_value=3.0),
           st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                       allow_infinity=False),
                    min_size=3, max_size=3))
    @example(GUIDE, [(TE10, 10), (TM11, 3), (TE10, 0), (TM11, 10)], 0.4,
             0.7, [0.2, 0.1j, 0.3 - 0.2j])
    def test_stack_is_the_per_mode_calls(self, spec, rows, x_frac, z0,
                                         dipole):
        # a table of mixed TE/TM channels, modes possibly repeated and
        # channels possibly without nodes (a refinement level whose
        # segments are all accepted for them), gives each channel's
        # own couplings bit for bit, and the per-point definition
        atom = Atom(position=(x_frac * spec.width, 0.3 * spec.height, z0),
                    dipole=tuple(dipole), transition_frequency=1.0)
        modes = [mode for mode, _ in rows]
        grids = [cutoff_frequency(spec, m) * np.array(CUTOFF_FRACTIONS[i:])
                 for m, i in rows]
        node_rows = np.repeat(np.arange(len(grids)), [g.size for g in grids])
        got = couplings(Channels(spec, atom, modes), node_rows,
                        np.concatenate(grids + [np.empty(0)]), BOX)
        assert got.shape == (2, node_rows.size)
        want = np.concatenate([one_mode(spec, m, g, atom, BOX)
                               for m, g in zip(modes, grids)], axis=1)
        assert np.array_equal(got, want)
        for row, d in zip(got, (1, -1)):
            point = np.array([coupling_at(spec, m, f, atom, BOX,
                                          direction=d)
                              for m, g in zip(modes, grids)
                              for f in g.tolist()])
            scale = max(float(np.max(np.abs(point), initial=0.0)), 1e-300)
            assert np.max(np.abs(row - point), initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize("z0", [0.0, 0.7])
    def test_node_order_is_free(self, z0):
        # each node names its channel, so shuffling the nodes together
        # with their rows shuffles the couplings and weights, bit for
        # bit, on both branches and both polarizations
        atom = Atom(position=(0.7, 0.5, z0), dipole=(0.2, 0.3j, 0.1 - 0.4j),
                    transition_frequency=2.0)
        chans = Channels(GUIDE, atom, MODES)
        rows = np.repeat(np.arange(len(MODES)), len(CUTOFF_FRACTIONS))
        nu = (chans.cutoff[:, None] * CUTOFF_FRACTIONS).ravel()
        perm = np.random.default_rng(7).permutation(rows.size)
        assert np.array_equal(couplings(chans, rows[perm], nu[perm], BOX),
                              couplings(chans, rows, nu, BOX)[:, perm])
        perm = np.random.default_rng(8).permutation(rows.size)
        for model in DensityModel:
            assert np.array_equal(
                continuum_weight(chans, rows[perm], nu[perm], BOX, model),
                continuum_weight(chans, rows, nu, BOX, model)[perm])


def reference_table(spec, atom, modes):
    """``Channels``' columns and cutoffs built afresh, mode by mode."""
    table = np.array([(*transverse_wavenumbers(spec, m),
                       transverse_wavenumber(spec, m),
                       m.polarization is Polarization.TM,
                       (1 if m.m == 0 else 2) * (1 if m.n == 0 else 2),
                       spec.permittivity
                       if m.polarization is Polarization.TM
                       else spec.permeability)
                      for m in modes], dtype=float).reshape(-1, 6).T
    at = table[:2] * np.array(atom.position[:2])[:, None]
    return (np.concatenate((table, np.sin(at), np.cos(at))),
            table[2] / spec.refractive_index)


class TestChannelTable:
    SPEC = WaveguideSpec(width=2.3, height=0.7, permittivity=2.1,
                         permeability=1.3)

    def test_signed_zero_positions_keep_their_own_tables(self):
        # sin(kx * x0) carries the sign of x0 = +-0.0, and +0.0 ==
        # -0.0, so a table taken from the other corner would pass an
        # equality check with the wrong sign bits; visit the four
        # corners at the origin twice, in two orders
        modes = [TE10, ModeIndex(Polarization.TE, 0, 1), TM11]
        corners = [(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        for x0, y0 in corners + corners[::-1]:
            atom = Atom(position=(x0, y0, 0.0), dipole=(0.0, 0.3, 0.0),
                        transition_frequency=2.0)
            chans = Channels(self.SPEC, atom, modes)
            columns, cutoff = reference_table(self.SPEC, atom, modes)
            assert chans.columns.tobytes() == columns.tobytes()
            assert chans.cutoff.tobytes() == cutoff.tobytes()
            signs = np.signbit(chans.columns[6:8])
            assert (signs == [[math.copysign(1.0, x0) < 0.0],
                              [math.copysign(1.0, y0) < 0.0]]).all()

    @given(st.lists(st.sampled_from(MODES), max_size=4),
           st.sampled_from([0.0, -0.0, 0.3, 1, 2.3]),
           st.sampled_from([0.0, -0.0, 0.45, 0.7]))
    def test_matches_a_fresh_build(self, modes, x0, y0):
        atom = Atom(position=(x0, y0, 1.0), dipole=(0.0, 0.3, 0.0),
                    transition_frequency=2.0)
        columns, cutoff = reference_table(self.SPEC, atom, modes)
        for _ in range(2):
            chans = Channels(self.SPEC, atom, modes)
            assert chans.columns.shape == columns.shape
            assert chans.columns.tobytes() == columns.tobytes()
            assert chans.cutoff.tobytes() == cutoff.tobytes()

    def test_arrays_are_read_only(self):
        atom = Atom(position=(0.7, 0.5, 0.0), dipole=(0.0, 0.3, 0.0),
                    transition_frequency=2.0)
        chans = Channels(GUIDE, atom, [TE10, TM11])
        with pytest.raises(ValueError):
            chans.columns[0, 0] = 1.0
        with pytest.raises(ValueError):
            chans.columns *= 2.0
        with pytest.raises(ValueError):
            chans.cutoff[1] = 0.5
        columns, cutoff = reference_table(GUIDE, atom, [TE10, TM11])
        again = Channels(GUIDE, atom, [TE10, TM11])
        assert again.columns.tobytes() == columns.tobytes()
        assert again.cutoff.tobytes() == cutoff.tobytes()


class TestContinuumWeight:
    def test_phase_velocity_model(self):
        w = weights(GUIDE, TE10, [2.0], BOX, DensityModel.PHASE_VELOCITY)
        assert w.tolist() == pytest.approx([1.0 / (2.0 * math.pi)])

    def test_group_velocity_model(self):
        beta = dispersion(GUIDE, TE10, 2.0).axial_wavenumber
        w = weights(GUIDE, TE10, [2.0], BOX, DensityModel.GROUP_VELOCITY)
        assert w.tolist() == pytest.approx([2.0 / (2.0 * math.pi * beta)])

    def test_group_velocity_diverges_toward_cutoff(self):
        near, far = weights(GUIDE, TE10, [1.0 + 1e-6, 2.0], BOX,
                            DensityModel.GROUP_VELOCITY)
        assert near > 100.0 * far

    def test_localized_unit_measure(self):
        # decaying profiles are normalized per unit frequency, so their
        # nodes weigh d(nu) under either model, beside the model's
        # weights on the traveling nodes of the same call
        atom = Atom(position=(0.7, 0.5, 0.0), dipole=(0.0, 0.3, 0.0),
                    transition_frequency=2.0)
        chans = Channels(GUIDE, atom, [TM11, TE10])
        for model in DensityModel:
            assert weights(GUIDE, TE10, [0.5], BOX, model).tolist() == [1.0]
            mixed = continuum_weight(chans, [0, 1, 1, 1],
                                     [4.0, 2.0, 0.5, 3.0], BOX, model)
            assert mixed.tolist() == [
                *weights(GUIDE, TM11, [4.0], BOX, model).tolist(),
                *weights(GUIDE, TE10, [2.0], BOX, model).tolist(), 1.0,
                *weights(GUIDE, TE10, [3.0], BOX, model).tolist()]

    def test_array_matches_scalar_bit_for_bit(self):
        # a table of channels over many nodes reproduces one-node calls
        # exactly, and those the dispersion-based definition, so the
        # artifacts built on either path carry the same bytes
        box = QuantizationBox(length=2.3)
        atom = Atom(position=(0.7, 0.5, 0.0), dipole=(0.0, 0.3, 0.0),
                    transition_frequency=2.0)
        grids = [cutoff_frequency(GUIDE, mode)
                 * np.linspace(1.0 + 1e-9, 40.0, 301) for mode in MODES]
        chans = Channels(GUIDE, atom, MODES)
        eps_mu = GUIDE.permittivity * GUIDE.permeability
        for model in DensityModel:
            table = continuum_weight(
                chans, np.repeat(np.arange(len(grids)),
                                 [g.size for g in grids]),
                np.concatenate(grids), box, model)
            singles = [w for mode, nus in zip(MODES, grids)
                       for nu in nus.tolist()
                       for w in weights(GUIDE, mode, [nu], box,
                                        model).tolist()]
            assert table.tolist() == singles
        for mode, nus, ws in zip(MODES, grids, np.split(
                table, np.cumsum([g.size for g in grids])[:-1])):
            for nu, w in zip(nus.tolist(), ws.tolist()):
                beta = dispersion(GUIDE, mode, nu).axial_wavenumber
                assert w == box.length * eps_mu * nu / (2.0 * math.pi
                                                         * beta)

    def test_coupling_weight_product_box_invariant(self):
        # physical rates combine |g|^2 with the state density; the
        # box length must drop out of that product
        atom = Atom(position=(0.7, 0.5, 0.0), dipole=(0.0, 0.3, 0.0),
                    transition_frequency=2.0)
        for model in DensityModel:
            products = []
            for length in (1.0, 2.3):
                box = QuantizationBox(length=length)
                g = coupling_at(GUIDE, TE10, 2.0, atom, box)
                w = float(weights(GUIDE, TE10, [2.0], box, model)[0])
                products.append(abs(g) ** 2 * w)
            assert products[0] == pytest.approx(products[1], rel=1e-13)


class TestModelAsymptotics:
    def test_models_agree_far_above_cutoff(self):
        # the dispersion Jacobian flattens to the bulk value high in
        # the band
        nu = 50.0 * cutoff_frequency(GUIDE, TE10)
        phase, = weights(GUIDE, TE10, [nu], BOX,
                         DensityModel.PHASE_VELOCITY)
        group, = weights(GUIDE, TE10, [nu], BOX,
                         DensityModel.GROUP_VELOCITY)
        assert group / phase == pytest.approx(1.0, abs=1e-2)
        assert group > phase
