"""The one axial dispersion relation against the two copies it replaced.

``wgqed.modes.axial_relation`` is the only place the relation
eps*mu*nu^2 = h^2 +- t^2 is solved and refused. ``axial_oracle`` keeps
the scalar ``dispersion`` and the array ``_axial`` that wrote it
before, verbatim. Over seeded guides from 1e-100 to 1e100 in scale and
frequencies on both branches, down to 1e-9 relative of a cutoff and
into its degeneracy band, the new relation must give the same bits
(``float.hex``) and the same refusal texts; and ``couplings``,
``continuum_weight`` and ``build_bins`` on demo.conf must give the same
bits with either relation underneath. The one change is a guide so
wide that h^2 underflows, which every array caller now refuses as
``dispersion`` always did.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import axial_oracle
from wgqed import quantize
from wgqed.config import load_config
from wgqed.errors import DomainError
from wgqed.emission import build_bins, level_shift
from wgqed.modes import (
    TE10,
    ModeIndex,
    Polarization,
    WaveguideSpec,
    axial_relation,
    cutoff_frequency,
    dispersion,
    modes_below,
    transverse_wavenumber,
)
from wgqed.quantize import (
    Atom,
    Channels,
    DensityModel,
    QuantizationBox,
    continuum_weight,
    couplings,
)

DEMO = load_config(str(Path(__file__).resolve().parent.parent
                       / "configs" / "demo.conf"))
BOX = QuantizationBox(length=1.0)
MODES = (TE10, ModeIndex(Polarization.TE, 0, 1),
         ModeIndex(Polarization.TE, 2, 1), ModeIndex(Polarization.TM, 1, 1),
         ModeIndex(Polarization.TM, 3, 2), ModeIndex(Polarization.TE, 0, 5))
# relative offsets from a cutoff: outside, at the edge of and inside
# the CUTOFF_REL_TOL = 1e-12 degeneracy band
NEAR_CUTOFF = (1e-9, -1e-9, 1.001e-12, -1.001e-12, 0.999e-12, -0.999e-12,
               1e-13, 0.0)
SCALES = (1e-100, 1.0, 1e100)


def seeded_guide(seed, scale):
    rng = np.random.default_rng(seed)
    width = scale * rng.uniform(0.5, 3.0)
    return WaveguideSpec(width=width, height=width * rng.uniform(0.1, 1.0),
                         permittivity=rng.uniform(1.0, 4.0),
                         permeability=rng.uniform(1.0, 2.0))


def frequencies(seed, spec, mode):
    """Both branches well away from the cutoff, the cutoff's near
    neighbourhood and degeneracy band, and the refused and non-finite
    values."""
    nu_c = cutoff_frequency(spec, mode)
    far = nu_c * np.random.default_rng(seed).uniform(0.01, 5.0, 6)
    near = [nu_c * (1.0 + rel) for rel in NEAR_CUTOFF]
    return [*far.tolist(), *near, 0.0, -nu_c, math.inf, math.nan]


def outcome(call):
    """Every float of the result as ``float.hex`` (anything else as
    is), or the refusal text."""
    try:
        result = call()
    except DomainError as err:
        return "refused: " + str(err)

    def bits(value):
        if isinstance(value, np.ndarray):
            return [bits(v) for v in value.tolist()]
        if isinstance(value, complex):
            return value.real.hex(), value.imag.hex()
        return float.hex(value) if isinstance(value, float) else value
    return [bits(value) for value in result]


GUIDES = [(seed, scale) for scale in SCALES for seed in range(3)]


@pytest.mark.parametrize("seed,scale", GUIDES)
@pytest.mark.parametrize(
    "mode", MODES, ids=lambda m: f"{m.polarization.value}{m.m}{m.n}")
def test_dispersion_matches_the_scalar_copy(seed, scale, mode):
    spec = seeded_guide(seed, scale)
    for nu in frequencies(seed, spec, mode):
        assert (outcome(lambda: dispersion(spec, mode, nu))
                == outcome(lambda: axial_oracle.dispersion(spec, mode, nu)))


def test_wide_guide_dispersion_refusal_unchanged():
    spec = WaveguideSpec(width=1e200, height=1e199)
    assert outcome(lambda: dispersion(spec, TE10, 1.0)) == outcome(
        lambda: axial_oracle.dispersion(spec, TE10, 1.0)) == (
        "refused: " + TestWideGuide.TEXT)


def channel_nodes(seed, spec):
    """Channels of MODES at an interior atom, with node rows and
    frequencies: every row's frequencies, shuffled."""
    chans = Channels(spec, Atom((0.37 * spec.width, 0.61 * spec.height,
                                 0.0), (0.0, 1.0, 0.0), 1.0), MODES)
    pairs = [(row, nu) for row, mode in enumerate(MODES)
             for nu in frequencies(seed, spec, mode)]
    order = np.random.default_rng(seed).permutation(len(pairs))
    rows, nus = zip(*(pairs[i] for i in order))
    return chans, np.array(rows), np.array(nus)


@pytest.mark.parametrize("seed,scale", GUIDES)
def test_axial_relation_matches_the_array_copy(seed, scale):
    spec = seeded_guide(seed, scale)
    chans, rows, nus = channel_nodes(seed, spec)
    h = chans.columns[2, rows]

    def both(keep):
        return (outcome(lambda: axial_relation(spec, MODES, rows[keep],
                                               h[keep], nus[keep])),
                outcome(lambda: axial_oracle._axial(chans, rows[keep],
                                                    nus[keep], h[keep])))
    # every node at once refuses the first bad one, in the same words
    new, old = both(slice(None))
    assert new == old and new.startswith("refused: frequency must be")
    positive = nus > 0.0
    new, old = both(positive)
    assert new == old and " is degenerate with the cutoff " in new
    # the nodes the scalar copy accepts give the same bits in both, and
    # the scalar copy's bits node by node
    scalar = [outcome(lambda: axial_oracle.dispersion(spec, MODES[row], nu))
              for row, nu in zip(rows.tolist(), nus.tolist())]
    clear = np.array([not isinstance(one, str) for one in scalar])
    new, old = both(clear)
    assert new == old
    for one, freq, nu, k, above, t in zip(
            (one for one in scalar if not isinstance(one, str)),
            nus[clear].tolist(), *new):
        # frequency, k and the axial wavenumber or attenuation
        assert [nu, k, t] == [float.hex(freq), one[1],
                              one[3] if above else one[4]]


def demo_channels():
    spec, atom = DEMO.waveguide_spec(), DEMO.atom()
    listing = modes_below(spec, 3.0, max_index=DEMO.max_mn)
    # two patterns above the top node, decaying everywhere
    return spec, atom, Channels(spec, atom, listing + [
        ModeIndex(Polarization.TM, 3, 3), ModeIndex(Polarization.TE, 5, 0)])


def with_the_copy(monkeypatch, chans):
    """Route ``quantize``'s relation through the array copy."""
    def old(spec, modes, rows, h, frequencies):
        assert spec is chans.spec and modes == chans.modes
        return axial_oracle._axial(chans, rows, frequencies, h)
    monkeypatch.setattr(quantize, "axial_relation", old)


@pytest.mark.parametrize("model", list(DensityModel))
def test_demo_couplings_and_weights_bit_equal(monkeypatch, model):
    spec, atom, chans = demo_channels()
    rng = np.random.default_rng(4040)
    rows = rng.integers(0, len(chans.modes), 400)
    nus = rng.uniform(0.05, 3.0, 400)

    def run():
        return (outcome(lambda: couplings(chans, rows, nus, DEMO.box()))
                + outcome(lambda: [continuum_weight(chans, rows, nus,
                                                    DEMO.box(), model)]))
    new = run()
    assert isinstance(new, list) and "nan" not in str(new)
    with_the_copy(monkeypatch, chans)
    assert run() == new


@pytest.mark.parametrize("model", list(DensityModel))
def test_demo_build_bins_bit_equal(monkeypatch, model):
    spec, atom, chans = demo_channels()

    def run():
        cells = build_bins(spec, atom, DEMO.box(), model,
                           window=(0.3, 2.9), count=173, modes=chans.modes)
        return outcome(lambda: cells[1:6]) + [cells.width.hex()]
    new = run()
    with_the_copy(monkeypatch, chans)
    assert run() == new


class TestWideGuide:
    """A 1e200 x 1e199 guide: TE(1,0)'s h^2 ~ 1e-399 underflows."""

    SPEC = WaveguideSpec(width=1e200, height=1e199)
    ATOM = Atom((0.5e200, 0.25e199, 0.0), (0.0, 0.1, 0.0), 1.0)
    TEXT = ("the squared transverse wavenumber of TE(1,0) underflows to "
            "zero; the guide is too wide")

    def test_h_squared_underflows(self):
        assert transverse_wavenumber(self.SPEC, TE10) ** 2 == 0.0

    def test_couplings_refused(self):
        chans = Channels(self.SPEC, self.ATOM, [TE10])
        with pytest.raises(DomainError) as info:
            couplings(chans, [0], [1.0], BOX)
        assert str(info.value) == self.TEXT

    def test_build_bins_refused(self):
        with pytest.raises(DomainError) as info:
            build_bins(self.SPEC, self.ATOM, BOX,
                       DensityModel.PHASE_VELOCITY, window=(0.5, 2.0),
                       count=4, modes=[TE10])
        assert str(info.value) == self.TEXT

    @pytest.mark.parametrize("model", list(DensityModel))
    def test_level_shift_refused(self, model):
        with pytest.raises(DomainError) as info:
            level_shift(self.SPEC, self.ATOM, BOX, model,
                        window=(0.5, 2.0), modes=[TE10])
        assert str(info.value) == self.TEXT
