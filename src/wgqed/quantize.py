"""Single-photon normalization of guide modes and dipole coupling.

Field operators are expanded as E = sum_modes (E_mode a + conj(E_mode)
a+), and the classical mode energy functional

    U = (1/2) * integral over the quantization volume of
        (permittivity |E|^2 + permeability |H|^2)

is pinned to one quantum, U = HBAR * frequency. Propagating modes live
in an axial box of length ``QuantizationBox.length`` with one state
per direction of travel; modes below cutoff carry the two-sided
decaying profile whose axial norm integrates to 1/attenuation, one
state per transverse pattern.

Closed-form amplitudes here were checked against direct quadrature of
the energy functional for every polarization and branch combination;
the factor-of-two bookkeeping for patterns with a zero index (uniform
along one transverse axis) comes out of that check, not out of per
polarization special cases.

The dipole coupling has two forms. ``coupling_at`` is the per-point
definition: it normalizes the mode and samples its field at the atom,
and the tests use it as the reference. ``couplings`` is the
computational path: the same quantity in closed form, in both
directions of travel, over frequency nodes that each name their row of
a ``Channels`` table of per-mode constants. ``continuum_weight`` reads
the same table; both gather its columns by those rows, so the nodes
may come in any order.

``continuum_weight`` is the one continuum measure of the chain: the
density model's states per unit frequency above cutoff, and the unit
measure d(nu) on the decaying profiles, which are normalized per unit
frequency already. ``_weight_times_t`` is the same measure times the
axial variable, in closed form, for the level shift's integrals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .modes import (
    Branch,
    ModeIndex,
    Polarization,
    WaveguideSpec,
    axial_relation,
    dispersion,
    field_at,
    transverse_wavenumber,
    transverse_wavenumbers,
)
from .numerics import _gl_nodes

# natural units throughout
HBAR = 1.0

# decaying profiles are normalized per unit frequency already, so
# their continuum measure is plain d(nu)
_LOCALIZED_UNIT_WEIGHT = 1.0


class DensityModel(Enum):
    """How the axial state sum is converted to a frequency integral.

    PHASE_VELOCITY
        Per-direction weight length*sqrt(eps*mu)/(2*pi): the state
        count is taken with the bulk medium index alone, which ignores
        the flattening of the guided dispersion near cutoff.
    GROUP_VELOCITY
        Per-direction weight length*eps*mu*frequency /
        (2*pi*axial_wavenumber): the exact Jacobian of the guided
        dispersion relation, divergent toward cutoff.
    """

    PHASE_VELOCITY = "paper"
    GROUP_VELOCITY = "dispersion"


@dataclass(frozen=True)
class QuantizationBox:
    """Axial normalization length for propagating modes."""

    length: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.length):
            raise DomainError("box length must be finite")
        if self.length <= 0.0:
            raise DomainError("box length must be positive")


@dataclass(frozen=True)
class Atom:
    """Two-level emitter inside the guide.

    position
        Cartesian (x, y, z), finite; the transverse part must lie
        inside the cross section.
    dipole
        Complex transition dipole vector with finite components.
    transition_frequency
        Angular frequency of the bare transition, positive and finite.
    """

    position: tuple
    dipole: tuple
    transition_frequency: float

    def __post_init__(self):
        if len(self.position) != 3 or len(self.dipole) != 3:
            raise DomainError("position and dipole must have 3 components")
        if not all(map(math.isfinite, self.position)):
            raise DomainError("atom position must be finite")
        if not all(map(cmath.isfinite, self.dipole)):
            raise DomainError("dipole components must be finite")
        if not math.isfinite(self.transition_frequency):
            raise DomainError("transition frequency must be finite")
        if self.transition_frequency <= 0.0:
            raise DomainError("transition frequency must be positive")

    def position_array(self) -> np.ndarray:
        return np.asarray(self.position, dtype=float)

    def dipole_array(self) -> np.ndarray:
        return np.asarray(self.dipole, dtype=complex)

    def check_inside(self, spec: WaveguideSpec):
        spec.check_in_cross_section("atom transverse position",
                                    self.position)


def _index_weight(mode: ModeIndex) -> int:
    # each nonzero index halves the transverse average of its squared
    # trig factor, which doubles the amplitude needed for one quantum
    cm = 1 if mode.m == 0 else 2
    cn = 1 if mode.n == 0 else 2
    return cm * cn


def _polarization_constant(spec: WaveguideSpec, mode: ModeIndex) -> float:
    # the material constant of the defining axial field's energy term
    if mode.polarization is Polarization.TM:
        return spec.permittivity
    return spec.permeability


def normalize(spec: WaveguideSpec, mode: ModeIndex, frequency: float,
              box: QuantizationBox) -> float:
    """Amplitude of the defining axial component (E_z for TM, H_z for
    TE) that puts exactly one quantum of energy in the mode.
    """
    disp = dispersion(spec, mode, frequency)
    h2 = disp.transverse_wavenumber ** 2
    area = spec.cross_section_area
    pol_const = _polarization_constant(spec, mode)
    if disp.branch is Branch.PROPAGATING:
        axial_norm = box.length
        pattern = disp.medium_wavenumber ** 2
    else:
        axial_norm = 1.0 / disp.attenuation
        pattern = h2
    amp_sq = (HBAR * frequency * h2 * _index_weight(mode)
              / (pol_const * area * pattern * axial_norm))
    return math.sqrt(amp_sq)


def coupling_at(spec: WaveguideSpec, mode: ModeIndex, frequency: float,
                atom: Atom, box: QuantizationBox, *,
                direction: int = 1) -> complex:
    """Dipole coupling constant of the normalized mode at the atom.

    Defined as -(dipole . E_mode(position)) / HBAR with the plain
    (unconjugated) dipole vector. The source plane is z = 0 above
    cutoff and the atom's own axial position below it, where the
    profile kink sits at the atom. This is the per-point definition
    and the reference for ``couplings``, which the emission chain
    calls instead.
    """
    atom.check_inside(spec)
    disp = dispersion(spec, mode, frequency)
    source_plane = (float(atom.position[2])
                    if disp.branch is Branch.LOCALIZED else 0.0)
    amp = normalize(spec, mode, frequency, box)
    sample = field_at(spec, mode, frequency, atom.position_array(),
                      amplitude=amp, direction=direction,
                      source_plane=source_plane)
    return complex(-np.dot(atom.dipole_array(), sample.electric) / HBAR)


class Channels:
    """Per-mode constants of ``modes`` at ``atom``, which must lie in
    the cross section. ``columns`` holds, one column per mode, kx, ky,
    h, 1 for TM, index weight, polarization constant, and the sines,
    then cosines, of kx*x0 and ky*y0; ``cutoff`` the cutoffs. Both
    arrays are read-only."""

    def __init__(self, spec: WaveguideSpec, atom: Atom, modes):
        atom.check_inside(spec)
        self.spec, self.atom, self.modes = spec, atom, tuple(modes)
        table = np.array([(*transverse_wavenumbers(spec, m),
                           transverse_wavenumber(spec, m),
                           m.polarization is Polarization.TM,
                           _index_weight(m), _polarization_constant(spec, m))
                          for m in self.modes], dtype=float).reshape(-1, 6).T
        at = table[:2] * np.array(atom.position[:2], dtype=float)[:, None]
        self.columns = np.concatenate((table, np.sin(at), np.cos(at)))
        self.cutoff = table[2] / spec.refractive_index
        self.columns.flags.writeable = self.cutoff.flags.writeable = False


def couplings(chans: Channels, rows, frequencies,
              box: QuantizationBox) -> np.ndarray:
    """``coupling_at`` in closed form at each frequency node, on the
    channel of table row ``rows[i]`` for node i: one row per direction
    of travel, +1 then -1, sharing every factor but the direction's.

    Takes the source planes ``coupling_at`` takes: z = 0 above cutoff,
    and the atom's own plane below it, where the axial factor is one
    and the components odd in the axial offset vanish. The one-quantum
    amplitude of ``normalize`` reduces to

        above cutoff   amp^2 = HBAR * nu * c * h^2 / (pol * A * k^2 * L)
        below cutoff   amp^2 = HBAR * nu * c * attenuation / (pol * A)

    with c the index weight, pol the permittivity (TM) or permeability
    (TE), A the cross-section area, k the medium wavenumber and L the
    box length. Frequencies may lie on either branch; those
    ``modes.axial_relation`` refuses raise its DomainError, and so
    does an amplitude that is not finite, naming the mode.
    """
    spec, atom = chans.spec, chans.atom
    kx, ky, h, tm, weight, pol, sx, sy, cx, cy = chans.columns.take(
        rows, axis=1)
    nu, k, propagating, axial = axial_relation(spec, chans.modes, rows, h,
                                               frequencies)
    h2 = h * h
    # a dipole near DBL_MAX overflows the terms; the refusal is the
    # amplitude check here or the decay rate's, never a warning
    with np.errstate(over="ignore", invalid="ignore"):
        per_area = (HBAR * nu * weight
                    / (pol * spec.cross_section_area))
        amp = np.sqrt(np.where(propagating,
                               per_area * h2 / (k * k * box.length),
                               per_area * axial))
        if not np.isfinite(amp).all():
            i = int(np.flatnonzero(~np.isfinite(amp))[0])
            mode = chans.modes[rows[i]]
            raise DomainError(
                f"the one-quantum amplitude of {mode.label} is not finite "
                f"at frequency {float(nu[i])!r}")

        d_x, d_y, d_z = atom.dipole_array()
        tm = tm > 0.0
        any_tm = bool(tm.any())
        any_te = not (any_tm and tm.all())
        if any_te:
            # the TE field carries no direction of travel
            slope = 1j * nu * spec.permeability / h2
            e_x, e_y = slope * ky * cx * sy, -slope * kx * sx * cy
            te_term = -(d_x * e_x + d_y * e_y + d_z * 0.0) * amp
        z0 = atom.position[2]
        # on the source plane z0 = +0.0 the phase exp(travel * z0) is 1 + 0j
        on_plane = z0 == 0.0 and math.copysign(1.0, z0) > 0.0
        out = []
        for d in (1, -1):
            travel = -1j * d * axial if any_tm or not on_plane else None
            term = te_term if any_te else None
            if any_tm:
                # -(gamma / h^2) with gamma = i * direction * beta; below
                # cutoff these components are odd about the kink at the atom
                slope = np.where(propagating, travel / h2, 0.0)
                e_x, e_y = slope * kx * cx * sy, slope * ky * sx * cy
                tm_term = -(d_x * e_x + d_y * e_y + d_z * (sx * sy)) * amp
                term = np.where(tm, tm_term, term) if any_te else tm_term
            phase = 1.0 + 0.0j if on_plane else np.where(
                propagating, np.exp(travel * z0), 1.0)
            out.append(term * phase / HBAR)
    return np.array(out)


def continuum_weight(chans: Channels, rows, frequencies,
                     box: QuantizationBox, model: DensityModel):
    """States per unit angular frequency for one direction of travel,
    over nodes with their channel rows as ``couplings`` takes them.

    Above cutoff the box spacing 2*pi/length in the axial wavenumber
    is converted to frequency per ``model``. Below it the decaying
    profiles, normalized per unit frequency already, carry the unit
    measure d(nu) under either model. Nodes ``modes.axial_relation``
    refuses raise its DomainError.
    """
    nu, _, propagating, axial = axial_relation(
        chans.spec, chans.modes, rows, chans.columns[2, rows], frequencies)
    if model is DensityModel.PHASE_VELOCITY:
        above = box.length * chans.spec.refractive_index / (2.0 * math.pi)
    else:
        eps_mu = chans.spec.permittivity * chans.spec.permeability
        above = box.length * eps_mu * nu / (2.0 * math.pi * axial)
    return np.where(propagating, above, _LOCALIZED_UNIT_WEIGHT)


def _weight_times_t(spec: WaveguideSpec, box: QuantizationBox,
                    model: DensityModel, propagating, nu, t):
    # ``continuum_weight`` times the axial variable t (wavenumber above
    # cutoff, attenuation below), in closed form: the group-velocity
    # weight recomputed from nu would divide by an axial wavenumber
    # carrying rounding ~eps*h^2/t^2 near the cutoff
    if model is DensityModel.PHASE_VELOCITY:
        above = box.length * spec.refractive_index * t / (2.0 * math.pi)
    else:
        eps_mu = spec.permittivity * spec.permeability
        above = box.length * eps_mu * nu / (2.0 * math.pi)
    return np.where(propagating, above, _LOCALIZED_UNIT_WEIGHT * t)


def _cross_section_rule(spec: WaveguideSpec, order: int, z: float):
    # tensor Gauss-Legendre rule of ``order`` nodes per axis over the
    # cross section [0, width] x [0, height] at height z: the
    # (order, order, 3) points and the x and y weights; mode_overlap
    # and validate's energy check both integrate on it
    nodes, weights = _gl_nodes(order)
    x = 0.5 * spec.width * (nodes + 1.0)
    y = 0.5 * spec.height * (nodes + 1.0)
    wx = weights * 0.5 * spec.width
    wy = weights * 0.5 * spec.height
    xx, yy = np.meshgrid(x, y, indexing="ij")
    return np.stack([xx, yy, np.full_like(xx, z)], axis=-1), wx, wy


def mode_overlap(spec: WaveguideSpec, mode_a: ModeIndex,
                 mode_b: ModeIndex, frequency: float) -> complex:
    """Cross-section energy inner product of two modes at height
    z = 0.25,

        (1/2) * integral over the cross section of
        (permittivity conj(E_a).E_b + permeability conj(H_a).H_b),

    for unit amplitudes, the source plane at z = 0 and travel toward
    +z above cutoff. The Gauss-Legendre order per axis grows with the
    index sums.

    Distinct transverse patterns at a common frequency give zero;
    that, not the same-mode value, is the quantity of interest here.
    """
    order = 8 + 4 * max(mode_a.m + mode_b.m, mode_a.n + mode_b.n)
    pts, wx, wy = _cross_section_rule(spec, order, 0.25)
    f_a = field_at(spec, mode_a, frequency, pts)
    f_b = field_at(spec, mode_b, frequency, pts)
    density = 0.5 * (
        spec.permittivity * np.sum(np.conj(f_a.electric) * f_b.electric,
                                   axis=-1)
        + spec.permeability * np.sum(np.conj(f_a.magnetic) * f_b.magnetic,
                                     axis=-1))
    return complex(np.einsum("i,j,ij->", wx, wy, density))
