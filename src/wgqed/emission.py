"""Spontaneous emission of the excited atom into the guide continuum.

The excited state couples to every guided channel: above each cutoff a
pair of traveling continua (one per direction), below it a continuum
of profiles that decay away from the atom. Weak-coupling theory gives

    excited amplitude  c_a(t) = exp((i*shift - rate/2) * t)

with the decay rate summed over resonant propagating channels and the
shift a principal-value integral over the off-resonant continuum. The
shifted line center is transition_frequency - shift.

The shift integral grows without bound as the frequency window is
widened (the integrand falls off too slowly), so shifts are only
reported together with the window and channel list they were computed
over.

Internally the shift integrals run in the axial variable: the axial
wavenumber above cutoff and the attenuation constant below. Both
substitutions make the integrand smooth at the cutoff endpoint, where
the frequency-space state density of the GROUP_VELOCITY model blows
up like an inverse square root, and both leave one regular numerator
over (t^2 - q), so the principal value is taken by subtracting the
pole rather than by excising it.

``decay_rate``, ``level_shift`` and ``build_bins`` each make one
``quantize.Channels`` table and read cutoffs, couplings (both
directions of travel) and weights off it; the decay rate and the cells
take all of theirs from one call of each. Every continuum measure,
the unit one of decaying profiles included, comes from ``quantize``.
The shift's (mode, branch) segments refine in lockstep: one call
covers the 1-panel and 2-panel rules of every segment (and, for a
principal value, the pole point and both halves), and each further
panel doubling is one call over the segments not yet accepted, split
into calls of whole rows past the quadrature's node budget.
``quantize.coupling_at`` stays the per-point definition the tests
check this module against.

``amplitudes_ode_oracle`` propagates the exact Schroedinger system of
the ``ContinuumCells`` arrays of ``build_bins`` by diagonalizing its
Hamiltonian once, with no time stepping and no tolerance to set. It is
the module's own cross-check on the closed forms; nothing in it reuses
the weak-coupling formulas.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .modes import (
    CUTOFF_REL_TOL,
    Branch,
    ModeIndex,
    Polarization,
    WaveguideSpec,
    cutoff_frequency,
    modes_below,
)
from .numerics import _lockstep
from .quantize import (
    Atom,
    Channels,
    DensityModel,
    QuantizationBox,
    _weight_times_t,
    continuum_weight,
    couplings,
)

# window endpoints closer than this (relative) to the transition
# frequency put the integrable pole on the boundary, where no
# principal value exists
_ENDPOINT_GUARD = 1e-9


class ChannelRate(NamedTuple):
    """Golden-rule rate of one resonant propagating channel."""

    mode: ModeIndex
    direction: int
    weight: float
    coupling: complex
    rate: float


class DecayResult(NamedTuple):
    total: float
    channels: tuple
    oscillatory: bool

    def traveling_total(self) -> float:
        """``total``; DomainError below every cutoff, where no traveling
        channel leaves a pole to continue."""
        if self.oscillatory:
            raise DomainError("the transition lies below every cutoff and "
                              "feeds no traveling channel")
        return self.total


def decay_rate(spec: WaveguideSpec, atom: Atom, box: QuantizationBox,
               model: DensityModel, *, max_index: int = 12) -> DecayResult:
    """Total spontaneous decay rate at the bare transition frequency.

    Each propagating channel contributes 2*pi * weight * |coupling|^2
    per direction of travel; channels below cutoff carry no outgoing
    flux and do not appear. An atom below every cutoff therefore gets
    an empty channel list, rate zero and the ``oscillatory`` flag:
    its excitation sloshes between atom and decaying profiles instead
    of leaking away. A rate whose square overflows raises DomainError.
    """
    atom.check_inside(spec)
    omega = atom.transition_frequency
    chans = Channels(spec, atom, modes_below(spec, omega,
                                             max_index=max_index))
    rows = np.arange(len(chans.modes))
    nodes = np.full(len(chans.modes), omega)
    g = couplings(chans, rows, nodes, box).tolist()
    weights = continuum_weight(chans, rows, nodes, box, model).tolist()
    try:
        channels = tuple(
            ChannelRate(mode=mode, direction=d, weight=w, coupling=c,
                        rate=2.0 * math.pi * w * abs(c) ** 2)
            for mode, w, *pair in zip(chans.modes, weights, *g)
            for d, c in zip((1, -1), pair))
        total = math.fsum(c.rate for c in channels)
    except OverflowError:
        total = math.inf
    # the pole and the crossing square the rate
    if not total * total < math.inf:
        raise DomainError("the decay rate or its square overflows the "
                          "float range; reduce the dipole moment")
    return DecayResult(total=total, channels=channels,
                       oscillatory=not channels)


class ShiftContribution(NamedTuple):
    mode: ModeIndex
    branch: Branch
    window: tuple
    value: float


class ShiftResult(NamedTuple):
    value: float
    window: tuple
    contributions: tuple


def _split_by_cutoff(window, cutoff):
    lo, hi = window
    parts = []
    if lo < cutoff:
        parts.append((Branch.LOCALIZED, lo, min(hi, cutoff)))
    if hi > cutoff:
        parts.append((Branch.PROPAGATING, max(lo, cutoff), hi))
    return parts


def auto_shift_window(spec: WaveguideSpec, transition_frequency: float,
                      decay_rate: float, *, max_index: int = 12) -> tuple:
    """The library's frequency window for the level shift integral.

    With a positive decay rate the window hugs the line, 25 linewidths
    to each side, but starts no lower than 0.02 times the transition
    frequency. A rate of zero or below, as below every cutoff, spans
    a fifth to five times the transition frequency. Either way it
    stays below 0.999 times the TE(max_index, 0) cutoff, the edge of
    the band ``modes_below`` enumerates completely for that index
    bound. The window can collapse (low >= high) when the transition
    sits at or past that edge; ``level_shift`` then refuses it.
    """
    omega = transition_frequency
    # enumeration refuses any qualifying mode on the bound row, whose
    # lowest cutoff is (max_index, 0) since b <= a
    edge = 0.999 * cutoff_frequency(
        spec, ModeIndex(Polarization.TE, max_index, 0))
    if decay_rate > 0.0:
        return (max(omega - 25.0 * decay_rate, 0.02 * omega),
                min(omega + 25.0 * decay_rate, edge))
    return (omega / 5.0, min(5.0 * omega, edge))


def _window(window):
    if not 0.0 < window[0] < window[1]:
        raise DomainError("window must satisfy 0 < low < high")
    return window


def level_shift(spec: WaveguideSpec, atom: Atom, box: QuantizationBox,
                model: DensityModel, *, window, modes=None,
                max_index: int = 12) -> ShiftResult:
    """Windowed second-order frequency shift of the excited level.

    Computes -PV integral of weight * |coupling|^2 / (omega - nu) over
    nu in ``window``, summed over channels; the shifted line center is
    omega - value. By default the channel list holds every mode whose
    cutoff lies below the window top; patterns with higher cutoffs
    also contribute decaying-branch pieces and can be included by
    passing ``modes`` explicitly. The result is meaningful only
    together with its window: widening the window grows the value
    without bound.

    Each (mode, branch) segment is integrated in the axial variable t
    (wavenumber above cutoff, attenuation below, s = +1 or -1), with
    eps*mu*nu^2 = h^2 + s*t^2 and q = s*(eps*mu*omega^2 - h^2). The
    integrand then reads R(t)/(t^2 - q) with the regular numerator

        R(t) = -(weight * t) * |coupling|^2 * (omega + nu) / nu,

    for both branches and both density models. A segment holding the
    transition frequency has its pole at t0 = sqrt(q) and is a
    principal value with numerator R(t)/(t + t0). A window or cutoff
    edge within a relative 1e-9 of omega is refused before any
    integrand is evaluated. All segments refine in lockstep, one
    ``couplings`` call per level up to the quadrature's node budget,
    more past it; the first error in segment order is
    raised, as if they were integrated one by one. A shift that puts
    the line center omega - value at or below zero is refused.
    """
    lo, hi = _window(window)
    atom.check_inside(spec)
    omega = atom.transition_frequency
    if modes is None:
        modes = modes_below(spec, hi, max_index=max_index)
    chans = Channels(spec, atom, modes)
    eps_mu = spec.permittivity * spec.permeability
    # per segment: channel row, branch, span, sign, (t_a, t_b, pole) and
    # the integrand's h, s, nu_c, band, t0 (nan without a pole) and q
    segments, consts = [], []
    for row, nu_c in enumerate(chans.cutoff.tolist()):
        # t <-> nu keeps nu_c * n; the table's hypot(kx, ky) may be an ulp off
        h = nu_c * spec.refractive_index
        # refined quadrature samples next to a cutoff-bounded segment
        # end can round into the degeneracy band; they are nudged to
        # its edge, staying on the segment's side of the cutoff
        band = 2.0 * CUTOFF_REL_TOL * nu_c
        for branch, s_lo, s_hi in _split_by_cutoff((lo, hi), nu_c):
            if any(abs(omega - edge) < _ENDPOINT_GUARD * omega
                   for edge in (s_lo, s_hi)):
                raise DomainError(
                    "window or cutoff edge collides with the "
                    "transition frequency; shift the window")
            s = 1.0 if branch is Branch.PROPAGATING else -1.0
            q = s * (eps_mu * omega * omega - h * h)
            t_a, t_b = (math.sqrt(max(s * (eps_mu * nu * nu - h * h), 0.0))
                        for nu in (s_lo, s_hi))
            # t falls with nu below cutoff
            sign = 1.0
            if t_a > t_b:
                t_a, t_b, sign = t_b, t_a, -1.0
            t0 = math.sqrt(q) if s_lo < omega < s_hi else None
            segments.append((row, branch, (s_lo, s_hi), sign,
                             (t_a, t_b, t0)))
            consts.append((h, s, nu_c, band,
                           math.nan if t0 is None else t0, q))
    rows = np.array([seg[0] for seg in segments], dtype=int)
    table = np.array(consts, dtype=float).reshape(-1, 6).T

    def integrand(t, seg):
        h, s, nu_c, band, t0, q = table.take(seg, axis=1)
        nu = np.sqrt((h * h + s * t * t) / eps_mu)
        nu = np.where(np.abs(nu - nu_c) < band, nu_c + s * band, nu)
        # traveling profiles count once per direction of travel
        traveling = s > 0.0
        weight_t = _weight_times_t(spec, box, model, traveling, nu, t)
        # the decay rate bounds the couplings of a traveling emitter,
        # but nothing bounds those of one below every cutoff
        with np.errstate(over="ignore", invalid="ignore"):
            g_sq = np.abs(couplings(chans, rows[seg], nu, box)) ** 2
            csq = np.where(traveling, g_sq[0] + g_sq[1], g_sq[0])
            vals = (-weight_t * csq * (omega + nu) / nu
                    / np.where(np.isnan(t0), t * t - q, t + t0))
        if not np.isfinite(vals).all():
            raise DomainError("the level shift integrand overflows the "
                              "float range; reduce the dipole moment")
        return vals

    def name(j):
        row, branch, (s_lo, s_hi), _, _ = segments[j]
        return (f"the {chans.modes[row].label} {branch.value} segment "
                f"over nu in [{s_lo:.6g}, {s_hi:.6g}]")

    pieces = _lockstep(integrand, [seg[4] for seg in segments], name)
    contributions = tuple(
        ShiftContribution(mode=chans.modes[row], branch=branch, window=span,
                          value=-sign * float(piece) + 0.0)
        for (row, branch, span, sign, _), (piece, _) in zip(segments,
                                                            pieces))
    value = math.fsum(c.value for c in contributions)
    if not omega - value > 0.0:
        raise DomainError(
            f"line center {omega - value!r} is not positive: the level "
            f"shift {value!r} reaches the transition frequency {omega!r}")
    return ShiftResult(value=value, window=(lo, hi),
                       contributions=contributions)


class MarkovParameters(NamedTuple):
    """Weak-coupling summary of the emitter: rate, shift, bare line."""

    decay_total: float
    level_shift: float
    transition_frequency: float

    @property
    def shifted_frequency(self) -> float:
        return self.transition_frequency - self.level_shift


class ContinuumCells(NamedTuple):
    """Cells of a discretized continuum, an array entry per cell: a
    ``row`` into ``modes``, a ``direction`` (+1/-1 traveling, 0
    decaying), and so on. Every cell spans ``width``."""

    modes: tuple
    row: np.ndarray
    direction: np.ndarray
    frequency: np.ndarray
    coupling: np.ndarray
    weight: np.ndarray
    width: float

    @property
    def discrete_coupling(self) -> np.ndarray:
        return np.sqrt(self.weight * self.width) * self.coupling


def build_bins(spec: WaveguideSpec, atom: Atom, box: QuantizationBox,
               model: DensityModel, *, window, count: int,
               modes) -> ContinuumCells:
    """Uniform frequency discretization of the listed channels.

    Each bin center is classified per mode: above that mode's cutoff
    it yields a +1 and then a -1 traveling cell, below it a single
    decaying cell; cells run by mode, then by center. Choose windows
    that keep bin centers clear of the cutoffs themselves; a center
    landing in the degeneracy band raises.

    These cells are also how the spectrum of the emitted photon is
    read: ``photon_bin_amplitudes`` many lifetimes out gives each
    cell's share, and the direction label separates the traveling
    cells a far detector sees from the decaying ones.
    """
    lo, hi = _window(window)
    if count < 1:
        raise DomainError("need at least one bin")
    width = (hi - lo) / count
    chans = Channels(spec, atom, modes)
    n = len(chans.modes)
    rows = np.repeat(np.arange(n), count)
    nodes = np.tile(lo + (np.arange(count) + 0.5) * width, n)
    g = couplings(chans, rows, nodes, box)
    weights = continuum_weight(chans, rows, nodes, box, model)
    # a (mode, center) slot above the cutoff holds two cells, +1 first
    above = nodes > chans.cutoff[rows]
    slot = np.repeat(np.arange(n * count), 1 + above)
    back = np.append(False, slot[1:] == slot[:-1])
    return ContinuumCells(
        modes=chans.modes, row=rows[slot],
        direction=np.where(above[slot], 1 - 2 * back, 0),
        frequency=nodes[slot], coupling=g[back.astype(int), slot],
        weight=weights[slot], width=width)


def photon_bin_amplitudes(time: float, cells: ContinuumCells,
                          params: MarkovParameters) -> np.ndarray:
    """Closed-form one-photon amplitudes of discretized cells at one
    instant, from the weak-coupling excited amplitude."""
    if params.decay_total <= 0.0:
        raise DomainError(
            "closed-form photon amplitudes need a positive decay rate")
    detune = cells.frequency - params.shifted_frequency
    half_rate = 0.5 * params.decay_total
    envelope = 1.0 - np.exp((1j * detune - half_rate) * time)
    return (np.conj(cells.discrete_coupling) * envelope
            / (detune + 1j * half_rate))


def amplitudes_ode_oracle(times, cells: ContinuumCells,
                          transition_frequency: float):
    """Exact evolution of the excited atom coupled to discrete cells.

    Solves the interaction-picture Schroedinger equations
        dc_a/dt = -i * sum_j g_j exp(+i (omega - nu_j) t) c_j
        dc_j/dt = -i * conj(g_j) exp(-i (omega - nu_j) t) c_a
    from the excited atom and the vacuum by diagonalizing, not by
    integrating. In the frame rotating at omega the Hamiltonian is
    constant, [[0, g], [conj(g), diag(nu_j - omega)]], and the phases
    of g are a gauge: the real arrowhead with |g_j| in their place has
    the same spectrum. Cells of one frequency nu couple only through
    their bright sum, of coupling G = sqrt(sum |g_j|^2), so one real
    ``eigh`` over the distinct frequencies, H_r = V diag(lam) V^T,
    gives psi(t) = V (exp(-i lam t) * V[0, :]), then c_a = psi_0 and
    c_j = (conj(g_j)/G) exp(i (nu_j - omega) t) psi_nu, zero if G = 0.
    Returns c_a over times and the (cells, times) amplitude array.
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise DomainError("time grid must start at zero")
    g = cells.discrete_coupling
    nu, group = np.unique(cells.frequency, return_inverse=True)
    # divided by the power of two 2**e of the largest |g|, the squares
    # cannot overflow; the scaling is exact, so G keeps the plain
    # form's bits wherever its squares and sums stay normal floats
    mag = np.abs(g)
    e = math.frexp(float(mag.max(initial=0.0)))[1]
    bright = np.ldexp(np.sqrt(np.bincount(group, np.ldexp(mag, -e) ** 2,
                                          len(nu))), e)
    detune = nu - transition_frequency
    h_r = np.diag(np.concatenate(([0.0], detune)))
    h_r[0, 1:] = h_r[1:, 0] = bright
    lam, v = np.linalg.eigh(h_r)
    psi = v @ (np.exp(-1j * np.outer(lam, times)) * v[0][:, None])
    share = (np.conj(g) / np.where(bright > 0.0, bright, 1.0)[group])[:, None]
    c_b = share * np.exp(1j * np.outer(detune[group], times)) * psi[1:][group]
    return psi[0], c_b


def dominant_channel(spec: WaveguideSpec, frequency: float, *,
                     max_index: int = 12) -> ModeIndex:
    """The single propagating mode at ``frequency``.

    Raises DomainError when nothing propagates there or when more than
    one mode does; the message says which, and how many propagate.
    """
    listing = modes_below(spec, frequency, max_index=max_index)
    if not listing:
        raise DomainError(f"no mode propagates at frequency {frequency!r}")
    if len(listing) > 1:
        raise DomainError(
            f"{len(listing)} modes propagate at frequency {frequency!r}")
    return listing[0]
