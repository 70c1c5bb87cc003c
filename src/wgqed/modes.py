"""Eigenmodes of a hollow rectangular waveguide with perfectly
conducting walls.

The cross section occupies 0 <= x <= width, 0 <= y <= height and the
guide axis runs along z. Fields follow the engineering time convention
exp(+i*frequency*t), so a wave traveling toward +z carries
exp(-i*axial_wavenumber*z). All frequencies are angular; units are
such that the filling medium enters only through its relative
permittivity and permeability.

Two axial branches exist for every transverse pattern, the two signs
of eps*mu*nu^2 = h^2 +- t^2. ``axial_relation`` alone solves and
refuses it, over frequency nodes; ``dispersion`` is its one-frequency
view, and ``quantize.couplings`` and ``continuum_weight`` call it too:

* above the cutoff frequency the mode propagates with a real axial
  wavenumber (oscillatory profile);
* below cutoff the same pattern decays away from a source plane with a
  real attenuation constant (profile exp(-attenuation*|z - z0|)).

For the decaying branch the transverse components that are linear in
the axial derivative must change sign across the source plane,
otherwise the field would not stay divergence free on both sides. The
evaluator handles that sign internally; at the kink itself those
components vanish.

``mode_helmholtz_residual`` and ``mode_divergence_residual`` check
that the fields solve the wave equation and carry no electric
divergence, by central differences. Each takes its 7-point stencil
from one ``field_at`` call on an array of points.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# relative frequency distance below which a mode counts as degenerate
# with its cutoff (axial wavenumber underflows, normalization blows up)
CUTOFF_REL_TOL = 1e-12


class Polarization(Enum):
    """Transverse-magnetic (axial E) or transverse-electric (axial H)."""

    TM = "TM"
    TE = "TE"


class Branch(Enum):
    PROPAGATING = "propagating"
    LOCALIZED = "localized"


@dataclass(frozen=True)
class WaveguideSpec:
    """Geometry and filling of the guide.

    width, height
        Transverse extents along x and y. Orient the guide so that
        width >= height; the lowest cutoff then belongs to the TE
        pattern with one half-wave along x.
    permittivity, permeability
        Relative material constants of the homogeneous filling.
    """

    width: float
    height: float
    permittivity: float = 1.0
    permeability: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.width, self.height,
                                       self.permittivity,
                                       self.permeability))):
            raise DomainError(
                "cross section extents and material constants must be "
                "finite")
        if not (self.width > 0.0 and self.height > 0.0):
            raise DomainError("cross section extents must be positive")
        if self.height > self.width:
            raise DomainError("orient the guide so that width >= height")
        if not (self.permittivity > 0.0 and self.permeability > 0.0):
            raise DomainError("material constants must be positive")
        # every cutoff divides by sqrt(eps*mu): keep it a normal float
        eps_mu = self.permittivity * self.permeability
        if not sys.float_info.min <= eps_mu < math.inf:
            raise DomainError(
                f"permittivity {self.permittivity!r} times permeability "
                f"{self.permeability!r} is {eps_mu!r}, outside the normal "
                f"float range")

    @property
    def cross_section_area(self) -> float:
        return self.width * self.height

    @property
    def refractive_index(self) -> float:
        """n = sqrt(eps*mu), the one spelling of the index."""
        return math.sqrt(self.permittivity * self.permeability)

    def check_in_cross_section(self, name: str, point):
        """Refuse the point ``name`` when its transverse (x, y) lies
        outside the cross section."""
        x, y = float(point[0]), float(point[1])
        if not (0.0 <= x <= self.width and 0.0 <= y <= self.height):
            raise DomainError(
                f"{name} ({x!r}, {y!r}) lies outside the cross section")


@dataclass(frozen=True)
class ModeIndex:
    """Half-wave counts (m along x, n along y) plus polarization.

    TM patterns need both counts positive; TE patterns allow one zero
    index but not both.
    """

    polarization: Polarization
    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise DomainError("mode indices must be non-negative")
        if self.polarization is Polarization.TM and min(self.m, self.n) < 1:
            raise DomainError("TM modes need m >= 1 and n >= 1")
        if self.m == 0 and self.n == 0:
            raise DomainError("TE(0,0) does not exist")

    @property
    def label(self) -> str:
        """The pattern's name in messages, e.g. ``TE(1,0)``."""
        return f"{self.polarization.value}({self.m},{self.n})"


# a lowest pattern, square guides included: WaveguideSpec keeps b <= a
TE10 = ModeIndex(Polarization.TE, 1, 0)


def transverse_wavenumbers(spec: WaveguideSpec, mode: ModeIndex):
    """Partial wavenumbers (m*pi/width, n*pi/height) of the pattern."""
    return (mode.m * math.pi / spec.width, mode.n * math.pi / spec.height)


def transverse_wavenumber(spec: WaveguideSpec, mode: ModeIndex) -> float:
    return math.hypot(*transverse_wavenumbers(spec, mode))


def cutoff_frequency(spec: WaveguideSpec, mode: ModeIndex) -> float:
    """Angular frequency separating the two axial branches."""
    return transverse_wavenumber(spec, mode) / spec.refractive_index


class ModeDispersion(NamedTuple):
    """Axial behaviour of one mode at one angular frequency."""

    transverse_wavenumber: float
    medium_wavenumber: float
    branch: Branch
    axial_wavenumber: float | None  # real, propagating branch only
    attenuation: float | None       # real, localized branch only


def axial_relation(spec: WaveguideSpec, modes, rows, h, frequencies):
    """eps*mu*nu^2 = h^2 +- t^2 at frequency nodes, node i on mode
    ``modes[rows[i]]`` of transverse wavenumber h[i]: the frequencies,
    k = n*nu, the above-cutoff mask and t = sqrt(|k^2 - h^2|). Refuses,
    in this order, a non-positive frequency, an h^2 that underflows
    (the fields divide by it) and a frequency within CUTOFF_REL_TOL
    (relative) of the cutoff h/n, naming the first such node's mode."""
    nu = np.asarray(frequencies, dtype=float)
    if (nu <= 0.0).any():
        raise DomainError("frequency must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        h_sq = h * h
        nu_c = h / spec.refractive_index
        k = nu * spec.refractive_index
        degenerate = np.abs(nu - nu_c) <= CUTOFF_REL_TOL * nu_c
        t = np.sqrt(np.abs(k * k - h_sq))
    if (h_sq == 0.0).any():
        mode = modes[rows[int(np.argmax(h_sq == 0.0))]]
        raise DomainError(
            f"the squared transverse wavenumber of {mode.label} underflows "
            "to zero; the guide is too wide")
    if degenerate.any():
        i = int(np.argmax(degenerate))
        mode = modes[rows[i]]
        raise DomainError(
            f"frequency {float(nu[i])!r} is degenerate with the cutoff "
            f"{float(nu_c[i])!r} of {mode.label}")
    return nu, k, nu > nu_c, t


def dispersion(spec: WaveguideSpec, mode: ModeIndex,
               frequency: float) -> ModeDispersion:
    """``axial_relation`` at one frequency, as a classified record."""
    h = transverse_wavenumber(spec, mode)
    _, k, above, t = axial_relation(spec, (mode,), (0,), np.array([h]),
                                    (frequency,))
    above, k, t = bool(above[0]), float(k[0]), float(t[0])
    return ModeDispersion(h, k,
                          Branch.PROPAGATING if above else Branch.LOCALIZED,
                          t if above else None, None if above else t)


class ModeField(NamedTuple):
    """Complex field sample(s); trailing axis is the (x, y, z) triple."""

    electric: np.ndarray
    magnetic: np.ndarray


def field_at(spec: WaveguideSpec, mode: ModeIndex, frequency: float,
             points, *, amplitude: complex = 1.0, direction: int = 1,
             source_plane: float = 0.0) -> ModeField:
    """Evaluate the mode's electric and magnetic field.

    points
        Array-like of shape (..., 3) with cartesian coordinates.
    amplitude
        Scalar multiplying the axial component of the defining field
        (E for TM, H for TE).
    direction
        +1 or -1, travel direction along z on the propagating branch.
        Ignored below cutoff, where the profile decays both ways from
        the source plane.
    source_plane
        Axial position z0 of zero phase (propagating) or of the
        profile kink (localized).
    """
    if direction not in (1, -1):
        raise DomainError("direction must be +1 or -1")
    disp = dispersion(spec, mode, frequency)
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 3:
        raise DomainError("points must have a trailing axis of length 3")
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    kx, ky = transverse_wavenumbers(spec, mode)
    h2 = disp.transverse_wavenumber ** 2
    dz = z - source_plane
    if disp.branch is Branch.PROPAGATING:
        gamma = 1j * direction * disp.axial_wavenumber
        axial = np.exp(-gamma * dz)
        odd_sign = np.ones_like(z)
    else:
        gamma = complex(disp.attenuation)
        axial = np.exp(-disp.attenuation * np.abs(dz))
        # odd components flip across the kink and vanish on it
        odd_sign = np.sign(dz)

    sx, cx = np.sin(kx * x), np.cos(kx * x)
    sy, cy = np.sin(ky * y), np.cos(ky * y)
    nu = frequency
    eps, mu = spec.permittivity, spec.permeability
    zero = np.zeros_like(axial)

    if mode.polarization is Polarization.TM:
        ez = amplitude * sx * sy * axial
        ex = -(gamma / h2) * kx * amplitude * cx * sy * axial * odd_sign
        ey = -(gamma / h2) * ky * amplitude * sx * cy * axial * odd_sign
        hx = (1j * nu * eps / h2) * ky * amplitude * sx * cy * axial
        hy = -(1j * nu * eps / h2) * kx * amplitude * cx * sy * axial
        hz = zero
    else:
        hz = amplitude * cx * cy * axial
        ex = (1j * nu * mu / h2) * ky * amplitude * cx * sy * axial
        ey = -(1j * nu * mu / h2) * kx * amplitude * sx * cy * axial
        hx = (gamma / h2) * kx * amplitude * sx * cy * axial * odd_sign
        hy = (gamma / h2) * ky * amplitude * cx * sy * axial * odd_sign
        ez = zero

    electric = np.stack(np.broadcast_arrays(ex, ey, ez), axis=-1)
    magnetic = np.stack(np.broadcast_arrays(hx, hy, hz), axis=-1)
    return ModeField(electric=electric, magnetic=magnetic)


def _stencil(spec: WaveguideSpec, mode: ModeIndex, frequency: float,
             point, step: float) -> tuple:
    """``dispersion`` and one ``field_at`` call on the 7-point stencil
    about ``point``: rows center, +x, +y, +z, -x, -y, -z. A stencil
    within 2*step of a wall or, below cutoff, of the profile kink at
    z = 0 is refused, since it would measure the discontinuity instead
    of the field equation, and so is a center where the electric field,
    which both residuals divide by, underflows to zero."""
    disp = dispersion(spec, mode, frequency)
    p = np.asarray(point, dtype=float)
    x, y, z = p.tolist()
    margin = 2.0 * step
    if not (margin <= x <= spec.width - margin
            and margin <= y <= spec.height - margin):
        raise DomainError(
            "stencil straddles a wall; keep the point at least "
            f"{margin!r} away from every boundary")
    if disp.branch is Branch.LOCALIZED and abs(z) < margin:
        raise DomainError(
            "stencil straddles the profile kink; move the point at "
            f"least {margin!r} from the source plane z = 0")
    offsets = step * np.eye(3)
    points = np.concatenate((p[None], p + offsets, p - offsets))
    field = field_at(spec, mode, frequency, points)
    if not field.electric[0].any():
        raise DomainError(f"the electric field at point {(x, y, z)!r} "
                          "underflows to zero; no residual is measured")
    return disp, field


def mode_helmholtz_residual(spec: WaveguideSpec, mode: ModeIndex,
                            frequency: float, point,
                            step: float = 1e-3) -> float:
    """Normalized wave-equation residual of all six field components.

    The field is ``field_at``'s default: unit amplitude, source plane
    z = 0, traveling toward +z above cutoff. The laplacian is taken by
    central second differences with spacing ``step``. Returns max
    |laplacian F + k^2 F| over the electric and magnetic components,
    divided by k^2 times the largest component magnitude at the point.
    Points whose +-2*step stencil touches a wall or, below cutoff, the
    profile kink at z = 0 are refused rather than measured, and so are
    points where the electric field underflows to zero.
    """
    disp, rows = _stencil(spec, mode, frequency, point, step)
    k_sq = disp.medium_wavenumber ** 2
    worst = scale = 0.0
    for f in rows:
        lap = np.zeros(3, dtype=complex)
        for ax in range(3):
            lap += (f[1 + ax] - 2.0 * f[0] + f[4 + ax]) / step ** 2
        worst = max(worst, float(np.max(np.abs(lap + k_sq * f[0]))))
        scale = max(scale, float(np.max(np.abs(f[0]))))
    return worst / (k_sq * scale)


def mode_divergence_residual(spec: WaveguideSpec, mode: ModeIndex,
                             frequency: float, point,
                             step: float = 1e-3) -> float:
    """Normalized electric-field divergence at a point.

    |div E| by central first differences, divided by k times the
    largest electric component magnitude there. Same refusals as
    mode_helmholtz_residual.
    """
    disp, (e, _) = _stencil(spec, mode, frequency, point, step)
    div = 0j
    for ax in range(3):
        div += (e[1 + ax, ax] - e[4 + ax, ax]) / (2.0 * step)
    return abs(div) / (disp.medium_wavenumber
                       * float(np.max(np.abs(e[0]))))


POLARIZATIONS = (Polarization.TE, Polarization.TM)

# most rows of the modes command's table (~176 MB resident at the
# 981,400 of --max-mn 700) and of the scan behind modes_below
MAX_TABLE_ROWS = 1_000_000


def table_rows(m_top: int, n_top: int) -> int:
    """Rows of ``mode_table``: TE needs a positive count, TM two."""
    return (m_top + 1) * (n_top + 1) - 1 + m_top * n_top


@functools.lru_cache(maxsize=64)
def mode_table(spec: WaveguideSpec, m_top: int, n_top: int) -> tuple:
    """Every pattern with m <= m_top and n <= n_top as read-only arrays
    (polarization code, m, n, h, cutoff), one row each, sorted by
    cutoff, then code, m and n; the code indexes POLARIZATIONS, so TE
    sorts first. Kept for the 64 most recent keys. h is ``math.hypot``
    as in ``transverse_wavenumber``; ``np.hypot`` can be an ulp off."""
    m, n, pol = np.meshgrid(np.arange(m_top + 1), np.arange(n_top + 1),
                            (0, 1), indexing="ij")
    # TE needs a positive count, TM two
    keep = np.where(pol == 0, (m > 0) | (n > 0), (m > 0) & (n > 0))
    m, n, pol = m[keep], n[keep], pol[keep]
    h = np.fromiter(map(math.hypot, (m * math.pi / spec.width).tolist(),
                        (n * math.pi / spec.height).tolist()), float, len(m))
    cutoff = h / spec.refractive_index
    order = np.lexsort((n, m, pol, cutoff))
    table = tuple(column[order] for column in (pol, m, n, h, cutoff))
    for column in table:
        column.flags.writeable = False
    return table


def modes_below(spec: WaveguideSpec, frequency_limit: float,
                max_index: int = 12):
    """Every mode with cutoff below ``frequency_limit``, as a new list
    of ModeIndex in ``mode_table`` order.

    Index counts are scanned up to ``max_index``; if a mode on that
    boundary still qualifies the enumeration might be incomplete and a
    DomainError, naming the first such mode in scan order (m, then n,
    then TE before TM), asks for a larger bound. Below that bound only
    counts that can qualify are scanned: m*pi/width, and likewise
    n*pi/height, must stay below frequency_limit * refractive_index. A
    limit that is not positive and finite, or a scan past
    MAX_TABLE_ROWS, raises DomainError. Repeated calls bisect the
    cached table.
    """
    if not math.isfinite(frequency_limit):
        raise DomainError("frequency limit must be finite")
    if frequency_limit <= 0.0:
        raise DomainError("frequency limit must be positive")
    reach = frequency_limit * spec.refractive_index / math.pi
    # one extra count absorbs rounding in the bound
    m_top = int(min(max_index, reach * spec.width + 1.0))
    n_top = int(min(max_index, reach * spec.height + 1.0))
    size = table_rows(m_top, n_top)
    if size > MAX_TABLE_ROWS:
        raise DomainError(
            f"a mode scan up to (m, n) = ({m_top}, {n_top}) has {size} "
            f"patterns, over the limit of {MAX_TABLE_ROWS}; lower "
            "max_index or the frequency")
    table = mode_table(spec, m_top, n_top)
    count = bisect.bisect_left(table[-1], frequency_limit)
    codes, ms, ns = (column[:count].tolist() for column in table[:3])
    # the first listed mode on the bound in scan order is the least
    # (m, n, code)
    bound = [(m, n, code) for code, m, n in zip(codes, ms, ns)
             if max_index in (m, n)]
    if bound:
        m, n, code = min(bound)
        raise DomainError(
            f"mode {ModeIndex(POLARIZATIONS[code], m, n).label} at the "
            f"index bound {max_index} still lies below the frequency "
            "limit; increase max_index")
    return [ModeIndex(POLARIZATIONS[code], m, n)
            for code, m, n in zip(codes, ms, ns)]
