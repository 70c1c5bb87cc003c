"""The axial dispersion relation as it was written twice.

``wgqed.modes.axial_relation`` writes the relation eps*mu*nu^2 =
h^2 +- t^2 once, over arrays of frequency nodes, and ``dispersion`` is
its one-frequency view. This module keeps the two copies it replaced,
verbatim: the scalar ``dispersion`` and the array ``_axial`` that
``couplings`` and ``continuum_weight`` called. The tests require the
new relation to give the same bits and the same refusal texts.
"""

from __future__ import annotations

import math

import numpy as np

from wgqed.errors import DomainError
from wgqed.modes import (
    CUTOFF_REL_TOL,
    Branch,
    ModeDispersion,
    ModeIndex,
    WaveguideSpec,
    transverse_wavenumber,
)
from wgqed.quantize import Channels


def dispersion(spec: WaveguideSpec, mode: ModeIndex,
               frequency: float) -> ModeDispersion:
    """Classify a (mode, frequency) pair and solve the axial relation.

    Raises DomainError for non-positive frequencies, for frequencies
    within CUTOFF_REL_TOL (relative) of the cutoff, where both branches
    degenerate, and where h^2, which the fields divide by, underflows.
    """
    if frequency <= 0.0:
        raise DomainError("frequency must be positive")
    h = transverse_wavenumber(spec, mode)
    if h * h == 0.0:
        raise DomainError(
            f"the squared transverse wavenumber of {mode.polarization.value}"
            f"({mode.m},{mode.n}) underflows to zero; the guide is too wide")
    nu_c = h / spec.refractive_index
    k = frequency * spec.refractive_index
    if abs(frequency - nu_c) <= CUTOFF_REL_TOL * nu_c:
        raise DomainError(
            f"frequency {frequency!r} is degenerate with the cutoff "
            f"{nu_c!r} of {mode.polarization.value}({mode.m},{mode.n})")
    if frequency > nu_c:
        beta = math.sqrt(k * k - h * h)
        return ModeDispersion(h, k, Branch.PROPAGATING, beta, None)
    gamma = math.sqrt(h * h - k * k)
    return ModeDispersion(h, k, Branch.LOCALIZED, None, gamma)


def _axial(chans: Channels, rows, frequencies, h):
    # ``dispersion`` over nodes of channels ``rows``, with h the nodes'
    # transverse wavenumbers: the same checks and the same
    # sqrt(k^2 - h^2), so each element matches the scalar path to the
    # bit. Returns the frequencies, k, the above-cutoff mask and the
    # axial wavenumber above cutoff or the attenuation below it
    spec = chans.spec
    nu = np.asarray(frequencies, dtype=float)
    if (nu <= 0.0).any():
        raise DomainError("frequency must be positive")
    nu_c = h / spec.refractive_index
    degenerate = np.abs(nu - nu_c) <= CUTOFF_REL_TOL * nu_c
    if degenerate.any():
        i = int(np.flatnonzero(degenerate)[0])
        row = rows[i]
        mode = chans.modes[row]
        raise DomainError(
            f"frequency {float(nu[i])!r} is degenerate with the "
            f"cutoff {float(chans.cutoff[row])!r} of "
            f"{mode.polarization.value}({mode.m},{mode.n})")
    k = nu * spec.refractive_index
    return nu, k, nu > nu_c, np.sqrt(np.abs(k * k - h * h))
