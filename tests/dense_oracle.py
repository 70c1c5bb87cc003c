"""The continuum oracle as it was, one dense arrowhead over every cell.

``wgqed.emission.amplitudes_ode_oracle`` diagonalizes one arrowhead
row per distinct frequency, the bright combination of that frequency's
cells. This module keeps the version it replaced, verbatim: an
(N + 1)^2 arrowhead over all N cells, O(N^3) time and O(N^2) memory.
The tests require the deflated oracle to give the same amplitudes.
"""

from __future__ import annotations

import numpy as np

from wgqed.emission import ContinuumCells
from wgqed.errors import DomainError


def amplitudes_ode_oracle(times, cells: ContinuumCells,
                          transition_frequency: float):
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise DomainError("time grid must start at zero")
    g = cells.discrete_coupling
    detune = cells.frequency - transition_frequency
    h_r = np.diag(np.concatenate(([0.0], detune)))
    h_r[0, 1:] = h_r[1:, 0] = np.abs(g)
    lam, v = np.linalg.eigh(h_r)
    psi = v @ (np.exp(-1j * np.outer(lam, times)) * v[0][:, None])
    gauge = np.exp(-1j * np.angle(g))[:, None]
    c_b = gauge * np.exp(1j * np.outer(detune, times)) * psi[1:]
    return psi[0], c_b
