"""Scan-and-bisect oracle for the rate-ratio crossing.

``wgqed.detection.omega_d`` solves the crossing in closed form. This
module finds it with no pole algebra beyond ``pole`` itself: it scans
a logarithmic grid of line centers over [1e-3, 1e4] * sqrt(h^2/c) for
a sign change of |spatial rate| / rate - n and bisects the first one.
Without a sign change it raises NoCrossingError carrying the ratio
range it saw.
"""

import math

import numpy as np

from wgqed.detection import RadicandModel, pole
from wgqed.errors import NoCrossingError
from wgqed.numerics import find_root


def scanned_crossing(spec, decay_rate,
                     model=RadicandModel.SINGLE_INDEX, samples=600):
    """The crossing line center of the first sign change on a
    ``samples``-point scan, refined by ``find_root``."""
    target = spec.refractive_index
    nu_ref = math.sqrt((math.pi / spec.width) ** 2
                       / model.coefficient(spec))
    lo, hi = 1.0e-3 * nu_ref, 1.0e4 * nu_ref

    def excess(omega):
        res = pole(spec, float(omega), decay_rate, model)
        return abs(res.spatial_rate) / decay_rate - target

    grid = np.geomspace(lo, hi, samples)
    vals = np.array([excess(w) for w in grid])
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if flips.size == 0:
        ratios = vals + target
        raise NoCrossingError(
            "the rate ratio never meets the refractive index along the "
            "scan", scanned_range=(lo, hi),
            value_range=(float(ratios.min()), float(ratios.max())))
    j = int(flips[0])
    return find_root(excess, float(grid[j]), float(grid[j + 1]))
