"""The golden-rule decay rate per guided channel, from a long
cavity's textbook modes.

A perfectly conducting cavity of length L, long against the emitted
wavelength, holds each TE and TM pattern of the guide as standing
waves with axial wavenumbers p * pi / L, so per pattern its modes are
spaced in frequency by pi * v_g / L, with v_g = beta / (eps mu omega)
the group velocity. In units hbar = eps0 = c = 1, a mode u normalized
to the integral of eps |u|^2 over the cavity couples to a dipole d
with |g|^2 = omega |d . u|^2 / 2. Over neighbouring modes the standing
wave's sin^2 and cos^2 along z average to 1/2 and their cross term to
zero, so Fermi's golden rule gives each pattern's rate, both
directions of travel together,

    Gamma_mn = omega Q_mn / (eps v_g),
    Q_mn = (|d_t . E_t(x0, y0)|^2 + |d_z E_z(x0, y0)|^2)
           / integral of |E_t|^2 + |E_z|^2 over the cross section,

for the closed-form patterns, with k = (m pi / a, n pi / b) and
h = |k|:

    TE   E_t = z^ x grad(cos(kx x) cos(ky y)),  E_z = 0
    TM   E_t = beta grad(sin(kx x) sin(ky y)),  E_z = h^2 sin sin

Q does not depend on the patterns' scale, and the cross-section
integrals of sin^2 and cos^2 are a / 2, b / 2, or a, b and 0 for a zero
index, so nothing here integrates numerically. In a guide many
wavelengths wide the sum over patterns tends to the bulk medium's
omega^3 |d|^2 n mu / (3 pi). This module imports nothing from wgqed.
"""

from __future__ import annotations

import math


def _squares(k: float, length: float) -> tuple[float, float]:
    # the integrals of cos^2(k x) and sin^2(k x) over [0, length], for k
    # a whole number of half waves
    return (length / 2.0, length / 2.0) if k else (length, 0.0)


def channel_rates(width: float, height: float, eps: float, mu: float,
                  position: tuple, dipole: tuple,
                  omega: float) -> dict[tuple[str, int, int],
                                        tuple[float, float]]:
    """``{(polarization, m, n): (Gamma_mn, beta)}`` over every pattern
    whose cutoff lies below ``omega``: its rate, both directions
    together, and its axial wavenumber. ``position`` is (x0, y0) or
    (x0, y0, z0), of which z0 does not matter; ``dipole`` is three
    complex components."""
    x, y = position[:2]
    dx, dy, dz = dipole
    k = omega * math.sqrt(eps * mu)
    rates = {}
    for m in range(int(k * width / math.pi) + 1):
        for n in range(int(k * height / math.pi) + 1):
            kx, ky = m * math.pi / width, n * math.pi / height
            h2 = kx * kx + ky * ky
            if not 0.0 < h2 < k * k:
                continue
            beta = math.sqrt(k * k - h2)
            group_velocity = beta / (eps * mu * omega)
            cos_x, sin_x = _squares(kx, width)
            cos_y, sin_y = _squares(ky, height)
            cx, sx = math.cos(kx * x), math.sin(kx * x)
            cy, sy = math.cos(ky * y), math.sin(ky * y)
            patterns = [("TE", (ky * cx * sy, -kx * sx * cy, 0.0),
                         ky * ky * cos_x * sin_y + kx * kx * sin_x * cos_y)]
            if m and n:
                patterns.append((
                    "TM", (beta * kx * cx * sy, beta * ky * sx * cy,
                           h2 * sx * sy),
                    (beta * beta + h2) * h2 * sin_x * sin_y))
            for polarization, (ex, ey, ez), norm in patterns:
                q = (abs(dx * ex + dy * ey) ** 2 + abs(dz * ez) ** 2) / norm
                rates[polarization, m, n] = (omega * q
                                             / (eps * group_velocity), beta)
    return rates
