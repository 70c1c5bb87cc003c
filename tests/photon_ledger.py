"""Photon-number bookkeeping for the correlation map, in closed form.

Photons are conserved. An emitter that decays at rate Gamma sends
Gamma / 2 * exp(-Gamma t) photons per unit time through its source
plane in each direction, and by time t the guide holds
1 - exp(-Gamma t) of them (Loudon, The Quantum Theory of Light, 3rd
ed., OUP 2000, on photon flux as group velocity times density). In
units hbar = eps0 = c = 1 a field on the guide's TE10 channel whose
squared amplitude is g1 on the crest x = a / 2 of its profile
sin(pi x / a) holds eps * g1 * (A / 2) / omega photons per unit
length, A / 2 being the profile's squared integral over the cross
section; they travel at the group velocity v_g = beta / (eps mu
omega).

Two forms of the squared amplitude along one direction, each with its
value C at the source plane at t = 0, fill the light cone t >= n dz of
a guide of index n:

    map form       C exp(2 beta_i dz - Gamma t), beta_i <= 0, the form
                   ``correlation_grid`` samples;
    retarded form  C exp(-Gamma (t - dz / v_g)) where the photon was
                   emitted after t = 0, dz <= v_g t < t / n, and zero
                   beyond.

Both give the same flux through the source plane. Their counts per
direction, the integrals over dz at fixed t, differ: the map's falls
like exp(-Gamma t), the retarded form's rises like 1 - exp(-Gamma t),
as conservation needs. This module imports nothing from wgqed.
"""

from __future__ import annotations

import math


def te10_wavenumber(width: float, eps: float, mu: float,
                    omega: float) -> float:
    """The TE10 channel's real axial wavenumber at ``omega``, above its
    cutoff."""
    return math.sqrt(eps * mu * omega ** 2 - (math.pi / width) ** 2)


def te10_group_velocity(width: float, eps: float, mu: float,
                        omega: float) -> float:
    """d omega / d beta of the TE10 channel."""
    return te10_wavenumber(width, eps, mu, omega) / (eps * mu * omega)


def source_flux(g1: float, width: float, height: float, eps: float,
                mu: float, omega: float) -> float:
    """Photons per unit time through a plane, one direction, for a TE10
    field with squared amplitude ``g1`` on its crest there."""
    density = eps * g1 * (width * height / 2.0) / omega
    return te10_group_velocity(width, eps, mu, omega) * density


def map_count(t: float, gamma: float, beta_i: float, n: float) -> float:
    """Integral of the map form exp(2 beta_i dz - gamma t) over
    0 <= dz <= t / n, for C = 1."""
    rate = 2.0 * abs(beta_i)
    return math.exp(-gamma * t) * -math.expm1(-rate * t / n) / rate


def retarded_count(t: float, gamma: float, group_velocity: float) -> float:
    """Integral of the retarded form exp(-gamma (t - dz / v_g)) over
    0 <= dz <= v_g t, for C = 1."""
    return group_velocity * -math.expm1(-gamma * t) / gamma
