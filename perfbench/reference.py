"""Independent reference for the windowed level shift.

``level_shift`` folds the integrand about the pole and shrinks an
excised core with composite Gauss-Legendre panels. This module
computes the same windowed principal value with QUADPACK instead
(Piessens et al., *QUADPACK*, Springer 1983): QAWC, the Cauchy-weight
rule, on segments that hold the transition frequency and QAGS on the
rest, through ``scipy.integrate.quad``.

Both integrate in the axial wavenumber t (attenuation constant below
cutoff), where the integrand is smooth at the cutoff. With
eps*mu*(omega^2 - nu^2) = -s*(t^2 - t0^2), s = +1 above cutoff and -1
below, and dnu/dt = s*t/(eps*mu*nu), the frequency integrand
weight*|g|^2/(omega - nu) dnu becomes g(t)/(t - t0) dt with

    g(t) = -(weight*t) * |g|^2 * (omega + nu) / (nu * (t + t0)),

regular at t0. The group-velocity state density is eps*mu*nu/(2*pi*t)
per unit length, so weight*t is evaluated in closed form with no
1/beta recomputed from nu; that recomputation is the source of the
near-cutoff noise a frequency-space reference picks up.
"""

from __future__ import annotations

import math
import warnings

from scipy.integrate import IntegrationWarning, quad

from wgqed.modes import CUTOFF_REL_TOL, Branch, cutoff_frequency
from wgqed.quantize import DensityModel, coupling_at

_EPSREL = 1e-11
_LIMIT = 400


def _weight_times_t(spec, box, model, branch, nu, t):
    if branch is Branch.LOCALIZED:
        return t
    eps_mu = spec.permittivity * spec.permeability
    if model is DensityModel.PHASE_VELOCITY:
        return box.length * math.sqrt(eps_mu) * t / (2.0 * math.pi)
    return box.length * eps_mu * nu / (2.0 * math.pi)


def _coupling_sq(spec, mode, atom, box, branch, nu):
    if branch is Branch.PROPAGATING:
        return sum(abs(coupling_at(spec, mode, nu, atom, box,
                                   direction=d)) ** 2 for d in (1, -1))
    return abs(coupling_at(spec, mode, nu, atom, box)) ** 2


def segment_shift(spec, atom, box, model, mode, branch, s_lo, s_hi):
    """Reference for one ``ShiftContribution``: the contribution of
    ``mode`` on ``branch`` over the frequency segment [s_lo, s_hi]."""
    omega = atom.transition_frequency
    eps_mu = spec.permittivity * spec.permeability
    nu_c = cutoff_frequency(spec, mode)
    h = nu_c * spec.refractive_index
    s = 1.0 if branch is Branch.PROPAGATING else -1.0
    band = 2.0 * CUTOFF_REL_TOL * nu_c

    def t_of(nu):
        return math.sqrt(max(s * (eps_mu * nu * nu - h * h), 0.0))

    def nu_of(t):
        nu = math.sqrt((h * h + s * t * t) / eps_mu)
        if abs(nu - nu_c) < band:
            nu = nu_c + s * band
        return nu

    def common(t):
        nu = nu_of(t)
        return nu, (_weight_times_t(spec, box, model, branch, nu, t)
                    * _coupling_sq(spec, mode, atom, box, branch, nu))

    t_a, t_b = t_of(s_lo), t_of(s_hi)
    sign = 1.0
    if t_a > t_b:
        t_a, t_b, sign = t_b, t_a, -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        if s_lo < omega < s_hi:
            t0 = t_of(omega)

            def regular(t):
                nu, wc = common(t)
                return -wc * (omega + nu) / (nu * (t + t0))

            value, _ = quad(regular, t_a, t_b, weight="cauchy", wvar=t0,
                            epsabs=0.0, epsrel=_EPSREL, limit=_LIMIT)
        else:
            def plain(t):
                nu, wc = common(t)
                return s * wc / (eps_mu * nu * (omega - nu))

            value, _ = quad(plain, t_a, t_b, epsabs=0.0, epsrel=_EPSREL,
                            limit=_LIMIT)
    return -sign * value


def check_shift(spec, atom, box, model, shift, rel_tol) -> str | None:
    """Compare every contribution of a ``ShiftResult`` with its
    reference. Returns None when all agree, else a one-line reason.

    The tolerance is relative to the sum of the contributions'
    magnitudes, because contributions of opposite sign can cancel the
    total to near zero."""
    try:
        refs = [segment_shift(spec, atom, box, model, con.mode,
                              con.branch, *con.window)
                for con in shift.contributions]
    except IntegrationWarning as warn:
        return f"QUADPACK reference did not converge: {warn}"
    scale = sum(abs(r) for r in refs)
    worst = 0.0
    for con, ref in zip(shift.contributions, refs):
        worst = max(worst, abs(con.value - ref))
    total_err = abs(shift.value - sum(refs))
    if max(worst, total_err) > rel_tol * scale:
        return (f"level shift {shift.value!r} differs from the QUADPACK "
                f"reference {sum(refs)!r}: worst error "
                f"{max(worst, total_err):.3g} > {rel_tol:g} x {scale:.3g}")
    return None
