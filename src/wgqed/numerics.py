"""Deterministic numerical primitives.

All routines here are bit-reproducible: refinement schedules are fixed
functions of their inputs, node sets come from cached Gauss-Legendre
rules, and no randomness or thread-dependent reduction order is used.

Integrand convention: callables passed to the quadrature routines must
accept a float ndarray of abscissae and return an ndarray of values
(real or complex) of the same shape.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, NoCrossingError


# composite Gauss-Legendre rule of ``integrate``: nodes per panel (a
# panel of order p is exact to degree 2p-1 and the composite rule
# converges at order 2p in the panel width on smooth integrands), the
# relative change between successive refinements at which a result is
# accepted, and the number of panel doublings tried before giving up
QUAD_ORDER = 20
QUAD_REL_TOL = 1e-12
QUAD_MAX_REFINEMENTS = 12


@lru_cache(maxsize=64)
def _gl_nodes(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], shared by every
    caller and therefore read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_values(f, a: float, b: float, order: int, panels: int):
    x, w = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    # nodes for all panels stacked into one evaluation
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    vals = np.asarray(f(pts)).reshape(panels, order)
    return np.sum(vals * w[None, :] * half[:, None])


def integrate(f, a: float, b: float):
    """Integrate ``f`` over [a, b] with panel-doubling Gauss-Legendre.

    Returns ``(value, last_change)`` where ``last_change`` is the
    relative change produced by the final refinement. Raises
    ConvergenceError when the change never drops below QUAD_REL_TOL
    within QUAD_MAX_REFINEMENTS doublings.
    """
    if b == a:
        return 0.0, 0.0
    prev = _panel_values(f, a, b, QUAD_ORDER, 1)
    cur = prev
    for k in range(1, QUAD_MAX_REFINEMENTS + 1):
        cur = _panel_values(f, a, b, QUAD_ORDER, 2 ** k)
        scale = max(abs(cur), abs(prev), 1e-300)
        change = abs(cur - prev) / scale
        if change < QUAD_REL_TOL:
            return cur, change
        if k < QUAD_MAX_REFINEMENTS:
            prev = cur
    raise ConvergenceError(
        f"quadrature did not reach rel_tol={QUAD_REL_TOL:g} after "
        f"{QUAD_MAX_REFINEMENTS} refinements", last=cur, previous=prev)


def pv_integrate(g, pole: float, a: float, b: float):
    """Principal value of g(x)/(x - pole) over [a, b] for a regular
    numerator ``g``. Requires a < pole < b.

    The singular part is subtracted and integrated in closed form,

        PV = int_a^b (g(x) - g(pole))/(x - pole) dx
             + g(pole) * ln((b - pole)/(pole - a)),

    and the regular remainder is integrated on [a, pole] and
    [pole, b] separately, so no panel straddles the removable point.
    """
    if not (a < pole < b):
        raise ValueError("pole must lie strictly inside the window")
    g_pole = g(np.array([pole]))[0]

    def remainder(x):
        return (g(x) - g_pole) / (x - pole)

    left, _ = integrate(remainder, a, pole)
    right, _ = integrate(remainder, pole, b)
    return left + right + g_pole * math.log((b - pole) / (pole - a))


def principal_csqrt(w: complex) -> complex:
    """Principal complex square root: the branch with Re >= 0.

    For negative real arguments the result is +i*sqrt(|w|), i.e. ties
    on the imaginary axis are broken toward non-negative imaginary
    part. Negative zero components are normalized away so equal inputs
    give bit-identical outputs.
    """
    r = cmath.sqrt(complex(w))
    return complex(r.real + 0.0, r.imag + 0.0)


def find_root(g, lo: float, hi: float, rel_tol: float = 1e-12,
              max_iter: int = 200) -> float:
    """Bisection root of ``g`` on [lo, hi].

    The bracket is shrunk until its width is below ``rel_tol`` times
    the midpoint magnitude (or absolute width for roots near zero).
    Raises NoCrossingError when g(lo) and g(hi) have the same sign and
    ConvergenceError, carrying the last bracket, when ``max_iter``
    halvings do not reach ``rel_tol``.
    """
    if not (hi > lo):
        raise ValueError("need hi > lo")
    glo = g(lo)
    ghi = g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo > 0.0) == (ghi > 0.0):
        raise NoCrossingError(
            "no sign change over the scanned bracket",
            scanned_range=(lo, hi), value_range=(glo, ghi))
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        width = hi - lo
        if width <= rel_tol * max(abs(mid), 1.0e-30):
            return mid
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection did not reach rel_tol={rel_tol:g} after {max_iter} "
        f"iterations; last bracket [{lo!r}, {hi!r}]", last=lo,
        previous=hi)

