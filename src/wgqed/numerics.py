"""Deterministic numerical primitives.

All routines here are bit-reproducible: refinement schedules are fixed
functions of their inputs, node sets come from cached Gauss-Legendre
rules, and no randomness or thread-dependent reduction order is used.

Integrand convention: callables passed to the quadrature routines must
accept a float ndarray of abscissae and return an ndarray of values
(real or complex) of the same shape, element by element. Each call
pays a fixed set-up cost, so the quadratures stack nodes: ``integrate``
evaluates its 1-panel and 2-panel rules in one call, and
``pv_integrate`` evaluates the pole point and both halves' 1-panel and
2-panel rules in one call. Every further panel doubling is one call.
Sums are taken over slices shaped as ``_panel_values`` shapes them, so
the stacking changes no bit of any result.
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


def _panel_nodes(a: float, b: float, order: int, panels: int):
    # nodes for all panels stacked into one array, panel by panel, and
    # the panel half-widths that scale each panel's weights
    x, _ = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), half


def _panel_sum(vals, half, order: int):
    _, w = _gl_nodes(order)
    vals = np.asarray(vals).reshape(half.size, order)
    return np.sum(vals * w[None, :] * half[:, None])


def _panel_values(f, a: float, b: float, order: int, panels: int):
    pts, half = _panel_nodes(a, b, order, panels)
    return _panel_sum(f(pts), half, order)


def _opening(a: float, b: float):
    """Nodes of the 1-panel and 2-panel rules on [a, b] in one array,
    so one integrand call serves both, and the pair of their panel
    half-width arrays."""
    x0, half0 = _panel_nodes(a, b, QUAD_ORDER, 1)
    x1, half1 = _panel_nodes(a, b, QUAD_ORDER, 2)
    return np.concatenate((x0, x1)), (half0, half1)


def _refine(f, a: float, b: float, opening, halves):
    """Panel doubling on [a, b] from ``opening``, the integrand's values
    at the nodes of ``_opening(a, b)``, which also returned ``halves``;
    each level past the second is one call of ``f``."""
    prev = _panel_sum(opening[:QUAD_ORDER], halves[0], QUAD_ORDER)
    cur = _panel_sum(opening[QUAD_ORDER:], halves[1], QUAD_ORDER)
    for k in range(1, QUAD_MAX_REFINEMENTS + 1):
        if k > 1:
            prev, cur = cur, _panel_values(f, a, b, QUAD_ORDER, 2 ** k)
        scale = max(abs(cur), abs(prev), 1e-300)
        change = abs(cur - prev) / scale
        if change < QUAD_REL_TOL:
            return cur, change
    raise ConvergenceError(
        f"quadrature did not reach rel_tol={QUAD_REL_TOL:g} after "
        f"{QUAD_MAX_REFINEMENTS} refinements", last=cur, previous=prev)


def integrate(f, a: float, b: float):
    """Integrate ``f`` over [a, b] with panel-doubling Gauss-Legendre.

    The 1-panel and 2-panel rules, which every result compares, share
    one call of ``f``; each further doubling is one more call.

    Returns ``(value, last_change)`` where ``last_change`` is the
    relative change produced by the final refinement. Raises
    ConvergenceError when the change never drops below QUAD_REL_TOL
    within QUAD_MAX_REFINEMENTS doublings.
    """
    if b == a:
        return 0.0, 0.0
    x, halves = _opening(a, b)
    return _refine(f, a, b, f(x), halves)


def pv_integrate(g, pole: float, a: float, b: float):
    """Principal value of g(x)/(x - pole) over [a, b] for a regular
    numerator ``g``. Requires a < pole < b.

    The singular part is subtracted and integrated in closed form,

        PV = int_a^b (g(x) - g(pole))/(x - pole) dx
             + g(pole) * ln((b - pole)/(pole - a)),

    and the regular remainder is integrated on [a, pole] and
    [pole, b] separately, so no panel straddles the removable point.
    One call of ``g`` covers the pole and the 1-panel and 2-panel
    rules of both halves; each half then refines as ``integrate``
    does, the left half first, one call per further doubling.
    """
    if not (a < pole < b):
        raise ValueError("pole must lie strictly inside the window")
    x_left, halves_left = _opening(a, pole)
    x_right, halves_right = _opening(pole, b)
    x = np.concatenate(([pole], x_left, x_right))
    gx = np.asarray(g(x))
    g_pole = gx[0]

    def remainder(x):
        return (g(x) - g_pole) / (x - pole)

    r = (gx[1:] - g_pole) / (x[1:] - pole)
    left, _ = _refine(remainder, a, pole, r[:x_left.size], halves_left)
    right, _ = _refine(remainder, pole, b, r[x_left.size:], halves_right)
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

