"""Deterministic numerical primitives.

All routines here are bit-reproducible: refinement schedules are fixed
functions of their inputs, node sets come from cached Gauss-Legendre
rules, and no randomness or thread-dependent reduction order is used.

Integrand convention: callables passed to the quadrature routines must
accept a float ndarray of abscissae and return an ndarray of values
(real or complex) of the same shape, element by element. Each call
pays a fixed set-up cost, so the quadratures stack nodes. ``_lockstep``
refines many segments at once: one call covers every segment's 1-panel
and 2-panel rules and pole point, and each further panel doubling is
one call over the segments not yet accepted; past _LEVEL_NODES nodes
such a call splits into calls of whole rows, so memory stays bounded.
Its integrand also gets each node's segment index, so the nodes may
come in any order.
``integrate`` and ``pv_integrate`` are its one-segment uses. Each
interval's rule is summed as one contiguous row, so the stacking
changes no bit of any result.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import accumulate

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
# most nodes in one integrand call of ``_lockstep``; a row of an
# interval, at most QUAD_ORDER * 2**QUAD_MAX_REFINEMENTS nodes, is
# never split, so the budget bounds memory and changes no bit
_LEVEL_NODES = 2 ** 18


@lru_cache(maxsize=64)
def _gl_nodes(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], shared by every
    caller and therefore read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(a, b, order: int, panels: int):
    # one row of nodes per interval [a[i], b[i]], panel by panel, and
    # the panel half-widths that scale each panel's weights; the edges
    # are np.linspace's, which divides instead on a row whose step
    # underflows, so a row's nodes do not depend on the other rows
    x, _ = _gl_nodes(order)
    step = (b - a) / panels
    edges = np.arange(panels + 1) * step[:, None] + a[:, None]
    flat = step == 0.0
    if flat.any():
        edges[flat] = np.linspace(a[flat], b[flat], panels + 1, axis=-1)
    edges[:, -1] = b
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    return (mid[..., None] + half[..., None] * x).reshape(a.size, -1), half


def _panel_sum(vals, half, order: int):
    # one composite sum per row; a row is summed as one contiguous
    # run, so a stack of rows gives each row's bits of a lone sum
    _, w = _gl_nodes(order)
    terms = vals.reshape(half.shape + (order,)) * w * half[..., None]
    return terms.reshape(half.shape[0], -1).sum(axis=-1)


def _lockstep(f, segments, name=None):
    """Panel doubling on many segments at once.

    ``segments`` holds ``(a, b, pole)`` triples: with ``pole`` None
    the integral of f over [a, b], with a pole the principal value of
    f(x)/(x - pole) that ``pv_integrate`` defines. ``f(x, seg)`` gets
    the nodes of the segments still refining, in no promised order,
    with ``seg[i]`` the index of the segment of node i. The opening
    holds the 1-panel and 2-panel rules of every interval, then every
    pole point; each further doubling covers the intervals not yet
    accepted, each with its own stopping test. The opening and each
    doubling are one call, or several of whole intervals' rows when
    they exceed _LEVEL_NODES nodes.

    Returns ``(value, last_change)`` per segment, a principal value's
    change being the larger of its halves'. Raises the ConvergenceError
    of the first segment j that does not converge, its message ending
    with ``name(j)`` and the relative change reached if ``name`` is set.
    """
    if not segments:
        return []
    order = QUAD_ORDER
    # intervals (segment, a, b, pole): a principal value refines its
    # remainder on [a, pole] and [pole, b], so no panel straddles it
    spans = []
    for j, (a, b, pole) in enumerate(segments):
        spans += ([(j, a, b, math.nan)] if pole is None else
                  [(j, a, pole, pole), (j, pole, b, pole)])
    owner, lo, hi, at = np.array(spans, dtype=float).reshape(-1, 4).T
    owner = owner.astype(int)
    pv = ~np.isnan(at)
    left = np.zeros(owner.size, bool)
    left[np.flatnonzero(pv)[::2]] = True
    g_pole = None   # f(pole) per segment

    def call(nodes, rows, opening):
        # f on the rows' nodes, and at the opening on the pole points
        # of the left halves among them, after the nodes; a left half
        # comes first, so its pole is known to its right half; then
        # (f(x) - f(pole))/(x - pole) on the rows of a principal value
        nonlocal g_pole
        x, seg = nodes.ravel(), np.repeat(owner[rows], nodes.shape[1])
        if opening:
            poles = rows[left[rows]]
            x = np.concatenate((x, at[poles]))
            seg = np.concatenate((seg, owner[poles]))
        vals = np.asarray(f(x, seg))
        if opening:
            if g_pole is None:
                g_pole = np.zeros(len(segments), vals.dtype)
            g_pole[owner[poles]] = vals[nodes.size:]
            vals = vals[:nodes.size]
        vals = vals.reshape(nodes.shape).astype(
            np.result_type(vals.dtype, 1.0))
        rem = pv[rows]
        vals[rem] = ((vals[rem] - g_pole[owner[rows][rem], None])
                     / (nodes[rem] - at[rows][rem, None]))
        return vals

    def sums(rows, counts, opening=False):
        # each row's composite sum at each panel count, from calls of
        # whole rows and at most _LEVEL_NODES nodes (one row at least)
        ends = list(accumulate((order * p for p in counts), initial=0))
        size = max(1, _LEVEL_NODES // (ends[-1] + opening))
        parts = []
        for i in range(0, rows.size, size):
            chunk = rows[i:i + size]
            a, b = lo[chunk], hi[chunk]
            rules = [_panel_nodes(a, b, order, p) for p in counts]
            vals = call(np.concatenate([n for n, _ in rules], axis=1),
                        chunk, opening)
            parts.append([_panel_sum(vals[:, s:e], half, order)
                          for (_, half), s, e in zip(rules, ends, ends[1:])])
        return parts[0] if len(parts) == 1 else [
            np.concatenate(col) for col in zip(*parts)]

    live = np.arange(owner.size)
    prev, cur = sums(live, (1, 2), opening=True)
    change = [None] * owner.size
    for k in range(2, QUAD_MAX_REFINEMENTS + 2):
        for i in live.tolist():
            scale = max(abs(cur[i]), abs(prev[i]), 1e-300)
            change[i] = abs(cur[i] - prev[i]) / scale
        live = np.array([i for i in live.tolist()
                         if not change[i] < QUAD_REL_TOL], dtype=int)
        if not live.size or k > QUAD_MAX_REFINEMENTS:
            break
        prev[live] = cur[live]
        cur[live], = sums(live, (2 ** k,))
    if live.size:
        i = live[0]
        where = ("" if name is None else
                 f" on {name(owner[i])}, relative change {change[i]:.2g}")
        raise ConvergenceError(
            f"quadrature did not reach rel_tol={QUAD_REL_TOL:g} after "
            f"{QUAD_MAX_REFINEMENTS} refinements{where}", last=cur[i],
            previous=prev[i])
    out, i = [], 0
    for j, (a, b, pole) in enumerate(segments):
        if pole is None:
            out.append((cur[i], change[i]))
        else:
            out.append((cur[i] + cur[i + 1] + g_pole[j]
                        * math.log((b - pole) / (pole - a)),
                        max(change[i], change[i + 1])))
        i += 1 if pole is None else 2
    return out


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
    return _lockstep(lambda x, seg: f(x), [(a, b, None)])[0]


def pv_integrate(g, pole: float, a: float, b: float):
    """Principal value of g(x)/(x - pole) over [a, b] for a regular
    numerator ``g``. Requires a < pole < b.

    The singular part is subtracted and integrated in closed form,

        PV = int_a^b (g(x) - g(pole))/(x - pole) dx
             + g(pole) * ln((b - pole)/(pole - a)),

    and the regular remainder is integrated on [a, pole] and
    [pole, b] separately, so no panel straddles the removable point.
    One call of ``g`` covers the pole and the 1-panel and 2-panel
    rules of both halves; the halves then refine in lockstep, one
    call per further doubling of those not yet accepted.
    """
    if not (a < pole < b):
        raise ValueError("pole must lie strictly inside the window")
    return _lockstep(lambda x, seg: g(x), [(a, b, pole)])[0][0]


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

