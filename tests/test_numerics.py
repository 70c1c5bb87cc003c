"""Tests for the numerical primitives."""

import math

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from wgqed import numerics
from wgqed.errors import ConvergenceError, NoCrossingError
from wgqed.numerics import (
    QUAD_MAX_REFINEMENTS,
    QUAD_ORDER,
    QUAD_REL_TOL,
    _gl_nodes,
    _lockstep,
    _panel_nodes,
    find_root,
    integrate,
    principal_csqrt,
    pv_integrate,
)


def _panel_values(f, a, b, order, panels):
    # one composite rule on [a, b], one call of f, written for one
    # interval at a time as the library once had it
    x, w = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    vals = f((mid[:, None] + half[:, None] * x[None, :]).ravel())
    vals = np.asarray(vals).reshape(panels, order)
    return np.sum(vals * w[None, :] * half[:, None])


def reference_integrate(f, a, b):
    """``integrate`` written level by level, one ``_panel_values`` call
    per panel count. Returns (value, last_change, accepted level)."""
    prev = _panel_values(f, a, b, QUAD_ORDER, 1)
    for k in range(1, QUAD_MAX_REFINEMENTS + 1):
        cur = _panel_values(f, a, b, QUAD_ORDER, 2 ** k)
        change = abs(cur - prev) / max(abs(cur), abs(prev), 1e-300)
        if change < QUAD_REL_TOL:
            return cur, change, k
        if k < QUAD_MAX_REFINEMENTS:
            prev = cur
    raise ConvergenceError("reference did not converge", last=cur,
                           previous=prev)


def lorentzian(center, width, freq=0.0):
    # narrower peaks need more panel doublings on [0, 1]: width 1 is
    # accepted at level 1, 0.1 at level 3 and 0.01 at level 6
    return lambda x: (np.exp(1j * freq * x)
                      / ((x - center) ** 2 + width ** 2))


class Counted:
    """An integrand that counts its calls."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


class TestIntegrate:
    def test_polynomial_exact(self):
        # degree 2 is far below 2*order-1, so one panel is exact
        val, _ = integrate(lambda x: x ** 2, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_sine_over_half_period(self):
        val, _ = integrate(np.sin, 0.0, math.pi)
        assert val == pytest.approx(2.0, rel=1e-13)

    def test_empty_interval(self):
        val, change = integrate(np.exp, 2.0, 2.0)
        assert val == 0.0 and change == 0.0

    def test_complex_integrand(self):
        val, _ = integrate(lambda x: np.exp(1j * x), 0.0, math.pi)
        assert val == pytest.approx(2j, rel=1e-13)

    def test_convergence_order(self):
        # refine a low-order rule by hand and fit the observed order;
        # nominal is 2p for smooth integrands
        order = 3
        f = lambda x: np.exp(x) * np.sin(3.0 * x)
        exact, _ = integrate(f, 0.0, 2.0)
        panels = np.array([4, 8, 16, 32])
        errs = np.array([abs(_panel_values(f, 0.0, 2.0, order, int(n)) - exact)
                         for n in panels])
        slope = np.polyfit(np.log(panels), np.log(errs), 1)[0]
        assert -slope > 2 * order - 0.5

    def test_nonconvergent_raises_with_iterates(self):
        # the kink of |x|^0.1 at 0 holds the relative change of every
        # panel doubling far above the fixed rule's tolerance
        with pytest.raises(ConvergenceError) as exc:
            integrate(lambda x: np.abs(x) ** 0.1, -1.0, 1.0)
        assert exc.value.last is not None
        assert exc.value.previous is not None
        assert exc.value.last != exc.value.previous

    @given(st.floats(-1.0, 0.0), st.floats(0.5, 2.0), st.floats(0.0, 1.0),
           st.floats(0.01, 2.0), st.floats(0.0, 100.0), st.booleans())
    def test_bit_identical_to_level_by_level_loop(self, a, length, center,
                                                  width, freq, real):
        # bounds off the dyadic grid, so panel widths round
        b = a + length
        f = lorentzian(center, width, freq)
        if real:
            f = (lambda g: lambda x: g(x).real)(f)
        want, want_change, level = reference_integrate(f, a, b)
        counted = Counted(f)
        value, change = integrate(counted, a, b)
        assert value == want and change == want_change
        assert counted.calls == level

    @pytest.mark.parametrize("width,level", [
        (1.0, 1), (0.3, 2), (0.1, 3), (0.05, 4), (0.03, 5), (0.01, 6)])
    def test_one_call_per_accepted_level(self, width, level):
        # the 1-panel and 2-panel rules share the first call
        f = lorentzian(0.37, width)
        want, want_change, accepted = reference_integrate(f, 0.0, 1.0)
        assert accepted == level
        counted = Counted(f)
        assert integrate(counted, 0.0, 1.0) == (want, want_change)
        assert counted.calls == level

    def test_nonconvergence_matches_level_by_level_loop(self):
        f = lambda x: np.abs(x) ** 0.1
        with pytest.raises(ConvergenceError) as want:
            reference_integrate(f, -1.0, 1.0)
        counted = Counted(f)
        with pytest.raises(ConvergenceError) as got:
            integrate(counted, -1.0, 1.0)
        assert got.value.last == want.value.last
        assert got.value.previous == want.value.previous
        assert counted.calls == QUAD_MAX_REFINEMENTS

    def test_underflowing_step_keeps_linspace_edges(self):
        # three subnormal ulps over two or more panels: the step rounds
        # to zero, and the edges are still those np.linspace gives
        f = lambda x: np.full_like(x, 1e300)
        want, want_change, _ = reference_integrate(f, 0.0, 3 * 5e-324)
        assert integrate(f, 0.0, 3 * 5e-324) == (want, want_change)

    def test_shared_rule_is_read_only(self):
        # every caller gets the same cached arrays
        from wgqed.numerics import _gl_nodes
        x, w = _gl_nodes(7)
        assert _gl_nodes(7)[0] is x
        want_x, want_w = np.polynomial.legendre.leggauss(7)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr *= 2.0


class TestPVIntegrate:
    """``pv_integrate(g, pole, a, b)`` is the principal value of
    g(x)/(x - pole) for a regular numerator g."""

    def test_log_pole_value(self):
        # PV of 1/(x-1) over [0, 3] = ln(2)
        val = pv_integrate(np.ones_like, 1.0, 0.0, 3.0)
        assert val == pytest.approx(math.log(2.0), rel=1e-8)

    def test_symmetric_window_is_zero(self):
        val = pv_integrate(np.ones_like, 0.0, -2.0, 2.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_regular_factor(self):
        # PV int_0^2 x/(x-1) dx = 2 + ln(1) = 2
        val = pv_integrate(lambda x: x, 1.0, 0.0, 2.0)
        assert val == pytest.approx(2.0, rel=1e-8)

    def test_pole_outside_rejected(self):
        with pytest.raises(ValueError):
            pv_integrate(np.ones_like, 5.0, 0.0, 3.0)

    @staticmethod
    def reference(g, pole, a, b):
        # g(pole), the two halves of the remainder integrated level by
        # level, and the log term; returns the accepted levels as well
        g_pole = g(np.array([pole]))[0]

        def remainder(x):
            return (g(x) - g_pole) / (x - pole)

        left, _, k_left = reference_integrate(remainder, a, pole)
        right, _, k_right = reference_integrate(remainder, pole, b)
        value = left + right + g_pole * math.log((b - pole) / (pole - a))
        return value, k_left, k_right

    @given(st.floats(-1.0, 0.0), st.floats(0.5, 2.0),
           st.floats(0.01, 0.99), st.floats(0.0, 1.0),
           st.floats(0.01, 2.0), st.floats(0.0, 100.0))
    def test_bit_identical_to_reference(self, a, length, at, center,
                                        width, freq):
        b = a + length
        pole = a + at * length
        g = lorentzian(center, width, freq)
        counted = Counted(g)
        try:
            want, k_left, k_right = self.reference(g, pole, a, b)
        except ConvergenceError as err:
            # a half that never settles raises the same iterates
            with pytest.raises(ConvergenceError) as got:
                pv_integrate(counted, pole, a, b)
            assert (got.value.last, got.value.previous) == (
                err.last, err.previous)
            assert counted.calls == QUAD_MAX_REFINEMENTS
            return
        assert pv_integrate(counted, pole, a, b) == want
        # one call opens both halves, then one per further doubling
        # of the halves not yet accepted, which refine in lockstep
        assert counted.calls == 1 + max(k_left, k_right) - 1

    def test_one_call_when_both_halves_open_converged(self):
        # the remainder of a quadratic numerator is linear, so both
        # halves are accepted at level 1
        g = lambda x: x * x + 1.0
        want, k_left, k_right = self.reference(g, 1.0, 0.0, 3.0)
        assert (k_left, k_right) == (1, 1)
        counted = Counted(g)
        assert pv_integrate(counted, 1.0, 0.0, 3.0) == want
        assert counted.calls == 1

    def test_against_quadpack_cauchy_rule(self):
        # QUADPACK's QAWC computes the same principal value by its own
        # modified Clenshaw-Curtis rule on the Cauchy weight
        from scipy.integrate import quad
        ref, _ = quad(np.cos, 0.0, 3.0, weight="cauchy", wvar=1.0,
                      epsabs=0.0, epsrel=1e-13)
        assert pv_integrate(np.cos, 1.0, 0.0, 3.0) == pytest.approx(
            ref, rel=1e-12)


class TestLockstep:
    # plain and principal-value segments, overlapping, out of order and
    # refined to different depths: peaks of width 1, 0.1 and 0.01
    SEGMENTS = [(0.0, 1.0, None), (-1.0, 2.0, 0.3), (2.0, 5.0, None),
                (1.0, 3.0, 2.5)]
    CENTERS = np.array([0.5, 0.9, 3.1, 1.7])
    WIDTHS = np.array([0.01, 1.0, 0.1, 0.01])

    def peak(self, x, seg):
        return 1.0 / ((x - self.CENTERS[seg]) ** 2 + self.WIDTHS[seg] ** 2)

    def test_each_node_names_its_segment(self):
        calls = []

        def recording(x, seg):
            calls.append((x.copy(), seg.copy()))
            return self.peak(x, seg)

        got = _lockstep(recording, self.SEGMENTS)
        assert len(calls) > 2
        lo, hi = (np.array([s[i] for s in self.SEGMENTS]) for i in (0, 1))
        for x, seg in calls:
            assert x.shape == seg.shape
            assert ((lo[seg] <= x) & (x <= hi[seg])).all()
        # the opening carries every pole point, once, with its owner
        x, seg = calls[0]
        for j, (_, _, at) in enumerate(self.SEGMENTS):
            assert np.count_nonzero((x == at) & (seg == j)) == (
                0 if at is None else 1)
        # and each segment gets the bits of its lone integral
        for j, (a, b, at) in enumerate(self.SEGMENTS):
            def alone(x, j=j):
                return self.peak(x, np.full(x.shape, j))
            want = (integrate(alone, a, b) if at is None
                    else (pv_integrate(alone, at, a, b),))
            assert got[j][0] == want[0]

    @pytest.mark.parametrize("panels", [7, 12])
    def test_a_row_gets_its_nodes_whatever_its_batch(self, panels):
        # the second interval's step underflows, so its edges divide
        # as np.linspace's do; the first keeps the nodes of its own
        a, b = np.array([0.3, 0.0]), np.array([1.7, 5e-324])
        both, _ = _panel_nodes(a, b, QUAD_ORDER, panels)
        for i in range(2):
            alone, _ = _panel_nodes(a[i:i + 1], b[i:i + 1], QUAD_ORDER,
                                    panels)
            assert both[i].tobytes() == alone[0].tobytes()

    def test_a_named_failure_ends_with_its_segment(self):
        # |x - 1|^0.1 never settles on the second segment; without a
        # name the message is integrate's and pv_integrate's
        def kink(x, seg):
            return np.where(seg == 1, np.abs(x - 1.0) ** 0.1, 1.0)

        segments = [(0.0, 1.0, None), (0.0, 2.0, None)]
        with pytest.raises(ConvergenceError) as plain:
            _lockstep(kink, segments)
        base = (f"quadrature did not reach rel_tol={QUAD_REL_TOL:g} "
                f"after {QUAD_MAX_REFINEMENTS} refinements")
        assert str(plain.value) == base
        with pytest.raises(ConvergenceError) as named:
            _lockstep(kink, segments, lambda j: f"segment {j}")
        last, previous = named.value.last, named.value.previous
        change = abs(last - previous) / max(abs(last), abs(previous))
        assert str(named.value) == \
            f"{base} on segment 1, relative change {change:.2g}"
        for bad in (lambda: integrate(lambda x: np.abs(x) ** 0.1, -1, 1),
                    lambda: pv_integrate(lambda x: np.abs(x) ** 0.1,
                                         0.5, -1.0, 1.0)):
            with pytest.raises(ConvergenceError) as exc:
                bad()
            assert str(exc.value) == base

    def test_no_call_exceeds_the_node_budget(self):
        # eight intervals that never settle (a step in each): at 2**11
        # panels a level of 327,680 nodes splits into calls of six rows
        # and two, at 2**12 into calls of three, three and two rows
        segments = [(0.0, 1.0, None), (0.1, 1.1, 0.6), (0.0, 2.0, None),
                    (0.5, 1.5, None), (0.2, 1.2, 0.9), (0.0, 0.5, None)]
        sizes = []

        def step(x, seg):
            sizes.append(x.size)
            return np.floor(7.3 * x) + seg

        with pytest.raises(ConvergenceError):
            _lockstep(step, segments)
        assert max(sizes) <= numerics._LEVEL_NODES
        # the opening holds 8 rows of 60 nodes and the two pole points
        assert sizes[0] == 8 * 3 * QUAD_ORDER + 2
        row = QUAD_ORDER * 2 ** 11
        assert sizes[-5:] == [6 * row, 2 * row, 6 * row, 6 * row, 4 * row]
        assert len(sizes) == 1 + (QUAD_MAX_REFINEMENTS - 3) + 2 + 3


class TestPrincipalCsqrt:
    def test_negative_real_goes_up(self):
        assert principal_csqrt(-4.0) == pytest.approx(2j)

    def test_positive_real(self):
        assert principal_csqrt(9.0) == pytest.approx(3.0)

    @given(st.complex_numbers(max_magnitude=1e8, allow_nan=False,
                              allow_infinity=False))
    def test_square_recovers_input(self, w):
        r = principal_csqrt(w)
        assert r.real >= 0.0
        assert abs(r * r - w) <= 1e-9 * max(abs(w), 1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=1e-6, max_value=1e6))
    def test_lower_half_plane_input(self, x, y):
        # inputs just below the negative real axis must map to the
        # Re>0, Im<0 quadrant (principal branch, cut on (-inf, 0))
        r = principal_csqrt(complex(-x, -y))
        assert r.real > 0.0
        assert r.imag < 0.0


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 0.7, 0.0, 2.0) == pytest.approx(0.7)

    def test_cubic(self):
        r = find_root(lambda x: x ** 3 - 2.0, 0.0, 2.0)
        assert r == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-11)

    def test_no_crossing_reports_ranges(self):
        with pytest.raises(NoCrossingError) as exc:
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)
        assert exc.value.scanned_range == (-1.0, 1.0)
        assert exc.value.value_range == (2.0, 2.0)

    def test_endpoint_root(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0
        assert find_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    @pytest.mark.parametrize("hi", [1.0, 0.5])
    def test_bracket_must_increase(self, hi):
        with pytest.raises(ValueError) as info:
            find_root(lambda x: x, 1.0, hi)
        assert str(info.value) == "need hi > lo"

    def test_iteration_cap_raises_with_bracket(self):
        # five halvings cannot reach the tolerance; the last bracket
        # still holds the root
        with pytest.raises(ConvergenceError) as exc:
            find_root(lambda x: x - 0.3, 0.0, 1.0, rel_tol=1e-300,
                      max_iter=5)
        lo, hi = sorted((exc.value.last, exc.value.previous))
        assert lo <= 0.3 <= hi
        assert hi - lo == 1.0 / 32.0

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.booleans(),
           st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=-1e3, max_value=1e3).filter(
               lambda s: abs(s) >= 1e-3))
    def test_linear_root_within_tolerance(self, size, negative, below,
                                          above, slope):
        root = -size if negative else size
        lo, hi = root - below, root + above
        found = find_root(lambda x: slope * (x - root), lo, hi)
        assert abs(found - root) <= 1e-12 * abs(found)


class TestFsum:
    """``math.fsum`` carries every library sum whose terms can cancel
    (decay channels, shift contributions, photon norms, the brute
    force wavenumber quadrature); these pin the properties relied on."""

    def test_many_small_terms(self):
        assert math.fsum([0.1] * 10_000_000) == pytest.approx(1e6,
                                                              abs=1e-6)

    def test_cancellation(self):
        # a large term arriving after small ones
        assert math.fsum([1.0, 1e100, 1.0, -1e100]) == 2.0

    def test_complex(self):
        # complex sums go through the real and imaginary parts
        vals = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1000,
                                       endpoint=False))
        total = complex(math.fsum(vals.real), math.fsum(vals.imag))
        assert abs(total) < 1e-10

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=100))
    def test_exactly_rounded(self, xs):
        assert math.fsum(xs) == float(sum(map(Fraction, xs)))
