"""Tests for the waveguide mode catalogue and field evaluation."""

import math
import sys

import numpy as np
import pytest

from wgqed import modes
from wgqed.errors import DomainError
from wgqed.modes import (
    Branch,
    ModeIndex,
    POLARIZATIONS,
    Polarization,
    WaveguideSpec,
    cutoff_frequency,
    dispersion,
    field_at,
    mode_divergence_residual,
    mode_helmholtz_residual,
    mode_table,
    modes_below,
    transverse_wavenumber,
)

GUIDE = WaveguideSpec(width=math.pi, height=math.pi / 2.0)
TE10 = ModeIndex(Polarization.TE, 1, 0)
TM11 = ModeIndex(Polarization.TM, 1, 1)


def stencil(mode, freq, point, step):
    """The field on the 7-point stencil about ``point`` from one
    ``field_at`` call: rows center, +x, +y, +z, -x, -y, -z."""
    offsets = step * np.eye(3)
    return field_at(GUIDE, mode, freq,
                    np.concatenate(([point], point + offsets,
                                    point - offsets)))


def interior_points(rng, spec, count, z_lo=0.2, z_hi=1.5):
    """Random points clear of the walls and of z in [z_lo, z_hi]."""
    x = rng.uniform(0.1, spec.width - 0.1, count)
    y = rng.uniform(0.1, spec.height - 0.1, count)
    z = rng.uniform(z_lo, z_hi, count)
    return np.stack([x, y, z], axis=-1)


class TestSpecValidation:
    def test_orientation_enforced(self):
        with pytest.raises(DomainError):
            WaveguideSpec(width=1.0, height=2.0)

    def test_positive_extents(self):
        with pytest.raises(DomainError):
            WaveguideSpec(width=0.0, height=-1.0)

    @pytest.mark.parametrize("field", ["width", "height", "permittivity",
                                       "permeability"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_refused(self, field, bad):
        # an infinite width passed every other check
        values = {"width": 2.0, "height": 1.0, "permittivity": 1.0,
                  "permeability": 1.0, field: bad}
        with pytest.raises(DomainError, match="must be finite"):
            WaveguideSpec(**values)

    @pytest.mark.parametrize("eps,mu,product", [
        (1e-170, 1e-170, "0.0"), (1e-160, 1e-150, "1e-310"),
        (1e200, 1e200, "inf")])
    def test_material_product_must_be_normal(self, eps, mu, product):
        # an underflowed index divided every cutoff by zero; an
        # overflowed one put every pattern below the transition
        with pytest.raises(DomainError) as info:
            WaveguideSpec(width=2.0, height=1.0, permittivity=eps,
                          permeability=mu)
        assert str(info.value) == (
            f"permittivity {eps!r} times permeability {mu!r} is "
            f"{product}, outside the normal float range")

    def test_material_product_range_edges_allowed(self):
        for eps, mu in ((sys.float_info.min, 1.0), (1e154, 1e154)):
            spec = WaveguideSpec(width=2.0, height=1.0, permittivity=eps,
                                 permeability=mu)
            assert spec.refractive_index > 0.0

    def test_square_guide_allowed(self):
        spec = WaveguideSpec(width=2.0, height=2.0)
        assert spec.cross_section_area == 4.0

    def test_tm_index_floor(self):
        with pytest.raises(DomainError):
            ModeIndex(Polarization.TM, 1, 0)

    def test_te_double_zero(self):
        with pytest.raises(DomainError):
            ModeIndex(Polarization.TE, 0, 0)

    def test_te_single_zero_ok(self):
        assert ModeIndex(Polarization.TE, 0, 3).n == 3

    def test_negative_index_refused(self):
        with pytest.raises(DomainError) as info:
            ModeIndex(Polarization.TE, -1, 1)
        assert str(info.value) == "mode indices must be non-negative"


class TestDispersion:
    def test_te10_above_cutoff(self):
        d = dispersion(GUIDE, TE10, 2.0)
        assert d.transverse_wavenumber == pytest.approx(1.0)
        assert cutoff_frequency(GUIDE, TE10) == pytest.approx(1.0)
        assert d.medium_wavenumber == pytest.approx(2.0)
        assert d.branch is Branch.PROPAGATING
        assert d.axial_wavenumber == pytest.approx(math.sqrt(3.0))
        assert d.attenuation is None

    def test_tm11_below_cutoff(self):
        # pattern wavenumber sqrt(1 + 4), medium wavenumber 1
        d = dispersion(GUIDE, TM11, 1.0)
        assert d.transverse_wavenumber == pytest.approx(math.sqrt(5.0))
        assert d.branch is Branch.LOCALIZED
        assert d.axial_wavenumber is None
        assert d.attenuation == pytest.approx(2.0)

    def test_filling_scales_cutoff(self):
        filled = WaveguideSpec(width=math.pi, height=math.pi / 2.0,
                               permittivity=2.0, permeability=3.0)
        assert cutoff_frequency(filled, TE10) == pytest.approx(
            1.0 / math.sqrt(6.0))

    def test_cutoff_degeneracy_rejected(self):
        nu_c = cutoff_frequency(GUIDE, TE10)
        with pytest.raises(DomainError):
            dispersion(GUIDE, TE10, nu_c)
        with pytest.raises(DomainError):
            dispersion(GUIDE, TE10, nu_c * (1.0 + 1e-13))
        # just outside the degeneracy band both branches are fine
        assert dispersion(GUIDE, TE10, nu_c * (1.0 + 1e-9)).branch \
            is Branch.PROPAGATING
        assert dispersion(GUIDE, TE10, nu_c * (1.0 - 1e-9)).branch \
            is Branch.LOCALIZED

    def test_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            dispersion(GUIDE, TE10, 0.0)


class TestWallConditions:
    @pytest.mark.parametrize("mode,freq", [
        (TE10, 2.0), (TE10, 0.5),
        (TM11, 4.0), (TM11, 1.0),
        (ModeIndex(Polarization.TE, 2, 1), 4.0),
        (ModeIndex(Polarization.TM, 2, 2), 2.0),
    ])
    def test_tangential_e_and_normal_h_vanish(self, rng, mode, freq):
        for _ in range(4):
            y = rng.uniform(0.0, GUIDE.height)
            z = rng.uniform(-1.0, 1.0)
            for x_wall in (0.0, GUIDE.width):
                f = field_at(GUIDE, mode, freq, [x_wall, y, z],
                             source_plane=-3.0)
                assert abs(f.electric[1]) < 1e-12  # tangential E_y
                assert abs(f.electric[2]) < 1e-12  # tangential E_z
                assert abs(f.magnetic[0]) < 1e-12  # normal H_x
            x = rng.uniform(0.0, GUIDE.width)
            for y_wall in (0.0, GUIDE.height):
                f = field_at(GUIDE, mode, freq, [x, y_wall, z],
                             source_plane=-3.0)
                assert abs(f.electric[0]) < 1e-12
                assert abs(f.electric[2]) < 1e-12
                assert abs(f.magnetic[1]) < 1e-12


class TestFieldEquations:
    def sample_modes(self, rng, branch):
        picks = []
        while len(picks) < 8:
            pol = Polarization.TM if rng.random() < 0.5 else Polarization.TE
            m = int(rng.integers(0, 4))
            n = int(rng.integers(0, 4))
            try:
                mode = ModeIndex(pol, m, n)
            except DomainError:
                continue
            nu_c = cutoff_frequency(GUIDE, mode)
            if branch is Branch.PROPAGATING:
                freq = nu_c * rng.uniform(1.05, 1.5)
            else:
                freq = nu_c * rng.uniform(0.5, 0.95)
            picks.append((mode, freq))
        return picks

    @pytest.mark.parametrize("branch", [Branch.PROPAGATING, Branch.LOCALIZED])
    @pytest.mark.parametrize("which", ["electric", "magnetic"])
    def test_helmholtz(self, rng, branch, which):
        # the residual is the larger of the two fields' residuals over
        # their common scale, so it bounds the ``which`` field's own
        step = 1e-4
        for mode, freq in self.sample_modes(rng, branch):
            ksq = (GUIDE.refractive_index * freq) ** 2
            for point in interior_points(rng, GUIDE, 3):
                residual = mode_helmholtz_residual(GUIDE, mode, freq, point,
                                                   step=step)
                rows = stencil(mode, freq, point, step)
                f = getattr(rows, which)
                lap = sum((f[1 + ax] - 2.0 * f[0] + f[4 + ax]) / step ** 2
                          for ax in range(3))
                scale = max(np.abs(rows.electric[0]).max(),
                            np.abs(rows.magnetic[0]).max())
                assert np.abs(lap + ksq * f[0]).max() / (ksq * scale) \
                    <= residual < 1e-5

    @pytest.mark.parametrize("branch", [Branch.PROPAGATING, Branch.LOCALIZED])
    @pytest.mark.parametrize("which", ["electric", "magnetic"])
    def test_divergence_free(self, rng, branch, which):
        # the library residual measures E; H takes the same central
        # differences over the test's own stencil
        step = 1e-4
        for mode, freq in self.sample_modes(rng, branch):
            k = GUIDE.refractive_index * freq
            for point in interior_points(rng, GUIDE, 3):
                if which == "electric":
                    residual = mode_divergence_residual(GUIDE, mode, freq,
                                                        point, step=step)
                else:
                    h = stencil(mode, freq, point, step).magnetic
                    div = np.trace(h[1:4] - h[4:]) / (2.0 * step)
                    residual = abs(div) / (k * np.abs(h[0]).max())
                assert residual < 1e-5

    @pytest.mark.parametrize("branch", [Branch.PROPAGATING, Branch.LOCALIZED])
    def test_maxwell_curls(self, rng, branch):
        # curl E = -i nu mu H and curl H = +i nu eps E tie the two
        # field tables together, catching relative sign mistakes that
        # the scalar checks cannot see
        def fd_curl(fn, p, step=1e-4):
            jac = np.zeros((3, 3), dtype=complex)
            for j in range(3):
                e = np.zeros(3)
                e[j] = step
                jac[:, j] = (fn(p + e) - fn(p - e)) / (2.0 * step)
            return np.array([jac[2, 1] - jac[1, 2],
                             jac[0, 2] - jac[2, 0],
                             jac[1, 0] - jac[0, 1]])

        for mode, freq in self.sample_modes(rng, branch)[:4]:
            e_fn = lambda p: field_at(GUIDE, mode, freq, p).electric
            h_fn = lambda p: field_at(GUIDE, mode, freq, p).magnetic
            nu_mu = freq * GUIDE.permeability
            nu_eps = freq * GUIDE.permittivity
            for point in interior_points(rng, GUIDE, 2):
                e_val = e_fn(point)
                h_val = h_fn(point)
                assert np.max(np.abs(fd_curl(e_fn, point)
                                     + 1j * nu_mu * h_val)) < 1e-5
                assert np.max(np.abs(fd_curl(h_fn, point)
                                     - 1j * nu_eps * e_val)) < 1e-5


class TestSquareGuideSymmetry:
    @pytest.mark.parametrize("pol,e_sign,h_sign", [
        (Polarization.TM, 1.0, -1.0),
        (Polarization.TE, -1.0, 1.0),
    ])
    @pytest.mark.parametrize("freq", [3.0, 1.5])
    def test_index_swap_mirror(self, rng, pol, e_sign, h_sign, freq):
        # swapping x with y and m with n mirrors the pattern; the
        # electric field maps as a polar vector and the magnetic field
        # as an axial one, up to the overall amplitude convention of
        # each polarization
        guide = WaveguideSpec(width=math.pi, height=math.pi)
        pts = interior_points(rng, guide, 6)
        swapped = pts[:, [1, 0, 2]]
        f_a = field_at(guide, ModeIndex(pol, 1, 2), freq, pts,
                       source_plane=0.1)
        f_b = field_at(guide, ModeIndex(pol, 2, 1), freq, swapped,
                       source_plane=0.1)
        perm = [1, 0, 2]
        np.testing.assert_allclose(
            f_a.electric, e_sign * f_b.electric[:, perm], atol=1e-13)
        np.testing.assert_allclose(
            f_a.magnetic, h_sign * f_b.magnetic[:, perm], atol=1e-13)


class TestAxialProfiles:
    def test_direction_reversal_conjugates(self, rng):
        # for a real amplitude the backward wave is the time-reversed
        # forward wave (conjugate E, negated conjugate H) up to an
        # overall sign fixed by which axial component carries the
        # amplitude: E_z for TM, H_z for TE
        pts = interior_points(rng, GUIDE, 5)
        for mode, freq, sign in ((TE10, 2.0, -1.0), (TM11, 4.0, 1.0)):
            fwd = field_at(GUIDE, mode, freq, pts)
            bwd = field_at(GUIDE, mode, freq, pts, direction=-1)
            np.testing.assert_allclose(
                bwd.electric, sign * np.conj(fwd.electric), atol=1e-13)
            np.testing.assert_allclose(
                bwd.magnetic, -sign * np.conj(fwd.magnetic), atol=1e-13)

    def test_invalid_direction(self):
        with pytest.raises(DomainError):
            field_at(GUIDE, TE10, 2.0, [1.0, 0.5, 0.0], direction=2)

    def test_points_need_three_coordinates(self):
        with pytest.raises(DomainError) as info:
            field_at(GUIDE, TE10, 2.0, [[1.0, 0.5], [1.2, 0.7]])
        assert str(info.value) \
            == "points must have a trailing axis of length 3"

    def test_localized_kink_parity(self):
        z0 = 0.7
        x, y = 1.1, 0.6
        delta = 0.3
        above = field_at(GUIDE, TM11, 1.0, [x, y, z0 + delta],
                         source_plane=z0)
        below = field_at(GUIDE, TM11, 1.0, [x, y, z0 - delta],
                         source_plane=z0)
        # transverse E is odd across the kink, E_z and H are even
        np.testing.assert_allclose(above.electric[:2], -below.electric[:2],
                                   rtol=1e-13)
        assert above.electric[2] == pytest.approx(below.electric[2])
        np.testing.assert_allclose(above.magnetic, below.magnetic,
                                   rtol=1e-13)
        on_kink = field_at(GUIDE, TM11, 1.0, [x, y, z0], source_plane=z0)
        assert abs(on_kink.electric[0]) == 0.0
        assert abs(on_kink.electric[1]) == 0.0

    def test_localized_decay(self):
        z0 = 0.0
        near = field_at(GUIDE, TM11, 1.0, [1.0, 0.5, 1.0], source_plane=z0)
        far = field_at(GUIDE, TM11, 1.0, [1.0, 0.5, 2.0], source_plane=z0)
        # attenuation 2 over a unit step
        ratio = abs(far.electric[2] / near.electric[2])
        assert ratio == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_te_localized_odd_components(self):
        mode = ModeIndex(Polarization.TE, 1, 1)
        z0 = -0.2
        above = field_at(GUIDE, mode, 1.0, [1.2, 0.8, z0 + 0.4],
                         source_plane=z0)
        below = field_at(GUIDE, mode, 1.0, [1.2, 0.8, z0 - 0.4],
                         source_plane=z0)
        np.testing.assert_allclose(above.magnetic[:2], -below.magnetic[:2],
                                   rtol=1e-13)
        np.testing.assert_allclose(above.electric, below.electric,
                                   rtol=1e-13)


class TestModeListing:
    def test_lowest_band_ordering(self):
        listing = modes_below(GUIDE, 3.0)
        labels = [(m.polarization.value, m.m, m.n) for m in listing]
        assert labels == [
            ("TE", 1, 0),
            ("TE", 0, 1),
            ("TE", 2, 0),
            ("TE", 1, 1),
            ("TM", 1, 1),
            ("TE", 2, 1),
            ("TM", 2, 1),
        ]
        cutoffs = [cutoff_frequency(GUIDE, m) for m in listing]
        assert cutoffs == sorted(cutoffs)
        assert cutoffs[0] == pytest.approx(1.0)

    def test_degenerate_pair_shares_cutoff(self):
        listing = modes_below(GUIDE, 2.5)
        by_label = {(m.polarization.value, m.m, m.n):
                    cutoff_frequency(GUIDE, m) for m in listing}
        assert by_label[("TE", 1, 1)] == pytest.approx(
            by_label[("TM", 1, 1)])
        assert by_label[("TE", 1, 1)] == pytest.approx(math.sqrt(5.0))

    def test_truncation_guard(self):
        with pytest.raises(DomainError):
            modes_below(GUIDE, 50.0, max_index=3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_limit_refused(self, bad):
        # a bisected prefix would read NaN as no mode or every mode
        with pytest.raises(DomainError, match="finite"):
            modes_below(GUIDE, bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_limit_not_above_zero_refused(self, bad):
        with pytest.raises(DomainError) as info:
            modes_below(GUIDE, bad)
        assert str(info.value) == "frequency limit must be positive"

    def test_mutating_a_listing_leaves_later_calls_alone(self):
        listing = modes_below(GUIDE, 3.0)
        expected = list(listing)
        listing.reverse()
        listing.append(TE10)
        listing[0] = TM11
        assert modes_below(GUIDE, 3.0) == expected
        # the same scan serves a neighboring limit
        assert modes_below(GUIDE, 2.9) == expected

    @staticmethod
    def full_scan(spec, limit, max_index):
        # every index pair up to the bound, as the enumeration once did:
        # the modes sorted by cutoff, or the refusal of the first boundary
        # mode in scan order (m, then n, then TE before TM)
        found = []
        for m in range(max_index + 1):
            for n in range(max_index + 1):
                for pol in (Polarization.TE, Polarization.TM):
                    try:
                        mode = ModeIndex(pol, m, n)
                    except DomainError:
                        continue
                    nu_c = cutoff_frequency(spec, mode)
                    if nu_c < limit:
                        if max_index in (m, n):
                            return (f"mode {pol.value}({m},{n}) at the "
                                    f"index bound {max_index} still lies "
                                    "below the frequency limit; increase "
                                    "max_index")
                        found.append((nu_c, mode))
        return [mode for _, mode in sorted(found, key=lambda item: (
            item[0], item[1].polarization.value, item[1].m, item[1].n))]

    @pytest.mark.parametrize("spec", [
        GUIDE,
        WaveguideSpec(width=2.3, height=0.7, permittivity=2.1,
                      permeability=1.3),
    ])
    @pytest.mark.parametrize("max_index", [1, 4, 9, 20])
    def test_matches_full_scan(self, spec, max_index):
        lowest = cutoff_frequency(spec, TE10)
        limits = [0.5 * lowest, lowest, math.nextafter(lowest, math.inf),
                  2.0, 3.7, 7.3, 12.0, 40.0]
        # interleaved, then again in reverse: most calls reuse a scan
        # that an earlier limit sorted
        for limit in limits[1::2] + limits[::2] + limits[::-1]:
            expected = self.full_scan(spec, limit, max_index)
            if isinstance(expected, str):
                with pytest.raises(DomainError) as refusal:
                    modes_below(spec, limit, max_index=max_index)
                assert str(refusal.value) == expected
            else:
                assert modes_below(spec, limit,
                                   max_index=max_index) == expected

    def test_wavenumber_helper(self):
        assert transverse_wavenumber(GUIDE, TM11) == pytest.approx(
            math.sqrt(5.0))


DEMO_GUIDE = WaveguideSpec(width=math.pi, height=math.pi / 2.0,
                           permittivity=1.0, permeability=1.44)
FILLED_GUIDE = WaveguideSpec(width=2.3, height=0.7, permittivity=2.1,
                             permeability=1.3)
SQUARE_GUIDE = WaveguideSpec(width=2.0, height=2.0)


class TestModeTable:
    @staticmethod
    def pattern_scan(spec, m_top, n_top):
        # the per-pattern scan the table replaced, m, then n, then TE
        # before TM, sorted by (cutoff, polarization, m, n)
        found = []
        for m in range(m_top + 1):
            for n in range(n_top + 1):
                for pol in (Polarization.TE, Polarization.TM):
                    try:
                        mode = ModeIndex(pol, m, n)
                    except DomainError:
                        continue
                    found.append((cutoff_frequency(spec, mode),
                                  pol.value, m, n))
        return sorted(found)

    @pytest.mark.parametrize("spec", [DEMO_GUIDE, FILLED_GUIDE,
                                      SQUARE_GUIDE])
    @pytest.mark.parametrize("tops", [(30, 30), (7, 3)])
    def test_matches_sorted_pattern_scan(self, spec, tops):
        codes, m, n, h, cutoff = (column.tolist()
                                  for column in mode_table(spec, *tops))
        want = self.pattern_scan(spec, *tops)
        assert [float.hex(c) for c in cutoff] \
            == [float.hex(c) for c, *_ in want]
        rows = [(POLARIZATIONS[code].value, m_, n_)
                for code, m_, n_ in zip(codes, m, n)]
        assert rows == [tuple(key) for _, *key in want]
        # h is transverse_wavenumber's math.hypot, bit for bit
        assert h == [transverse_wavenumber(
            spec, ModeIndex(Polarization(pol), m_, n_))
            for pol, m_, n_ in rows]

    def test_shared_arrays_are_read_only(self):
        # every caller gets the same cached arrays
        table = mode_table(DEMO_GUIDE, 6, 6)
        assert mode_table(DEMO_GUIDE, 6, 6) is table
        assert len(table) == 5
        for column in table:
            with pytest.raises(ValueError):
                column[0] = column[-1]

    def test_modes_below_lists_the_table_rows(self):
        codes, m, n, _, cutoff = mode_table(FILLED_GUIDE, 5, 5)
        # the tenth cutoff is the first one not below the limit
        listing = modes_below(FILLED_GUIDE, float(cutoff[9]))
        assert listing == [
            ModeIndex(POLARIZATIONS[code], m_, n_) for code, m_, n_
            in zip(codes[:9].tolist(), m[:9].tolist(), n[:9].tolist())]


class TestModeResidualWrappers:
    def test_propagating_residuals_small(self):
        point = [1.1, 0.6, 0.4]
        assert mode_helmholtz_residual(GUIDE, TE10, 2.0, point) < 1e-5
        assert mode_divergence_residual(GUIDE, TE10, 2.0, point) < 1e-5

    def test_localized_residuals_small(self):
        point = [1.1, 0.6, 0.4]
        assert mode_helmholtz_residual(GUIDE, TM11, 1.0, point) < 1e-5
        assert mode_divergence_residual(GUIDE, TM11, 1.0, point) < 1e-5

    def test_second_order_convergence(self):
        point = [1.1, 0.6, 0.4]
        coarse = mode_helmholtz_residual(GUIDE, TM11, 1.0, point, 1e-3)
        fine = mode_helmholtz_residual(GUIDE, TM11, 1.0, point, 5e-4)
        assert 3.5 < coarse / fine < 4.5

    def test_wall_stencil_refused(self):
        with pytest.raises(DomainError):
            mode_helmholtz_residual(GUIDE, TE10, 2.0, [1e-4, 0.6, 0.4])

    def test_kink_stencil_refused(self):
        with pytest.raises(DomainError):
            mode_divergence_residual(GUIDE, TM11, 1.0, [1.1, 0.6, 1e-4])

    @pytest.mark.parametrize("residual", [mode_helmholtz_residual,
                                          mode_divergence_residual])
    def test_zero_field_refused(self, residual):
        # TE10 at half its cutoff decays as exp(-0.866 |z|): zero by
        # z = 2000, where the residual would divide by it
        nu = 0.5 * cutoff_frequency(GUIDE, TE10)
        with pytest.raises(DomainError) as info:
            residual(GUIDE, TE10, nu, (1.0, 0.5, 2000.0))
        assert str(info.value) == (
            "the electric field at point (1.0, 0.5, 2000.0) underflows to "
            "zero; no residual is measured")

    @pytest.mark.parametrize("residual", [mode_helmholtz_residual,
                                          mode_divergence_residual])
    def test_one_field_call_per_probe(self, monkeypatch, residual):
        # the whole stencil comes from one evaluation over its 7 points
        calls = []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[3]))
            return field_at(*args, **kwargs)

        monkeypatch.setattr(modes, "field_at", counted)
        for mode, freq in ((TE10, 2.0), (TM11, 1.0)):
            calls.clear()
            assert residual(GUIDE, mode, freq, [1.1, 0.6, 0.4]) < 1e-5
            assert calls == [(7, 3)]


class TestLowestCutoffScan:
    def test_te10_minimal_over_exhaustive_scan(self):
        # width > height pins the fundamental pattern
        ref = cutoff_frequency(GUIDE, TE10)
        for m in range(0, 11):
            for n in range(0, 11):
                for pol in (Polarization.TE, Polarization.TM):
                    try:
                        mode = ModeIndex(pol, m, n)
                    except DomainError:
                        continue
                    if (pol, m, n) == (Polarization.TE, 1, 0):
                        continue
                    assert cutoff_frequency(GUIDE, mode) > ref
