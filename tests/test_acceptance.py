"""End-to-end acceptance battery.

One test per numbered criterion, each standing on its own: the
figure-profile reproduction with root-found parameters, randomized PDE
and pole-algebra sweeps, the quadrature and discretized-continuum
oracles, invariance and determinism contracts. The conftest hook
prints a per-criterion verdict line after the run.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from wgqed.cli import main
from wgqed.detection import (
    RadicandModel,
    brute_force_amplitude,
    correlation_amplitude,
    omega_d,
    pole,
    solve_emitter,
)
from wgqed.emission import (
    amplitudes_ode_oracle,
    build_bins,
    decay_rate,
)
from wgqed.errors import DomainError
from wgqed.modes import (
    Branch,
    ModeIndex,
    Polarization,
    WaveguideSpec,
    cutoff_frequency,
    dispersion,
    field_at,
    mode_divergence_residual,
    mode_helmholtz_residual,
)
from wgqed.numerics import find_root
from wgqed.quantize import (
    HBAR,
    Atom,
    DensityModel,
    QuantizationBox,
    mode_overlap,
    normalize,
)

from crossing_oracle import scanned_crossing

SEED = 20260822
BOX = QuantizationBox(length=1.0)
# refractive index 1.2, fundamental cutoff 5/6
FILLED = WaveguideSpec(width=math.pi, height=math.pi / 2.0,
                       permittivity=1.0, permeability=1.44)
EMPTY = WaveguideSpec(width=math.pi, height=math.pi / 2.0)
TE10 = ModeIndex(Polarization.TE, 1, 0)


def center_atom(spec, omega, dipole_y=0.124):
    return Atom(position=(spec.width / 2.0, spec.height / 4.0, 0.0),
                dipole=(0.0, dipole_y, 0.0),
                transition_frequency=omega)


def write_config(tmp_path, name, omega, **extras):
    lines = {
        "waveguide.a": repr(math.pi),
        "waveguide.b": repr(math.pi / 2.0),
        "waveguide.eps": "1.0",
        "waveguide.mu": "1.44",
        "atom.x0": repr(math.pi / 2.0),
        "atom.y0": repr(math.pi / 4.0),
        "atom.z0": "0.0",
        "atom.omega": repr(omega),
        "atom.dipole_x_re": "0.0",
        "atom.dipole_x_im": "0.0",
        "atom.dipole_y_re": "0.124",
        "atom.dipole_y_im": "0.0",
        "atom.dipole_z_re": "0.0",
        "atom.dipole_z_im": "0.0",
    }
    lines.update({k: str(v) for k, v in extras.items()})
    path = tmp_path / name
    path.write_text("\n".join(f"{k} = {v}"
                              for k, v in lines.items()) + "\n")
    return str(path)


def test_criterion_01(tmp_path):
    """Figure profile: root-found line center, fitted ratio 0.8
    within 1% on a 200 x 200 grid, under a minute."""
    start = time.time()

    def cone_ratio_of(omega):
        sol = solve_emitter(FILLED, center_atom(FILLED, omega), BOX,
                            DensityModel.PHASE_VELOCITY)
        return (FILLED.refractive_index * sol.decay.total
                / abs(sol.pole.spatial_rate))

    omega = find_root(lambda w: cone_ratio_of(w) - 0.8, 1.25, 1.45,
                      rel_tol=1e-10)
    conf = write_config(tmp_path, "fig.conf", omega, **{
        "grid.z_count": 200, "grid.t_count": 200})
    out = str(tmp_path / "fig.csv")
    assert main(["corr", "--config", conf, "--out", out,
                 "--reproducible"]) == 0
    fit = json.load(open(out + ".json"))["fit"]
    assert fit["cone_ratio"] == pytest.approx(0.8, rel=0.01)
    # the same number through the printed slopes: temporal slope
    # scaled by the front speed over the axial slope
    slopes = (fit["fitted_temporal_slope"] * 1.2
              / fit["fitted_spatial_slope"])
    assert slopes == pytest.approx(0.8, rel=0.01)
    assert time.time() - start < 60.0


def test_criterion_02():
    """Helmholtz and divergence residuals over 50 random modes, with
    second-order step convergence."""
    gen = np.random.default_rng(SEED)
    # probe point off every low-order nodal line, so the point-local
    # component scale in the residual normalization stays O(1)
    point = (0.37 * FILLED.width, 0.41 * FILLED.height, 0.23)
    ratios_h, ratios_d = [], []
    seen_pol, seen_branch = set(), set()
    for _ in range(50):
        while True:
            pol = (Polarization.TE, Polarization.TM)[gen.integers(2)]
            m, n = int(gen.integers(0, 3)), int(gen.integers(0, 3))
            try:
                mode = ModeIndex(pol, m, n)
                break
            except DomainError:
                continue
        nu_c = cutoff_frequency(FILLED, mode)
        if gen.integers(2):
            freq = nu_c * float(gen.uniform(1.15, 2.5))
            seen_branch.add("traveling")
        else:
            freq = nu_c * float(gen.uniform(0.5, 0.9))
            seen_branch.add("localized")
        seen_pol.add(pol)
        for fn, ratios in ((mode_helmholtz_residual, ratios_h),
                           (mode_divergence_residual, ratios_d)):
            coarse = fn(FILLED, mode, freq, point, 1e-3)
            fine = fn(FILLED, mode, freq, point, 5e-4)
            assert coarse < 1e-5
            # residuals at the roundoff floor (exactly transverse
            # divergences) carry no truncation signal to halve
            if fine > 1e-12:
                ratios.append(coarse / fine)
    assert len(seen_pol) == 2 and len(seen_branch) == 2
    assert len(ratios_h) == 50 and len(ratios_d) >= 15
    for ratio in ratios_h + ratios_d:
        assert 3.5 <= ratio <= 4.5


def _axis_nodes(lo, hi, panels, order):
    g, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * g[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel())


def _energy_quadrature(spec, mode, freq, amplitude):
    disp = dispersion(spec, mode, freq)
    gx, wt = np.polynomial.legendre.leggauss(32)
    x = 0.5 * spec.width * (gx + 1.0)
    wxs = wt * 0.5 * spec.width
    y = 0.5 * spec.height * (gx + 1.0)
    wys = wt * 0.5 * spec.height
    if disp.branch is Branch.PROPAGATING:
        z, wz = _axis_nodes(0.0, BOX.length, 1, 8)
    else:
        reach = 14.0 / disp.attenuation
        z_lo, w_lo = _axis_nodes(-reach, 0.0, 20, 10)
        z_hi, w_hi = _axis_nodes(0.0, reach, 20, 10)
        z = np.concatenate([z_lo, z_hi])
        wz = np.concatenate([w_lo, w_hi])
    grid = np.stack(np.meshgrid(x, y, z, indexing="ij"), axis=-1)
    f = field_at(spec, mode, freq, grid, amplitude=amplitude)
    density = 0.5 * (
        spec.permittivity * np.sum(np.abs(f.electric) ** 2, axis=-1)
        + spec.permeability * np.sum(np.abs(f.magnetic) ** 2, axis=-1))
    return float(np.einsum("i,j,k,ijk->", wxs, wys, wz, density))


def test_criterion_03():
    """Overlaps below 1e-10 and one quantum of energy for every
    polarization and branch normalization."""
    TM11 = ModeIndex(Polarization.TM, 1, 1)
    # the four closed forms: TE/TM crossed with traveling/localized
    cases = ((TE10, 1.7 * cutoff_frequency(FILLED, TE10)),
             (TE10, 0.6 * cutoff_frequency(FILLED, TE10)),
             (TM11, 1.5 * cutoff_frequency(FILLED, TM11)),
             (TM11, 0.7 * cutoff_frequency(FILLED, TM11)))
    for mode, freq in cases:
        amp = normalize(FILLED, mode, freq, BOX)
        energy = _energy_quadrature(FILLED, mode, freq, amp)
        assert energy == pytest.approx(HBAR * freq, rel=1e-10)
    pairs = ((TE10, ModeIndex(Polarization.TE, 2, 0)),
             (TE10, TM11),
             (TM11, ModeIndex(Polarization.TM, 2, 1)),
             (ModeIndex(Polarization.TE, 0, 1),
              ModeIndex(Polarization.TE, 1, 1)))
    for mode_a, mode_b in pairs:
        freq = 1.5 * max(cutoff_frequency(FILLED, mode_a),
                         cutoff_frequency(FILLED, mode_b))
        cross = abs(mode_overlap(FILLED, mode_a, mode_b, freq))
        norm = math.sqrt(
            abs(mode_overlap(FILLED, mode_a, mode_a, freq))
            * abs(mode_overlap(FILLED, mode_b, mode_b, freq)))
        assert cross / norm < 1e-10


def test_criterion_04():
    """Pole algebra identities at 1e-12 over ten thousand randomized
    (line center, rate, width) triples."""
    gen = np.random.default_rng(SEED)
    models = list(RadicandModel)
    for k in range(10_000):
        width = float(gen.uniform(0.6, 4.0))
        spec = WaveguideSpec(width=width, height=width / 2.0,
                             permittivity=1.0, permeability=1.44)
        omega = float(gen.uniform(0.05, 40.0))
        rate = float(gen.uniform(1e-4, 3.0))
        res = pole(spec, omega, rate, models[k % 2])
        beta = complex(res.beta_r, res.beta_i)
        scale = abs(res.radicand)
        assert abs(beta * beta - res.radicand) <= 1e-12 * scale
        assert abs((res.beta_r ** 2 - res.beta_i ** 2)
                   - res.radicand.real) <= 1e-12 * scale
        assert res.beta_r > 0.0
        assert res.beta_i <= 0.0


def test_criterion_05():
    """Contour amplitude against the direct wavenumber quadrature at
    twenty deep-cone points, both model pairings, within 1e-3."""
    start = time.time()
    atom = center_atom(FILLED, 1.336306209562122)
    dec = decay_rate(FILLED, atom, BOX, DensityModel.PHASE_VELOCITY)
    rate = dec.total
    assert rate > 0.0
    pairings = (
        (RadicandModel.SINGLE_INDEX, DensityModel.PHASE_VELOCITY),
        (RadicandModel.INDEX_SQUARED, DensityModel.GROUP_VELOCITY),
    )
    for radicand, dos in pairings:
        res = pole(FILLED, atom.transition_frequency, rate, radicand)
        for delta_z in np.linspace(100.0, 200.0, 10):
            point = (FILLED.width / 2.0, FILLED.height / 4.0,
                     float(delta_z))
            t = 1.2 * float(delta_z) + 5.2 / rate
            # 5.2 lifetimes of margin keeps the point well inside
            # the causal cone, as the criterion demands
            assert t - 1.2 * float(delta_z) > 5.0 / rate
            exact = correlation_amplitude(FILLED, atom, res, point, t,
                                          dos=dos)
            brute = brute_force_amplitude(FILLED, atom, res, point, t,
                                          dos=dos)
            g_exact = abs(exact) ** 2
            g_brute = abs(brute) ** 2
            assert g_exact > 0.0
            assert abs(g_brute - g_exact) / g_exact < 1e-3
    assert time.time() - start < 300.0


def test_criterion_06():
    """Discretized-continuum evolution against the golden-rule
    exponential at one percent linewidth."""
    omega = 1.45
    rate_target = 0.0145
    dip = math.sqrt(rate_target * EMPTY.cross_section_area
                    / (4.0 * omega))
    atom = Atom(position=(EMPTY.width / 2.0, EMPTY.height / 4.0, 0.0),
                dipole=(0.0, dip, 0.0), transition_frequency=omega)
    dec = decay_rate(EMPTY, atom, BOX, DensityModel.PHASE_VELOCITY)
    assert dec.total == pytest.approx(rate_target, rel=1e-12)
    window = (omega - 25.0 * rate_target, omega + 25.0 * rate_target)
    cells = build_bins(EMPTY, atom, BOX, DensityModel.PHASE_VELOCITY,
                       window=window, count=400, modes=[TE10])
    times = np.linspace(0.0, 3.0 / rate_target, 31)
    c_a, c_b = amplitudes_ode_oracle(times, cells, omega)
    deviation = np.max(np.abs(np.abs(c_a) ** 2
                              - np.exp(-rate_target * times)))
    assert float(deviation) < 0.05
    norms = np.abs(c_a) ** 2 + np.sum(np.abs(c_b) ** 2, axis=0)
    assert float(np.max(np.abs(norms - 1.0))) < 1e-6


def test_criterion_07():
    """Decay rate independent of the quantization length under both
    state density models."""
    atom = center_atom(FILLED, 1.45)
    for model in DensityModel:
        totals = [decay_rate(FILLED, atom, QuantizationBox(length=L),
                             model).total for L in (1.0, 7.0)]
        assert abs(totals[0] - totals[1]) <= 1e-14 * abs(totals[0])


def test_criterion_08():
    """Crossing line center: closed form and exact crossing both
    reported, and a scan of the pole finds the same crossing at 600
    and at tenfold (6,000) samples."""
    report = omega_d(FILLED, 0.1, RadicandModel.SINGLE_INDEX)
    assert report.root_found == pytest.approx(2.2353971, rel=1e-6)
    assert math.isfinite(report.closed_form)
    assert math.isfinite(report.discrepancy)
    for samples in (600, 6000):
        scanned = scanned_crossing(FILLED, 0.1,
                                   RadicandModel.SINGLE_INDEX, samples)
        assert abs(scanned - report.root_found) \
            <= 1e-9 * report.root_found
    # agreement between the two values is reported, not required
    assert report.discrepancy == pytest.approx(
        abs(report.root_found - report.closed_form)
        / report.root_found, rel=1e-9)


def test_criterion_09():
    """Below every cutoff the emitter keeps its excitation: zero rate
    with the oscillatory flag, and the exact evolution never drains
    half the population."""
    omega = 0.5
    atom = center_atom(FILLED, omega)
    dec = decay_rate(FILLED, atom, BOX, DensityModel.PHASE_VELOCITY)
    assert dec.total == 0.0
    assert dec.oscillatory
    nu_c = cutoff_frequency(FILLED, TE10)
    assert omega < nu_c
    cells = build_bins(FILLED, atom, BOX, DensityModel.PHASE_VELOCITY,
                       window=(0.4 * omega, 0.98 * nu_c), count=160,
                       modes=[TE10])
    assert np.all(cells.frequency < nu_c)
    times = np.linspace(0.0, 10.0 / omega, 21)
    c_a, _ = amplitudes_ode_oracle(times, cells, omega)
    assert float(np.min(np.abs(c_a) ** 2)) > 0.5


def test_criterion_10(tmp_path, child_env):
    """Every command is byte-deterministic under the reproducible
    flag, through the real process entry point."""
    conf = write_config(tmp_path, "det.conf", 1.45, **{
        "grid.z_count": 12, "grid.t_count": 12})
    for command in ("modes", "decay", "corr", "omegad", "validate"):
        digests = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"{command}_{tag}.csv")
            proc = subprocess.run(
                [sys.executable, "-m", "wgqed", command, "--config",
                 conf, "--out", out, "--reproducible"],
                capture_output=True, text=True, env=child_env)
            assert proc.returncode == 0, proc.stderr
            blob = open(out, "rb").read()
            if command == "corr":
                blob += open(out + ".json", "rb").read()
            digests.append(blob)
        assert digests[0] == digests[1], command
