"""Reproduce the correlation-map profile at a chosen rate ratio.

Root-finds the transition frequency at which the temporal decay rate,
scaled by the front speed, is the requested fraction of the axial
rate, then emits the full space-time correlation artifact through the
command line plumbing so the output carries the standard envelope.

Usage:
    python scripts/cone_ratio_profile.py --outdir out_profile
"""

import argparse
import json
import math
from pathlib import Path

from wgqed.cli import main as wgqed_main
from wgqed.detection import solve_emitter
from wgqed.modes import WaveguideSpec
from wgqed.numerics import find_root
from wgqed.quantize import Atom, DensityModel, QuantizationBox

WIDTH = math.pi
HEIGHT = math.pi / 2.0


def cone_ratio(spec_args, omega):
    spec = WaveguideSpec(*spec_args)
    atom = Atom(position=(spec.width / 2.0, spec.height / 4.0, 0.0),
                dipole=(0.0, 0.124, 0.0), transition_frequency=omega)
    sol = solve_emitter(spec, atom, QuantizationBox(length=1.0),
                        DensityModel.PHASE_VELOCITY)
    return (spec.refractive_index * sol.decay.total
            / abs(sol.pole.spatial_rate))


def config_text(omega, grid):
    lines = [
        f"waveguide.a = {WIDTH!r}",
        f"waveguide.b = {HEIGHT!r}",
        "waveguide.eps = 1.0",
        "waveguide.mu = 1.44",
        f"atom.x0 = {WIDTH / 2.0!r}",
        f"atom.y0 = {HEIGHT / 4.0!r}",
        "atom.z0 = 0.0",
        f"atom.omega = {omega!r}",
        "atom.dipole_x_re = 0.0",
        "atom.dipole_x_im = 0.0",
        "atom.dipole_y_re = 0.124",
        "atom.dipole_y_im = 0.0",
        "atom.dipole_z_re = 0.0",
        "atom.dipole_z_im = 0.0",
        f"grid.z_count = {grid}",
        f"grid.t_count = {grid}",
    ]
    return "\n".join(lines) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ratio", type=float, default=0.8,
                    help="target cone ratio (default 0.8)")
    ap.add_argument("--bracket", type=float, nargs=2,
                    default=(1.25, 1.45), metavar=("LO", "HI"),
                    help="transition frequency bracket for the root find")
    ap.add_argument("--grid", type=int, default=200,
                    help="z and t sample count (default 200)")
    ap.add_argument("--outdir", default="out_profile")
    args = ap.parse_args()

    spec_args = (WIDTH, HEIGHT, 1.0, 1.44)
    omega = find_root(
        lambda w: cone_ratio(spec_args, w) - args.ratio,
        args.bracket[0], args.bracket[1], rel_tol=1e-10)
    print(f"line center for ratio {args.ratio}: omega = {omega!r}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    conf = outdir / "profile.conf"
    conf.write_text(config_text(omega, args.grid), encoding="utf-8")
    table = outdir / "profile.csv"
    status = wgqed_main(["corr", "--config", str(conf),
                         "--out", str(table), "--reproducible"])
    if status != 0:
        return status

    fit = json.loads((outdir / "profile.csv.json").read_text())["fit"]
    print(f"fitted cone ratio  {fit['cone_ratio']:.6f}")
    print(f"temporal slope     {fit['fitted_temporal_slope']:.6e}")
    print(f"axial slope        {fit['fitted_spatial_slope']:.6e}")
    print("wrote", table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
