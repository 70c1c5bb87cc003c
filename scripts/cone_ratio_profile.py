"""Reproduce the correlation-map profile at a chosen rate ratio.

Root-finds the transition frequency at which the temporal decay rate,
scaled by the front speed, is the requested fraction of the axial
rate, then emits the full space-time correlation artifact through the
command line plumbing so the output carries the standard envelope.

The emitter is configs/demo.conf's with ``atom.y0`` = b/4 in place of
the axis, b/2, and ``atom.omega`` set to the root found. The written
``profile.conf`` is demo.conf with those two keys and ``grid.z_count``
and ``grid.t_count`` replaced, so the map it renders is that emitter's.

Usage:
    python scripts/cone_ratio_profile.py --outdir out_profile
"""

import argparse
import json
from pathlib import Path

from artifact_digests import derived_config, research_config
from wgqed.cli import main as wgqed_main
from wgqed.detection import solve_emitter
from wgqed.numerics import find_root


def cone_ratio(omega):
    config = research_config(atom_omega=omega)
    spec = config.waveguide_spec()
    sol = solve_emitter(spec, config.atom(), config.box(), config.dos,
                        config.radicand)
    return (spec.refractive_index * sol.decay.total
            / abs(sol.pole.spatial_rate))


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

    omega = find_root(lambda w: cone_ratio(w) - args.ratio,
                      args.bracket[0], args.bracket[1], rel_tol=1e-10)
    print(f"line center for ratio {args.ratio}: omega = {omega!r}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    conf = derived_config(outdir / "profile.conf", {
        "atom.y0": repr(research_config().atom_y0), "atom.omega": repr(omega),
        "grid.z_count": str(args.grid), "grid.t_count": str(args.grid)})
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
