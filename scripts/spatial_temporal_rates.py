"""Compare the temporal and axial decay rates across frequency.

For each transition frequency the full chain runs: decay rate, level
shift, pole of the emitted-field spectrum. The CSV records both rates
and their cone ratio; the crossing report for each radicand model
prints at the end.

The emitter is configs/demo.conf's with ``atom.y0`` = b/4 in place of
the axis, b/2, and ``atom.omega`` swept. Where TE10 alone travels the
two heights give one rate; above the second cutoff they differ.

Usage:
    python scripts/spatial_temporal_rates.py --lo 1.0 --hi 2.4
"""

import argparse
import csv

import numpy as np

from artifact_digests import research_config
from wgqed.detection import RadicandModel, omega_d, solve_emitter
from wgqed.errors import NoCrossingError


def chain(omega):
    config = research_config(atom_omega=omega)
    return solve_emitter(config.waveguide_spec(), config.atom(),
                         config.box(), config.dos, config.radicand)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lo", type=float, default=1.0)
    ap.add_argument("--hi", type=float, default=2.4)
    ap.add_argument("--count", type=int, default=57)
    ap.add_argument("--out", default="rates.csv")
    args = ap.parse_args()

    spec = research_config().waveguide_spec()
    rows = []
    for omega in np.linspace(args.lo, args.hi, args.count):
        sol = chain(float(omega))
        rate = sol.decay.total
        spatial = abs(sol.pole.spatial_rate)
        rows.append((float(omega), rate, spatial,
                     spec.refractive_index * rate / spatial))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("omega", "temporal_rate", "axial_rate",
                         "cone_ratio"))
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")

    # rate-ratio crossing for a mid-sweep linewidth
    reference = chain(0.5 * (args.lo + args.hi)).decay.total
    for model in RadicandModel:
        try:
            report = omega_d(spec, reference, model)
            print(f"{model.value}: closed form "
                  f"{report.closed_form:.9g}, exact crossing "
                  f"{report.root_found:.9g}, relative gap "
                  f"{report.discrepancy:.3g}")
        except NoCrossingError as err:
            lo, hi = err.value_range
            print(f"{model.value}: no crossing ({err}); ratio spans "
                  f"[{lo:.3g}, {hi:.3g}] over the reference band")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
