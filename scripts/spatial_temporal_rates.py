"""Compare the temporal and axial decay rates across frequency.

For each transition frequency the full chain runs: decay rate, level
shift, pole of the emitted-field spectrum. The CSV records both rates
and their cone ratio; the crossing report for each radicand model
prints at the end.

Usage:
    python scripts/spatial_temporal_rates.py --lo 1.0 --hi 2.4
"""

import argparse
import csv
import math

import numpy as np

from wgqed.detection import RadicandModel, omega_d, solve_emitter
from wgqed.errors import NoCrossingError
from wgqed.modes import WaveguideSpec
from wgqed.quantize import Atom, DensityModel, QuantizationBox

SPEC = WaveguideSpec(width=math.pi, height=math.pi / 2.0,
                     permittivity=1.0, permeability=1.44)
BOX = QuantizationBox(length=1.0)


def chain(omega):
    atom = Atom(position=(SPEC.width / 2.0, SPEC.height / 4.0, 0.0),
                dipole=(0.0, 0.124, 0.0), transition_frequency=omega)
    return solve_emitter(SPEC, atom, BOX, DensityModel.PHASE_VELOCITY)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lo", type=float, default=1.0)
    ap.add_argument("--hi", type=float, default=2.4)
    ap.add_argument("--count", type=int, default=57)
    ap.add_argument("--out", default="rates.csv")
    args = ap.parse_args()

    rows = []
    for omega in np.linspace(args.lo, args.hi, args.count):
        sol = chain(float(omega))
        rate = sol.decay.total
        spatial = abs(sol.pole.spatial_rate)
        rows.append((float(omega), rate, spatial,
                     SPEC.refractive_index * rate / spatial))
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
            report = omega_d(SPEC, reference, model)
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
