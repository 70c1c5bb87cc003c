"""Sweep the decay rate over transition frequency or atom position.

Writes a plain CSV with one row per sweep sample. Frequency sweeps
show the cutoff staircase as channels open; position sweeps show the
mode-profile weighting across the guide.

The guide and the dipole are those of configs/demo.conf, but the
emitter sits at y0 = b/4, where demo.conf puts it on the axis at
y0 = b/2. Where TE10 alone travels the two heights give one rate;
above the second cutoff they differ.

Usage:
    python scripts/decay_sweep.py --sweep omega --lo 0.9 --hi 4.0
    python scripts/decay_sweep.py --sweep position --count 81
"""

import argparse
import csv
import math

import numpy as np

from wgqed.emission import decay_rate
from wgqed.modes import WaveguideSpec
from wgqed.quantize import Atom, DensityModel, QuantizationBox

SPEC = WaveguideSpec(width=math.pi, height=math.pi / 2.0,
                     permittivity=1.0, permeability=1.44)
BOX = QuantizationBox(length=1.0)


def atom_at(x0, omega):
    return Atom(position=(x0, SPEC.height / 4.0, 0.0),
                dipole=(0.0, 0.124, 0.0), transition_frequency=omega)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sweep", choices=("omega", "position"),
                    default="omega")
    ap.add_argument("--lo", type=float, default=None)
    ap.add_argument("--hi", type=float, default=None)
    ap.add_argument("--count", type=int, default=121)
    ap.add_argument("--omega", type=float, default=1.45,
                    help="fixed transition frequency for position sweeps")
    ap.add_argument("--out", default="decay_sweep.csv")
    args = ap.parse_args()

    rows = []
    if args.sweep == "omega":
        lo = 0.9 if args.lo is None else args.lo
        hi = 4.0 if args.hi is None else args.hi
        for omega in np.linspace(lo, hi, args.count):
            dec = decay_rate(SPEC, atom_at(SPEC.width / 2.0, omega),
                             BOX, DensityModel.PHASE_VELOCITY)
            rows.append((float(omega), dec.total, len(dec.channels),
                         dec.oscillatory))
        header = ("omega", "decay_rate", "open_channels", "oscillatory")
    else:
        # keep clear of the walls, where every rate vanishes
        lo = 0.02 * SPEC.width if args.lo is None else args.lo
        hi = 0.98 * SPEC.width if args.hi is None else args.hi
        for x0 in np.linspace(lo, hi, args.count):
            dec = decay_rate(SPEC, atom_at(float(x0), args.omega),
                             BOX, DensityModel.PHASE_VELOCITY)
            rows.append((float(x0), dec.total, len(dec.channels),
                         dec.oscillatory))
        header = ("x0", "decay_rate", "open_channels", "oscillatory")

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
