"""Sweep the decay rate over transition frequency or atom position.

Writes a plain CSV with one row per sweep sample. Frequency sweeps
show the cutoff staircase as channels open; position sweeps show the
mode-profile weighting across the guide.

The emitter is configs/demo.conf's with ``atom.y0`` = b/4 in place of
the axis, b/2, and the swept key, ``atom.omega`` or ``atom.x0``,
replaced; a position sweep also sets ``atom.omega`` from ``--omega``.
Where TE10 alone travels the two heights give one rate; above the
second cutoff they differ.

Usage:
    python scripts/decay_sweep.py --sweep omega --lo 0.9 --hi 4.0
    python scripts/decay_sweep.py --sweep position --count 81
"""

import argparse
import csv
from dataclasses import replace

import numpy as np

from artifact_digests import research_config
from wgqed.emission import decay_rate


def main() -> int:
    research = research_config()
    ap = argparse.ArgumentParser()
    ap.add_argument("--sweep", choices=("omega", "position"),
                    default="omega")
    ap.add_argument("--lo", type=float, default=None)
    ap.add_argument("--hi", type=float, default=None)
    ap.add_argument("--count", type=int, default=121)
    ap.add_argument("--omega", type=float, default=research.atom_omega,
                    help="fixed transition frequency for position sweeps")
    ap.add_argument("--out", default="decay_sweep.csv")
    args = ap.parse_args()

    if args.sweep == "omega":
        column, field, lo, hi = "omega", "atom_omega", 0.9, 4.0
    else:
        research = replace(research, atom_omega=args.omega)
        # keep clear of the walls, where every rate vanishes
        column, field = "x0", "atom_x0"
        lo, hi = 0.02 * research.waveguide_a, 0.98 * research.waveguide_a
    rows = []
    for value in np.linspace(lo if args.lo is None else args.lo,
                             hi if args.hi is None else args.hi, args.count):
        config = replace(research, **{field: float(value)})
        dec = decay_rate(config.waveguide_spec(), config.atom(),
                         config.box(), config.dos)
        rows.append((float(value), dec.total, len(dec.channels),
                     dec.oscillatory))

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow((column, "decay_rate", "open_channels",
                         "oscillatory"))
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
