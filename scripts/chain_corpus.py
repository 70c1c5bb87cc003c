"""Run a fixed, seeded corpus of emitters through the chain and print
one digest per output class.

The corpus draws CORPUS_SIZE emitters from ``random.Random(SEED)`` over
four guides: the demo guide, a flat filled guide and two square
guides (one empty, one filled), revisited in the draw order, so that
anything kept per guide is read both cold and warm. Each emitter has
an off-axis position, sometimes on a wall at x0 or y0 = +0.0 or -0.0
and sometimes outside the cross section; z0 = +0.0, -0.0 or drawn; a
complex dipole; either density model and either radicand; and a
transition drawn just above the lowest cutoff, in the single-channel
band, above the second cutoff, below every cutoff, or on a cutoff.
The index bound is 6, and 2 to 4 for one emitter in six, where the
enumeration refuses. The ranges keep the whole run under a second:
closer to the cutoff, the group-velocity rate and its shift window
grow without bound.

Every emitter then goes through four stages: ``solve_emitter``,
``level_shift`` over an explicit mode list, ``build_bins`` and
``correlation_grid``. Their outputs fall in seven classes:

    decay        ``solve_emitter``'s golden-rule channels and total
    shift        its windowed level shift, per (mode, branch) piece,
                 then ``level_shift`` over an explicit list of the
                 three patterns whose cutoffs lie above the window
                 (decaying branch only)
    pole         its emission pole
    bins         ``build_bins`` over the lowest two patterns and one
                 above the transition
    correlation  ``correlation_grid`` on a 1 x 2 x 2 grid with one
                 cell before the light front: its ``values``, its
                 ``inside_cone`` mask as 0/1 digits, the pole's
                 line center, two rates and beta pair, and the other
                 numeric metadata fields but the consistency figure
    consistency  that grid's ``consistency_max_rel``, which measures
                 the arithmetic and not the map, kept apart so that a
                 change of how it is measured moves this class alone
    refusals     the stage, type and message of each ``WgError``

Numbers are written as ``float.hex`` text, so a change of one bit,
signed zeros included, moves the class's digest. Prints one
``sha256  class`` line per class; the accepted lines are in
``tests/data/chain_corpus.txt``. With ``--text DIR`` it also writes
each class's text to ``DIR/<class>.txt``, so that two checkouts can
be compared line by line with ``diff``.

The golden lines were written with numpy 2.4.6 on Python 3.11.7
and glibc 2.36 (x86-64), at numpy's SIMD dispatch level X86_V3
X86_V4 AVX512_ICL AVX512_SPR over the baseline X86_V2. ``float.hex``
text exposes numpy's SIMD ``exp`` and ``log`` paths and its complex
products, so another numpy build or a lower level
(``NPY_DISABLE_CPU_FEATURES``) may move a last bit; the golden test's
failure message names the level it ran at.

Usage:
    PYTHONPATH=src python scripts/chain_corpus.py [--text DIR]
"""

import argparse
import hashlib
import math
import random
import sys
from pathlib import Path

from wgqed.detection import RadicandModel, correlation_grid, solve_emitter
from wgqed.emission import build_bins, level_shift
from wgqed.errors import WgError
from wgqed.modes import POLARIZATIONS, ModeIndex, WaveguideSpec, mode_table
from wgqed.quantize import Atom, DensityModel, QuantizationBox

SEED = 26
CORPUS_SIZE = 200
CLASSES = ("decay", "shift", "pole", "bins", "correlation", "consistency",
           "refusals")

GUIDES = (
    WaveguideSpec(width=math.pi, height=math.pi / 2.0, permittivity=1.0,
                  permeability=1.44),
    WaveguideSpec(width=2.3, height=0.7, permittivity=2.1,
                  permeability=1.3),
    WaveguideSpec(width=2.0, height=2.0),
    WaveguideSpec(width=1.7, height=1.7, permittivity=2.25),
)
BOX = QuantizationBox(length=1.0)


def hx(value) -> str:
    """``float.hex`` of a real, or ``re,im`` of a complex."""
    if isinstance(value, complex):
        return f"{float.hex(value.real)},{float.hex(value.imag)}"
    return float.hex(float(value))


def label(mode) -> str:
    return f"{mode.polarization.value}({mode.m},{mode.n})"


# (cutoff, mode) of each guide's low patterns, in ``mode_table`` order
PATTERNS = {spec: [(nu_c, ModeIndex(POLARIZATIONS[code], m, n))
                   for code, m, n, _, nu_c
                   in zip(*(col.tolist() for col in mode_table(spec, 4, 4)))]
            for spec in GUIDES}


def draw_frequency(rng, spec):
    cutoffs = sorted({c for c, _ in PATTERNS[spec]})
    lowest, second, third = cutoffs[:3]
    kind = rng.choices(("near", "single", "above", "below", "edge"),
                       weights=(3, 6, 4, 1, 1))[0]
    if kind == "near":
        return lowest * (1.0 + 10.0 ** -rng.uniform(2.0, 4.5))
    if kind == "single":
        return rng.uniform(lowest, second)
    if kind == "above":
        return rng.uniform(second, third)
    if kind == "below":
        return rng.uniform(0.3, 0.99) * lowest
    return rng.choice((lowest, second)) * rng.choice(
        (1.0, 1.0 + 1e-13, 1.0 - 1e-13))


def draw_coordinate(rng, extent):
    kind = rng.choices(("inside", "wall", "outside"),
                       weights=(14, 4, 1))[0]
    if kind == "inside":
        return rng.uniform(0.02, 0.98) * extent
    if kind == "wall":
        return rng.choice((0.0, -0.0, extent))
    return rng.choice((-0.05, 1.05)) * extent


def draw_dipole(rng):
    parts = [complex(rng.gauss(0.0, 0.03), rng.gauss(0.0, 0.03))
             if rng.random() < 0.6 else 0j for _ in range(3)]
    if rng.random() < 0.3:
        parts[1] = complex(rng.uniform(0.01, 0.05), 0.0)
    return tuple(parts)


def draw_emitter(rng):
    spec = rng.choice(GUIDES)
    position = (draw_coordinate(rng, spec.width),
                draw_coordinate(rng, spec.height),
                rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0))))
    atom = Atom(position=position, dipole=draw_dipole(rng),
                transition_frequency=draw_frequency(rng, spec))
    return (spec, atom, rng.choice(tuple(DensityModel)),
            rng.choice(tuple(RadicandModel)),
            rng.choice((2, 3, 4)) if rng.random() < 1.0 / 6.0 else 6)


def run_emitter(i, spec, atom, dos, radicand, max_index, out):
    """Append emitter ``i``'s lines to the lists of ``out``."""
    def refused(stage, exc):
        out["refusals"].append(
            f"{i} {stage} {type(exc).__name__}: {exc}")

    omega = atom.transition_frequency
    listing = PATTERNS[spec]
    try:
        sol = solve_emitter(spec, atom, BOX, dos, radicand,
                            max_index=max_index)
    except WgError as exc:
        refused("solve", exc)
        sol = None
    if sol is not None:
        out["decay"] += [
            f"{i} {label(c.mode)} {c.direction} {hx(c.weight)} "
            f"{hx(c.coupling)} {hx(c.rate)}" for c in sol.decay.channels]
        out["decay"].append(f"{i} total {hx(sol.decay.total)}")
        out["shift"] += [
            f"{i} {label(c.mode)} {c.branch.value} {hx(c.window[0])} "
            f"{hx(c.window[1])} {hx(c.value)}"
            for c in sol.shift.contributions]
        out["shift"].append(f"{i} total {hx(sol.shift.value)}")
        p = sol.pole
        out["pole"].append(
            f"{i} {hx(p.beta_r)} {hx(p.beta_i)} {hx(p.radicand)} "
            f"{hx(p.shifted_frequency)} {hx(p.decay_rate)} "
            f"{p.model.value}")

    window = (0.8 * omega, 1.2 * omega)
    decaying = [mode for c, mode in listing if c > window[1]][:3]
    try:
        shift = level_shift(spec, atom, BOX, dos, window=window,
                            modes=decaying)
        out["shift"] += [f"{i} explicit {label(c.mode)} {hx(c.value)}"
                         for c in shift.contributions]
    except WgError as exc:
        refused("explicit_shift", exc)

    above = next((mode for c, mode in listing if c > omega),
                 listing[-1][1])
    try:
        cells = build_bins(spec, atom, BOX, dos,
                           window=(0.9 * omega, 1.1 * omega), count=3,
                           modes=[listing[0][1], listing[1][1], above])
        labels = [label(mode) for mode in cells.modes]
        width = hx(cells.width)
        out["bins"] += [
            f"{i} {labels[row]} {d} {hx(nu)} {width} {hx(g)} {hx(w)}"
            for row, d, nu, g, w in zip(
                cells.row.tolist(), cells.direction.tolist(),
                cells.frequency.tolist(), cells.coupling.tolist(),
                cells.weight.tolist())]
    except WgError as exc:
        refused("bins", exc)

    if sol is None:
        return
    z0 = float(atom.position[2])
    front = spec.refractive_index
    try:
        # the cell at z0 + 4 and t = 3 * front lies before the front
        grid = correlation_grid(
            spec, atom, sol.pole, [0.5 * spec.width], [z0 + 1.0, z0 + 4.0],
            [3.0 * front, 10.0 * front], dos=dos, max_index=max_index)
    except WgError as exc:
        refused("correlation", exc)
        return
    meta = grid.metadata
    pole = meta.pole
    out["correlation"].append(
        f"{i} {' '.join(map(hx, grid.values.ravel()))} "
        f"{''.join('01'[int(b)] for b in grid.inside_cone.ravel())} "
        f"{hx(pole.shifted_frequency)} {hx(pole.decay_rate)} "
        f"{hx(pole.spatial_rate)} {hx(pole.beta_r)} {hx(pole.beta_i)} "
        f"{' '.join(map(hx, meta.source_position))} "
        f"{hx(meta.front_speed_factor)} "
        f"{hx(meta.alternative_prefactor_ratio)}")
    out["consistency"].append(f"{i} {hx(meta.consistency_max_rel)}")


def corpus_text() -> dict:
    """``{class: text}`` of the whole corpus, run in this process."""
    rng = random.Random(SEED)
    out = {name: [] for name in CLASSES}
    for i in range(CORPUS_SIZE):
        run_emitter(i, *draw_emitter(rng), out)
    return {name: "".join(line + "\n" for line in lines)
            for name, lines in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--text", type=Path, default=None,
                    help="also write each class's text to DIR/<class>.txt")
    args = ap.parse_args(argv)
    texts = corpus_text()
    if args.text is not None:
        args.text.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (args.text / f"{name}.txt").write_text(text, encoding="utf-8")
    for name, text in texts.items():
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
