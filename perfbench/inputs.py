"""Seeded inputs of the three workloads.

Everything here is plain text and numbers drawn from ``random.Random``
seeded by ``--seed``; nothing imports the package, so the orchestrator
can build the set-up probe's config without paying for numpy.

Every emitter sits in the demo guide's single-channel band
(0.86, 1.64): above the TE(1,0) cutoff 5/6 and below the TE(2,0) and
TE(0,1) cutoff 5/3.
"""

from __future__ import annotations

import random
from pathlib import Path

# The demo emitter sits on the guide axis, x0 = a/2, a node of every
# TE(2,n) pattern, so those couplings are rounding noise (~1e-17).
# Once the shift window reaches the TE(2,0) cutoff 5/3, the stopping
# test of `integrate` on that noise passes or never passes depending
# on the last bits of omega. The cost of a level shift is then a
# chaotic function of omega: with the dispersion state density ~40%
# of emitters in the band take ~22 s and raise ConvergenceError
# (omega = 1.417 converges, 1.4171428... does not); with the paper
# density ~2% above omega = 1.21 take ~90 s and succeed. Seeded draws
# would make the number of such ops per run binomial, swinging every
# timing by more than a factor of two between seeds.
#
# So the sweep, whose subject is that chain, runs both models on the
# fixed grid linspace(0.86, 1.64, 8), in an order drawn from the
# seed: three of its eight dispersion draws fail (0.971, 1.194,
# 1.417) and are timed and counted like any other op. The figure and
# commands workloads, whose subjects are rendering and process
# set-up, draw omega from the seed in CHAIN_BAND, where the paper
# model's window [omega - 25 rate, omega + 25 rate] holds TE(1,0)
# alone and the chain costs ~0.2 s.
SWEEP_GRID = (0.86, 0.9714285714285714, 1.0828571428571427,
              1.1942857142857142, 1.3057142857142856,
              1.417142857142857, 1.5285714285714285, 1.64)
CHAIN_BAND = (0.86, 1.20)

# One pass of each workload. The run repeats whole passes so that
# every run holds the same mix of op kinds and the percentiles are
# taken over the same number of samples; the pass count comes from
# --seconds and the nominal pass cost on a 2-core x86 machine.
SWEEP_PASS_S = 72.0
FIGURE_FORMATS = ("csv", "json", "csv", "json")
FIGURE_PASS_S = 6.5
FIGURE_MIN_PASSES = 3
COMMANDS = (
    ("decay", ()),
    ("corr", ()),
    ("omegad", ()),
    ("validate", ()),
    ("modes", ()),
    ("decay", ("--max-mn", "400")),
)
COMMANDS_PASS_S = 9.5
COMMANDS_MIN_PASSES = 2

FIGURE_GRID = {
    "grid.x_count": "4",
    "grid.z_count": "200",
    "grid.t_count": "200",
}


def passes(workload: str, seconds: float) -> int:
    if workload == "sweep":
        return max(1, round(seconds / SWEEP_PASS_S))
    if workload == "figure":
        return max(FIGURE_MIN_PASSES, round(seconds / FIGURE_PASS_S))
    return max(COMMANDS_MIN_PASSES, round(seconds / COMMANDS_PASS_S))


def _stratified(rng: random.Random, count: int) -> list:
    """``count`` uniform draws over CHAIN_BAND, one per equal stratum,
    in shuffled order: the band is covered evenly in every pass."""
    lo, hi = CHAIN_BAND
    width = (hi - lo) / count
    draws = [lo + (k + rng.random()) * width for k in range(count)]
    rng.shuffle(draws)
    return draws


def variant_text(base_text: str, overrides: dict) -> str:
    """``base_text`` with the values of ``overrides`` replaced, and
    keys it lacks appended; comments and order are kept."""
    lines, seen = [], set()
    for line in base_text.splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        if key in overrides:
            lines.append(f"{key} = {overrides[key]}")
            seen.add(key)
        else:
            lines.append(line)
    lines += [f"{k} = {v}" for k, v in overrides.items() if k not in seen]
    return "\n".join(lines) + "\n"


def ops(workload: str, seed: int, seconds: float, root: Path) -> list:
    """The run's ops as dicts: ``kind`` plus a config text and, per
    workload, the model or command line pieces."""
    rng = random.Random(f"{workload}:{seed}")
    base = (root / "configs" / "demo.conf").read_text(encoding="utf-8")
    a = 3.141592653589793
    out = []
    for _ in range(passes(workload, seconds)):
        if workload == "sweep":
            paper, disp = list(SWEEP_GRID), list(SWEEP_GRID)
            rng.shuffle(paper)
            rng.shuffle(disp)
            for w_p, w_d in zip(paper, disp):
                for dos, omega in (("paper", w_p), ("dispersion", w_d)):
                    out.append({
                        "kind": dos, "omega": omega,
                        "config": variant_text(base, {
                            "atom.omega": repr(omega),
                            "models.dos": dos})})
        elif workload == "figure":
            omegas = _stratified(rng, len(FIGURE_FORMATS))
            for fmt, omega in zip(FIGURE_FORMATS, omegas):
                out.append({
                    "kind": fmt, "omega": omega, "format": fmt,
                    "config": variant_text(base, {
                        "atom.omega": repr(omega),
                        "grid.x_min": repr(0.35 * a),
                        "grid.x_max": repr(0.65 * a),
                        **FIGURE_GRID})})
        else:
            omegas = _stratified(rng, len(COMMANDS))
            for (cmd, extra), omega in zip(COMMANDS, omegas):
                out.append({
                    "kind": " ".join((cmd,) + extra), "omega": omega,
                    "command": cmd, "extra": list(extra),
                    "config": variant_text(base, {
                        "atom.omega": repr(omega)})})
    return out
